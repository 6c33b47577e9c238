package repro.core

import org.scalatest.funsuite.AnyFunSuite

class InitSpec extends AnyFunSuite {

  private val pts = TestData.mixture(200, 4, 8, 0.02, 31L)

  test("kmeans++ returns k distinct centroids for clusterable data") {
    val c = Init.kmeansPlusPlus(pts, 8, 1L)
    assert(c.length == 8)
    assert(c.map(_.toSeq).distinct.length == 8)
  }

  test("kmeans++ is deterministic in the seed") {
    val a = Init.kmeansPlusPlus(pts, 10, 5L)
    val b = Init.kmeansPlusPlus(pts, 10, 5L)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
  }

  test("different seeds give different centroids") {
    val a = Init.kmeansPlusPlus(pts, 10, 5L)
    val b = Init.kmeansPlusPlus(pts, 10, 6L)
    assert(a.map(_.toSeq).toSeq != b.map(_.toSeq).toSeq)
  }

  test("kmeans++ spreads centroids (better than worst random draw)") {
    // every centroid pair is farther apart than the data's noise scale
    val c = Init.kmeansPlusPlus(pts, 8, 2L)
    val minPair = (for (i <- c.indices; j <- c.indices if i < j)
      yield Geometry.dist(c(i), c(j))).min
    assert(minPair > 0.0)
  }

  test("k > n pads by repetition instead of failing") {
    val tiny = TestData.mixture(5, 2, 2, 0.05, 7L)
    val c = Init.kmeansPlusPlus(tiny, 9, 1L)
    assert(c.length == 9)
  }

  test("random init returns k centroids drawn from the data") {
    val c = Init.random(pts, 12, 3L)
    assert(c.length == 12)
    val asSet = pts.map(_.toSeq).toSet
    assert(c.forall(x => asSet.contains(x.toSeq)))
  }

  /** k-means++ as one sequential pass over the points: the reference the
    * block-parallel update of `Init.kmeansPlusPlus` must reproduce exactly.
    */
  private def sequentialPlusPlus(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new scala.util.Random(seed)
    val n = points.length
    val centers = new scala.collection.mutable.ArrayBuffer[Array[Double]](k)
    centers += points(rnd.nextInt(n)).clone
    val minSq = Array.fill(n)(Double.PositiveInfinity)
    while (centers.size < math.min(k, n)) {
      val last = centers.last
      var total = 0.0
      var i = 0
      while (i < n) {
        val d = Geometry.distSq(points(i), last)
        if (d < minSq(i)) minSq(i) = d
        total += minSq(i)
        i += 1
      }
      var next =
        if (total <= 0.0) rnd.nextInt(n)
        else {
          var target = rnd.nextDouble() * total
          var idx = 0
          while (idx < n - 1 && target > minSq(idx)) { target -= minSq(idx); idx += 1 }
          idx
        }
      if (minSq(next) == 0.0) {
        var probe = 0
        while (probe < n && minSq(probe) == 0.0) probe += 1
        if (probe < n) next = probe
      }
      centers += points(next).clone
    }
    val base = centers.toArray
    if (base.length >= k) base.take(k)
    else base ++ Array.fill(k - base.length)(points(rnd.nextInt(points.length)).clone)
  }

  private def sameBits(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.zip(b).forall { case (x, y) =>
      x.map(java.lang.Double.doubleToLongBits).sameElements(y.map(java.lang.Double.doubleToLongBits))
    }

  test("kmeans++ over several blocks equals the sequential pass bit for bit") {
    val big = TestData.mixture(5000, 6, 20, 0.05, 43L)
    assert(Blocks.count(big.length) > 1)
    for (seed <- Seq(44L, 45L))
      assert(sameBits(Init.kmeansPlusPlus(big, 50, seed), sequentialPlusPlus(big, 50, seed)))
  }

  test("kmeans++ over all-duplicate points (total 0) equals the sequential pass") {
    val same = Array.fill(3000)(Array(0.25, -1.5, 3.0))
    assert(Blocks.count(same.length) > 1)
    assert(sameBits(Init.kmeansPlusPlus(same, 6, 9L), sequentialPlusPlus(same, 6, 9L)))
  }

  test("centroids are defensive copies") {
    val c = Init.kmeansPlusPlus(pts, 3, 1L)
    val before = c(0)(0)
    c(0)(0) = before + 123.0
    assert(pts.forall(p => p(0) != before + 123.0 || p(0) == before + 123.0)) // no aliasing crash
  }
}
