package repro.core

import scala.util.Random

/** Centroid initialization. k-means++ [Arthur & Vassilvitskii, SODA'07] is
  * the paper's default (Section 7.1); `random` is kept for the Figure-16
  * style sensitivity check. Init distance computations are NOT counted in
  * kernel metrics — all compared methods share the same init.
  *
  * k-means++ updates each point's distance to the nearest chosen centre in
  * parallel `Blocks`; the total, the sampling walk and the duplicate probe
  * run in point order on the calling thread, so the chosen centres do not
  * depend on the number of blocks.
  */
object Init {

  def random(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    val n = points.length
    val picked = new scala.collection.mutable.LinkedHashSet[Int]
    while (picked.size < math.min(k, n)) picked += rnd.nextInt(n)
    val base = picked.toArray.map(i => points(i).clone)
    pad(base, points, k, rnd)
  }

  def kmeansPlusPlus(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    val rnd = new Random(seed)
    val n = points.length
    if (n == 0) return Array.empty
    val centers = new scala.collection.mutable.ArrayBuffer[Array[Double]](k)
    centers += points(rnd.nextInt(n)).clone
    val minSq = Array.fill(n)(Double.PositiveInfinity)
    while (centers.size < math.min(k, n)) {
      val last = centers.last
      Blocks.foreach(n) { (from, until) =>
        // Four points against the new centre per pass: distSq4 with the
        // roles swapped gives the bits of distSq(points(i), last).
        val d4 = new Array[Double](4)
        var i = from
        while (i + 4 <= until) {
          Geometry.distSq4(last, points(i), points(i + 1), points(i + 2), points(i + 3), d4, 0)
          var q = 0
          while (q < 4) { if (d4(q) < minSq(i + q)) minSq(i + q) = d4(q); q += 1 }
          i += 4
        }
        while (i < until) {
          val d = Geometry.distSq(points(i), last)
          if (d < minSq(i)) minSq(i) = d
          i += 1
        }
      }
      var total = 0.0
      var i = 0
      while (i < n) { total += minSq(i); i += 1 }
      var next =
        if (total <= 0.0) rnd.nextInt(n)
        else {
          var target = rnd.nextDouble() * total
          var idx = 0
          while (idx < n - 1 && target > minSq(idx)) { target -= minSq(idx); idx += 1 }
          idx
        }
      // Avoid exact duplicates of an existing center when possible.
      if (minSq(next) == 0.0) {
        var probe = 0
        while (probe < n && minSq(probe) == 0.0) probe += 1
        if (probe < n) next = probe
      }
      centers += points(next).clone
    }
    pad(centers.toArray, points, k, rnd)
  }

  /** If k > n (degenerate test cases) pad by repeating points. */
  private def pad(base: Array[Array[Double]], points: Array[Array[Double]], k: Int,
                  rnd: Random): Array[Array[Double]] = {
    if (base.length >= k) base.take(k)
    else base ++ Array.fill(k - base.length)(points(rnd.nextInt(points.length)).clone)
  }
}
