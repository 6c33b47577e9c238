package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The driver-side shared structures every kernel's correctness rests on. */
class CentroidInfoSpec extends AnyFunSuite {

  private val cs = TestData.mixture(40, 3, 8, 0.05, 101L)
  private val prev = cs.map(_.map(_ - 0.01))

  private def info(req: Req, p: Array[Array[Double]] = prev,
                   radii: Array[Double] = null): CentroidInfo = {
    val gi = if (req.normalized.groups) new Grouper(1L).update(cs, 1, regroup = false) else null
    CentroidInfo.compute(2, cs, p, req, gi, radii)
  }

  test("cc matrix is symmetric with zero diagonal; sc is half the min-other") {
    val i = info(Req(cc = true))
    for (a <- cs.indices; b <- cs.indices) {
      assert(math.abs(i.cc(a)(b) - i.cc(b)(a)) < 1e-12)
      if (a == b) assert(i.cc(a)(b) == 0.0)
    }
    cs.indices.foreach { a =>
      val minOther = cs.indices.filter(_ != a).map(i.cc(a)).min
      assert(math.abs(i.sc(a) - 0.5 * minOther) < 1e-12)
      assert(math.abs(i.nearestOther(a) - minOther) < 1e-12)
    }
  }

  test("drifts are exact distances to the previous centroids; top-2 tracked") {
    val i = info(Req())
    cs.indices.foreach(j => assert(math.abs(i.drifts(j) - Geometry.dist(cs(j), prev(j))) < 1e-12))
    assert(i.maxDrift == i.drifts.max)
    val second = i.drifts.sorted.reverse(1)
    assert(math.abs(i.maxDrift2 - second) < 1e-12)
    cs.indices.foreach { j =>
      val expect = cs.indices.filter(_ != j).map(i.drifts).max
      assert(math.abs(i.maxDriftOther(j) - expect) < 1e-12)
    }
  }

  test("iteration 1 has zero drifts") {
    val i = CentroidInfo.compute(1, cs, null, Req(cc = true), null, null)
    assert(i.drifts.forall(_ == 0.0))
    assert(i.maxDrift == 0.0)
  }

  // Annuli leave each rank shell [2^s, 2^(s+1)) unsorted inside, so the list is
  // sorted by centroid distance once every shell is sorted on its own.
  test("neighbors lists start with self and are sorted by centroid distance") {
    val i = info(Req(neighbors = true))
    cs.indices.foreach { a =>
      val nb = i.neighbors(a)
      assert(nb(0) == a)
      assert(nb.sorted.toSeq == cs.indices)
      val ds = nb.map(i.cc(a))
      val bySh = (ds.take(1) +: Iterator.iterate(1)(_ * 2).takeWhile(_ < ds.length)
        .map(lo => ds.slice(lo, 2 * lo).sorted).toSeq).flatten
      assert(bySh == ds.sorted.toSeq)
    }
  }

  // Exponion's annuli: a permutation of all centroids with self first and the
  // others in rank shells [2^s, 2^(s+1)), each no closer than the ones before.
  // Every third centroid duplicates its predecessor, so cc = 0 ties occur.
  for (k <- Seq(1, 2, 3, 4, 5, 64, 65, 1000)) {
    test(s"neighbors are Exponion annuli: self first, then ordered rank-doubling shells (k=$k)") {
      val base = TestData.mixture(k, 3, 6, 0.05, 200L + k)
      val cents = Array.tabulate(k)(j => if (j % 3 == 1) base(j - 1).clone else base(j))
      val i = CentroidInfo.compute(1, cents, null, Req(neighbors = true), null, null)
      for (a <- 0 until k) {
        val nb = i.neighbors(a)
        assert(nb.sorted.toSeq == (0 until k), s"row $a is not a permutation")
        assert(nb(0) == a, s"row $a does not start with itself")
        var lo = 1
        while (2 * lo < k) {
          val shell = (lo until 2 * lo).map(z => i.cc(a)(nb(z)))
          val next = (2 * lo until math.min(4 * lo, k)).map(z => i.cc(a)(nb(z)))
          assert(shell.max <= next.min, s"row $a: shell at $lo reaches past the next one")
          lo *= 2
        }
      }
    }
  }

  test("parallel cc rows and nearestOther are bit-identical to a sequential triangle") {
    val cents = TestData.mixture(300, 57, 20, 0.05, 303L)
    val k = cents.length
    val cc = Array.ofDim[Double](k, k)
    val no = Array.fill(k)(Double.PositiveInfinity)
    for (a <- 0 until k; b <- a + 1 until k) {
      val d = Geometry.dist(cents(a), cents(b))
      cc(a)(b) = d; cc(b)(a) = d
      no(a) = math.min(no(a), d); no(b) = math.min(no(b), d)
    }
    val i = CentroidInfo.compute(1, cents, null, Req(cc = true), null, null)
    for (a <- 0 until k) {
      assert(i.nearestOther(a) == no(a), s"nearestOther($a)")
      for (b <- 0 until k) assert(i.cc(a)(b) == cc(a)(b), s"cc($a)($b)")
    }
  }

  test("index sort orders (key, index) pairs like a stable sort by key") {
    val rnd = new scala.util.Random(5L)
    for (n <- 0 to 70) {
      val keys = Array.fill(n)(rnd.nextInt(8).toDouble) // many ties
      val idx = IndexSort.iota(n)
      val sorted = keys.clone()
      IndexSort.sort(sorted, idx, 0, n - 1)
      assert(idx.toSeq == (0 until n).sortBy(keys(_)), s"n=$n")
      assert(sorted.toSeq == idx.toSeq.map(keys(_)), s"n=$n")
    }
  }

  test("sorted norms are consistent with the norm array") {
    val i = info(Req(sortedNorms = true))
    assert(i.sortedNormVal.toSeq == i.sortedNormVal.sorted.toSeq)
    i.sortedNormIdx.zip(i.sortedNormVal).foreach { case (j, v) =>
      assert(math.abs(i.norms(j) - v) < 1e-12)
    }
  }

  test("Pami20 candidate sets always contain the own cluster and respect Eq. 4") {
    val radii = Array.fill(cs.length)(0.05)
    val i = info(Req(candidates = true), radii = radii)
    cs.indices.foreach { a =>
      assert(i.candidates(a).contains(a))
      cs.indices.filter(_ != a).foreach { b =>
        val in = i.candidates(a).contains(b)
        // radius padding makes the threshold >= the raw Eq. 4 one
        if (i.cc(a)(b) * 0.5 <= 0.05) assert(in)
      }
    }
  }

  test("infinite radii (first refinement) keep every candidate") {
    val i = info(Req(candidates = true), radii = null)
    cs.indices.foreach(a => assert(i.candidates(a).length == cs.length))
  }

  test("block norms recompose the full norm") {
    val i = info(Req(blocks = true))
    cs.indices.foreach { j =>
      val n = math.sqrt(i.blockB1(j) * i.blockB1(j) + i.blockB2(j) * i.blockB2(j))
      assert(math.abs(n - i.norms(j)) < 1e-9)
    }
  }

  test("Req.normalized closes over implied requirements") {
    assert(Req(candidates = true).normalized.cc)
    assert(Req(candidates = true).normalized.radii)
    assert(Req(regroup = true).normalized.groups)
    assert(Req(blocks = true).normalized.norms)
    assert(Req(sortedNorms = true).normalized.norms)
  }
}
