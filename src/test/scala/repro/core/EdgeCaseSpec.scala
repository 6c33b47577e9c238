package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.index.{BallKMeansStrategy, BallTree, KdKMeans}
import repro.unik.{UniKMode, UniKStrategy}

/** Degenerate inputs every kernel must survive: k=1, k close to n,
  * duplicate points (empty clusters), and early convergence.
  */
class EdgeCaseSpec extends AnyFunSuite {

  private val strategies: Seq[Strategy] =
    Strategies.sequential ++ Seq(Strategies.index, KdKMeans, Strategies.full,
      new UniKStrategy(UniKMode.Adaptive), new UniKStrategy(UniKMode.Single),
      new UniKStrategy(UniKMode.Multiple)) ++
      Seq(BallTree.HKT, BallTree.MTree, BallTree.Cover).map(new BallKMeansStrategy(_))

  private def sseOf(s: Strategy, pts: Array[Array[Double]], k: Int, seed: Long): FitResult = {
    val init = Init.kmeansPlusPlus(pts, k, seed)
    Runner.fitLocal(s, pts, k, init, maxIters = 10)
  }

  for (s <- strategies) {
    test(s"${s.name} handles k=1") {
      val pts = TestData.mixture(120, 3, 4, 0.05, 7L)
      val ref = sseOf(LloydKernel, pts, 1, 9L)
      val res = sseOf(s, pts, 1, 9L)
      assert(math.abs(res.sse - ref.sse) / math.max(ref.sse, 1e-12) < 1e-6)
    }

    test(s"${s.name} handles k close to n") {
      val pts = TestData.mixture(40, 2, 4, 0.05, 8L)
      val ref = sseOf(LloydKernel, pts, 35, 9L)
      val res = sseOf(s, pts, 35, 9L)
      assert(math.abs(res.sse - ref.sse) / math.max(ref.sse, 1e-9) < 1e-6)
    }

    test(s"${s.name} handles duplicate points") {
      val base = TestData.mixture(30, 2, 3, 0.05, 9L)
      val pts = Array.tabulate(90)(i => base(i % 30).clone)
      val ref = sseOf(LloydKernel, pts, 10, 9L)
      val res = sseOf(s, pts, 10, 9L)
      assert(math.abs(res.sse - ref.sse) / math.max(ref.sse, 1e-9) < 1e-6)
    }

    test(s"${s.name} merges a partition over no points") {
      val pts = TestData.mixture(120, 3, 4, 0.05, 7L)
      val init = Init.kmeansPlusPlus(pts, 5, 9L)
      val states = Seq(s.newState(Array.empty, 5, 17L), s.newState(pts, 5, 17L))
      val res = Runner.fitStates(s, states, ps => info => ps.map(_.step(info)).reduce(_ merge _),
        5, init, 10, 17L)
      val ref = Runner.fitLocal(s, pts, 5, init, maxIters = 10)
      assert(res.iterations == ref.iterations)
      // within 1e-9, not equal: adaptive UniK picks its traversal by timing
      for ((a, b) <- res.centroids.zip(ref.centroids); z <- a.indices)
        assert(math.abs(a(z) - b(z)) < 1e-9, s"${a.toSeq} vs ${b.toSeq}")
    }

    test(s"${s.name} converges early on trivially separated data") {
      val pts = (0 until 60).map { i =>
        val c = i % 3
        Array(c * 100.0 + (i % 7) * 0.001, c * 100.0)
      }.toArray
      val res = sseOf(s, pts, 3, 10L)
      assert(res.converged, "should reach a fixed point within 10 iterations")
      assert(res.iterations < 10)
    }
  }

  // Bad points fail when the state is built, naming the first bad row,
  // instead of landing silently in some cluster (or in none).
  private val badPoints: Seq[(String, Array[Array[Double]], String)] = {
    val pts = TestData.mixture(40, 3, 4, 0.05, 12L)
    Seq(
      ("NaN", pts.updated(7, Array(0.1, Double.NaN, 0.2)), "point 7 has a non-finite coordinate NaN at 1"),
      ("+Inf", pts.updated(9, Array(0.1, 0.2, Double.PositiveInfinity)), "point 9 has a non-finite coordinate Infinity at 2"),
      ("-Inf", pts.updated(3, Array(Double.NegativeInfinity, 0.1, 0.2)), "point 3 has a non-finite coordinate -Infinity at 0"),
      ("ragged", pts.updated(5, Array(0.1, 0.2)), "point 5 has 2 coordinates, expected 3"))
  }

  for ((what, pts, msg) <- badPoints) {
    test(s"every strategy rejects a $what point, naming its row") {
      val init = Init.kmeansPlusPlus(pts.take(3), 3, 13L)
      for (s <- LloydKernel +: strategies) {
        val e = intercept[IllegalArgumentException](Runner.fitLocal(s, pts, 3, init, maxIters = 3))
        assert(e.getMessage == msg, s.name)
      }
    }
  }

  test("Runner.requireInit rejects non-finite init values") {
    val pts = TestData.mixture(40, 3, 4, 0.05, 12L)
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val init = Init.kmeansPlusPlus(pts, 3, 13L).updated(2, Array(0.5, bad, 0.5))
      val e = intercept[IllegalArgumentException](Runner.fitLocal(HameKernel, pts, 3, init))
      assert(e.getMessage.contains("non-finite"))
    }
  }

  test("Partials.merge drops a side over no points") {
    def partials(n: Long, sums: Array[Array[Double]]) = {
      val m = new Metrics; m.dist = n
      new Partials(sums, Array.fill(sums.length)(n), null, n, n, m, n, 0L)
    }
    val full = partials(3L, Array(Array(1.0, 2.0), Array(3.0, 4.0)))
    val empty = partials(0L, Array(Array(0.0), Array(0.0)))
    for (merged <- Seq(empty merge full, full merge empty)) {
      assert(merged.sums.map(_.toSeq).toSeq == Seq(Seq(1.0, 2.0), Seq(3.0, 4.0)))
      assert(merged.counts.toSeq == Seq(3L, 3L) && merged.n == 3L && merged.metrics.dist == 3L)
    }
    val twice = full merge full
    assert(twice.sums.map(_.toSeq).toSeq == Seq(Seq(2.0, 4.0), Seq(6.0, 8.0)) && twice.n == 6L)
  }
}
