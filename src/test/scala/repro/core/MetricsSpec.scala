package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The counter semantics behind Table 3 / Figures 10–11. */
class MetricsSpec extends AnyFunSuite {

  private val pts = TestData.mixture(600, 6, 12, 0.03, 21L)
  private val k = 30
  private val init = Init.kmeansPlusPlus(pts, k, 22L)

  test("Lloyd computes exactly n·k distances per iteration") {
    val res = Runner.fitLocal(LloydKernel, pts, k, init, maxIters = 5)
    assert(res.metrics.dist == pts.length.toLong * k * res.iterations)
    assert(res.prunedRatio == 0.0)
  }

  test("Lloyd refinement rescans all points (n accesses beyond assignment)") {
    val res = Runner.fitLocal(LloydKernel, pts, k, init, maxIters = 5)
    // assignment reads one point per distance; refinement adds n per iteration
    assert(res.metrics.pointAccess ==
      res.metrics.dist + pts.length.toLong * res.iterations)
  }

  for (s <- Strategies.sequential) {
    test(s"${s.name} computes fewer distances than Lloyd") {
      val res = Runner.fitLocal(s, pts, k, init, maxIters = 5)
      val full = pts.length.toLong * k * res.iterations
      assert(res.metrics.dist < full, s"dist=${res.metrics.dist} full=$full")
      assert(res.prunedRatio > 0.0)
    }
  }

  test("index method prunes point accesses, not just distances") {
    val res = Runner.fitLocal(Strategies.index, pts, k, init, maxIters = 5)
    val lloyd = Runner.fitLocal(LloydKernel, pts, k, init, maxIters = 5)
    assert(res.metrics.pointAccess < lloyd.metrics.pointAccess / 2,
      s"index pointAccess ${res.metrics.pointAccess} vs lloyd ${lloyd.metrics.pointAccess}")
    assert(res.metrics.nodeAccess > 0)
  }

  test("UniK reads fewer point vectors than Yinyang (batch pruning, Table 3)") {
    val res = Runner.fitLocal(Strategies.unik, pts, k, init, maxIters = 5)
    val yy = Runner.fitLocal(YinyangKernel, pts, k, init, maxIters = 5)
    assert(res.metrics.pointAccess < yy.metrics.pointAccess,
      s"UniK ${res.metrics.pointAccess} vs Yinyang ${yy.metrics.pointAccess}")
  }

  test("Elka stores/updates O(n·k) bounds — the space/update overhead the paper flags") {
    val res = Runner.fitLocal(ElkaKernel, pts, k, init, maxIters = 5)
    assert(res.metrics.boundUpdate >= pts.length.toLong * k, "per-pair updates expected")
  }

  test("metricsIter1 captures exactly the first iteration") {
    val res = Runner.fitLocal(YinyangKernel, pts, k, init, maxIters = 5)
    assert(res.metricsIter1.dist <= res.metrics.dist)
    assert(res.metricsIter1.dist == pts.length.toLong * k) // Yinyang's first iter is a full scan
  }

  test("Metrics add/snapshot are consistent") {
    val a = new Metrics
    a.dist = 10; a.pointAccess = 5
    val b = a.snapshot()
    b.add(a)
    assert(b.dist == 20 && b.pointAccess == 10)
    assert(a.toString.contains("dist=10"))
  }
}
