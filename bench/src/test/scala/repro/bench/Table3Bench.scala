package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Table 3: bound and data accesses on BigCross with k = 100 — Lloyd vs
  * SEQU (Yinyang) vs INDE (Ball-tree) vs UniK. The paper labels the table
  * "first iteration"; its counter magnitudes (e.g. 1.5B bound accesses for
  * SEQU ≈ 13·n·k) are only reachable cumulatively, so we report both the
  * first-iteration and the 10-iteration cumulative breakdown.
  * Paper row (Cross, k=100): time 96/33.1/55.3/16.3 s, pruned 0/84/45/91%,
  * bound 0/1.5B/0/0.9B, point 100M/30M/15.8M/9.8M, node 0/0/931k/108k.
  */
class Table3Bench extends AnyFunSuite {

  test("Table 3: access breakdown on BigCross, k=100") {
    BenchEnv.warm()
    val name = "BigCross"
    val k = 100
    val pts = BenchEnv.points(name)
    val init = BenchEnv.init(name, k, 17L)

    val rows = Seq[(String, Strategy)](
      ("Lloyd", LloydKernel), ("SEQU", Strategies.sequ),
      ("INDE", Strategies.index), ("UniK", Strategies.unik)).map {
      case (label, s) => (label, Runner.fitLocal(s, pts, k, init, maxIters = 10))
    }

    def section(title: String, pick: FitResult => Metrics,
                pruned: FitResult => Double, time: FitResult => Double): String =
      s"### $title\n\n" + BenchEnv.markdownTable(
        Seq("Criteria") ++ rows.map(_._1),
        Seq(
          Seq("Time (s)") ++ rows.map(r => BenchEnv.fmt(time(r._2))),
          Seq("Pruned") ++ rows.map(r => BenchEnv.pct(pruned(r._2))),
          Seq("Bound") ++ rows.map(r => pick(r._2).boundAccess.toString),
          Seq("Point") ++ rows.map(r => pick(r._2).pointAccess.toString),
          Seq("Node") ++ rows.map(r => pick(r._2).nodeAccess.toString)))

    val md = "## Table 3 — bound and data accesses " +
      s"(BigCross analog, n=${pts.length}, k=$k)\n\n" +
      section("First iteration", _.metricsIter1, _.prunedRatioIter1,
        r => (r.assignNanos.head + r.refineNanos.head) / 1e9) + "\n" +
      section("Cumulative over 10 iterations", _.metrics, _.prunedRatio,
        _.totalSeconds) +
      "\nPaper (Cross, k=100): time 96.0/33.1/55.3/16.3 · pruned 0/84%/45%/91% · " +
      "bound 0/1.5B/0/0.9B · point 100M/30M/15.8M/9.8M · node 0/0/931k/108k\n"
    BenchEnv.emit("table3.md", md)

    val byLabel = rows.toMap
    // Shape assertions mirroring the paper's claims (cumulative metrics):
    // Lloyd: zero pruning, n·k distances per iteration, no bounds/nodes.
    val lloyd = byLabel("Lloyd")
    assert(lloyd.metrics.dist == pts.length.toLong * k * lloyd.iterations)
    assert(lloyd.metrics.boundAccess == 0 && lloyd.metrics.nodeAccess == 0)
    // SEQU prunes most distances but pays in bound traffic.
    val sequ = byLabel("SEQU")
    assert(sequ.prunedRatio > 0.5)
    assert(sequ.metrics.boundAccess > 0)
    // INDE reads far fewer points than Lloyd and touches nodes instead.
    val inde = byLabel("INDE")
    assert(inde.metrics.pointAccess < lloyd.metrics.pointAccess)
    assert(inde.metrics.nodeAccess > 0)
    // UniK: highest pruning, fewest point reads, fewer bound accesses than SEQU.
    val unik = byLabel("UniK")
    assert(unik.prunedRatio >= sequ.prunedRatio * 0.9)
    assert(unik.metrics.pointAccess < sequ.metrics.pointAccess)
    assert(unik.metrics.boundAccess < sequ.metrics.boundAccess)
  }
}
