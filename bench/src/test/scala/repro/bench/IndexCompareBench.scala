package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.index.{BallKMeansStrategy, BallTree, KdKMeans, KdTree}

/** Section 7.2.1 (Figure 7): construction + clustering comparison of the
  * five index structures (kd-tree, HKT, Ball-tree, M-tree-lite,
  * Cover-tree-lite) on the BigCross analog — the experiment behind the
  * paper's "Ball-tree is our choice" and behind Table 2's index columns.
  */
class IndexCompareBench extends AnyFunSuite {

  test("Index comparison: construction and clustering across structures") {
    BenchEnv.warm()
    val pts = BenchEnv.points("BigCross")
    val k = 100
    val init = BenchEnv.init("BigCross", k, 17L)

    val ballKinds = Seq(BallTree.Ball, BallTree.HKT, BallTree.MTree, BallTree.Cover)
    val rows = ballKinds.map { kind =>
      val tree = BallTree.build(pts, kind = kind)
      val res = Runner.fitLocal(new BallKMeansStrategy(kind), pts, k, init, maxIters = 5)
      Seq(kind.label, BenchEnv.fmt(tree.buildNanos / 1e9), tree.nodeCount.toString,
        BenchEnv.fmt(res.totalSeconds), BenchEnv.pct(res.prunedRatio))
    } :+ {
      val tree = KdTree.build(pts)
      val res = Runner.fitLocal(KdKMeans, pts, k, init, maxIters = 5)
      Seq("kd-tree", BenchEnv.fmt(tree.buildNanos / 1e9), tree.nodeCount.toString,
        BenchEnv.fmt(res.totalSeconds), BenchEnv.pct(res.prunedRatio))
    }

    val md = s"## Figure 7 (index comparison) — BigCross analog, n=${pts.length}, k=$k\n\n" +
      BenchEnv.markdownTable(
        Seq("Index", "Build (s)", "#Nodes", "Cluster 5 iters (s)", "Pruned"), rows) +
      "\nPaper: Ball-tree fastest clustering, 2nd-fastest build; kd-tree cheapest " +
      "build but ~capacity× more nodes and degrades with d.\n"
    BenchEnv.emit("index_compare.md", md)

    // kd-tree has far more nodes than any capacity-30 ball variant
    val kdNodes = KdTree.build(pts).nodeCount
    val ballNodes = BallTree.build(pts).nodeCount
    assert(kdNodes > ballNodes * 3)

    // every index variant clusters exactly (same SSE as Lloyd)
    val ref = Runner.fitLocal(LloydKernel, pts, k, init, maxIters = 5)
    (ballKinds.map(kk => Runner.fitLocal(new BallKMeansStrategy(kk), pts, k, init, maxIters = 5)) :+
      Runner.fitLocal(KdKMeans, pts, k, init, maxIters = 5)).foreach { res =>
      assert(math.abs(res.sse - ref.sse) / ref.sse < 1e-6)
    }
  }
}
