package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.index.{BallKMeansStrategy, BallTree, KdKMeans}
import repro.unik.{UniKMode, UniKStrategy}

/** The paper's central invariant: every accelerated method is an EXACT
  * drop-in for Lloyd's algorithm. For every kernel × workload we check
  * (a) the iteration-1 assignment matches Lloyd's exactly and (b) the
  * 10-iteration SSE and centroids agree within floating-point tolerance
  * (refinement summation order differs between full-rescan and the
  * incremental sum-vector path).
  */
class ExactnessSpec extends AnyFunSuite {

  private case class Config(n: Int, d: Int, g: Int, sd: Double, k: Int, seed: Long)

  private val configs = Seq(
    Config(300, 2, 10, 0.03, 8, 1L),
    Config(500, 5, 12, 0.05, 20, 2L),
    Config(400, 16, 8, 0.08, 25, 3L),
    Config(250, 3, 5, 0.20, 3, 4L),   // diffuse, barely clustered
    Config(300, 8, 15, 0.02, 50, 5L), // k comparable to cluster count
    Config(200, 1, 6, 0.04, 7, 6L)    // 1-dimensional
  )

  private val strategies: Seq[Strategy] =
    Strategies.sequential ++ Seq(
      Strategies.index, KdKMeans, Strategies.full,
      new UniKStrategy(UniKMode.Adaptive), new UniKStrategy(UniKMode.Single),
      new UniKStrategy(UniKMode.Multiple)) ++
      Seq(BallTree.HKT, BallTree.MTree, BallTree.Cover).map(new BallKMeansStrategy(_))

  private def lloydRef(pts: Array[Array[Double]], k: Int,
                       init: Array[Array[Double]], iters: Int) = {
    val state = LloydKernel.newState(pts, k, 0L)
    val res = Runner.fitStates(LloydKernel, Seq(state), ps => ps.head.step(_: CentroidInfo),
      k, init, iters, 0L)
    (res, state.assignments)
  }

  for (cfg <- configs) {
    val pts = TestData.mixture(cfg.n, cfg.d, cfg.g, cfg.sd, cfg.seed)
    val init = Init.kmeansPlusPlus(pts, cfg.k, cfg.seed + 100)
    lazy val (ref10, _) = lloydRef(pts, cfg.k, init, 10)
    lazy val (_, refAssign1) = lloydRef(pts, cfg.k, init, 1)

    for (s <- strategies) {
      test(s"${s.name} matches Lloyd after 1 iteration on n=${cfg.n} d=${cfg.d} k=${cfg.k}") {
        val state = s.newState(pts, cfg.k, 0L)
        Runner.fitStates(s, Seq(state), ps => ps.head.step(_: CentroidInfo),
          cfg.k, init, 1, 0L)
        assert(state.assignments.toSeq == refAssign1.toSeq,
          s"iteration-1 assignment diverges from Lloyd")
      }

      test(s"${s.name} matches Lloyd SSE after 10 iterations on n=${cfg.n} d=${cfg.d} k=${cfg.k}") {
        val res = Runner.fitLocal(s, pts, cfg.k, init, maxIters = 10)
        val rel = math.abs(res.sse - ref10.sse) / math.max(ref10.sse, 1e-12)
        assert(rel < 1e-6, s"SSE ${res.sse} vs Lloyd ${ref10.sse} (rel $rel)")
        assert(res.iterations == ref10.iterations,
          s"iterations ${res.iterations} vs Lloyd ${ref10.iterations}")
      }
    }
  }

  // Exponion walks each centroid's annuli (rank-doubling shells). Duplicate
  // centroids tie at cc = 0, so the walk must still start from the assigned
  // centroid itself.
  for (k <- Seq(1, 2, 65)) {
    test(s"Expo matches Lloyd's assignments every iteration with duplicate centroids at k=$k") {
      val pts = TestData.mixture(400, 4, 10, 0.05, 11L)
      val base = Init.kmeansPlusPlus(pts, (k + 1) / 2, 12L)
      val init = Array.tabulate(k)(j => base(j % base.length).clone)
      for (iters <- 1 to 8) {
        val (_, ref) = lloydRef(pts, k, init, iters)
        val state = ExpoKernel.newState(pts, k, 0L)
        Runner.fitStates(ExpoKernel, Seq(state), ps => ps.head.step(_: CentroidInfo),
          k, init, iters, 0L)
        assert(state.assignments.toSeq == ref.toSeq, s"assignments diverge after $iters iterations")
      }
    }
  }

  test("Expo's cumulative distance and bound-access counts are pinned") {
    val pts = TestData.mixture(2000, 8, 30, 0.05, 21L)
    val init = Init.kmeansPlusPlus(pts, 100, 22L)
    val res = Runner.fitLocal(ExpoKernel, pts, 100, init, maxIters = 15)
    // Pinned from a walk over fully sorted neighbour lists: the annuli walk
    // must compute exactly the same distances.
    assert(res.iterations == 14)
    assert(res.metrics.dist == 247812L)
    assert(res.metrics.boundAccess == 52000L)
  }

  // Every deterministic strategy's cumulative counters on one fixture: a
  // refactor must keep each one bit-identical. INDE and UniK's root
  // passes run the same candidate-filtering traversal; UniK seeds its bounds
  // on its first step only. Adaptive UniK is left out: it picks its
  // traversal by timing.
  private val pins: Seq[(Strategy, Int, Long, Long, Long, Long, Long)] = {
    def by(name: String) = Strategies(name)
    def kind(k: BallTree.Kind) = new BallKMeansStrategy(k)
    Seq(
      //                    iters  dist      point     node    bound     boundUpd
      (by("Lloyd"),         14, 2800000L, 2828000L,     0L,       0L,       0L),
      (by("Elka"),          14,   48616L,   51109L,     0L, 2573711L, 2824000L),
      (by("Drift"),         14,   48616L,   51109L,     0L, 2573711L, 2824000L),
      (by("Hame"),          14, 1575458L, 1577951L,     0L,   52000L,   83212L),
      (by("Drak"),          14,  318300L,  320793L,     0L,  702000L,  756493L),
      (by("Yinyang"),       14,  315037L,  317530L,     0L,  345770L,  314595L),
      (by("Regroup"),       14,  320118L,  322611L,     0L,  611100L,  575065L),
      (by("Heap"),          14, 1632500L, 1634993L,     0L,   15625L,   16325L),
      (by("Annu"),          14,  748507L,  751000L,     0L,   52000L,   83212L),
      (by("Expo"),          14,  247812L,  250305L,     0L,   52000L,   83212L),
      (by("Vector"),        14,  829412L,  831905L,     0L, 1612600L,   83212L),
      (by("Pami20"),        14,  292026L,  294519L,     0L,       0L,       0L),
      (by("Search"),        14, 2936393L, 2748593L, 62332L,       0L,       0L),
      (by("Full"),          14,   48419L,   50912L,     0L,  786047L, 3431717L),
      (by("KdTree"),        14,  496714L,   69085L, 46902L,       0L,       0L),
      (Strategies.index,    14,  692312L,  497558L,  3318L,       0L,       0L),
      (kind(BallTree.HKT),  14,  254202L,  124960L,  3010L,       0L,       0L),
      (kind(BallTree.MTree), 14, 1066634L, 836540L,  3178L,       0L,       0L),
      (kind(BallTree.Cover), 14, 2920893L, 2696017L, 2310L,       0L,       0L),
      (Strategies.unikMultiple, 14, 692312L, 497558L, 3318L,      0L,   20000L),
      (Strategies.unikSingle, 14, 168046L,  154260L,   265L,  373180L,  323574L))
  }

  for ((s, iters, dist, point, node, bound, boundUpd) <- pins) {
    test(s"${s.name}'s cumulative counters are pinned") {
      val pts = TestData.mixture(2000, 8, 30, 0.05, 21L)
      val init = Init.kmeansPlusPlus(pts, 100, 22L)
      val res = Runner.fitLocal(s, pts, 100, init, maxIters = 15)
      assert(res.iterations == iters && res.converged)
      val m = res.metrics
      assert((m.dist, m.pointAccess, m.nodeAccess, m.boundAccess, m.boundUpdate) ==
        ((dist, point, node, bound, boundUpd)))
    }
  }

  test("the counter pins cover every deterministic strategy and Ball-tree kind") {
    val pinned = pins.map(_._1.name).toSet
    assert(pinned == Strategies.byName.keySet - "UniK" ++
      Seq("Index-HKT", "Index-M-tree", "Index-Cover-tree"))
  }
}
