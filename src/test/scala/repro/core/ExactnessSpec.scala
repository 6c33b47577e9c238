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

  // Duplicate centroids tie at every distance and at cc = 0, so each scan
  // must break the tie as Lloyd does (Exponion, for one, must still start
  // its annuli walk from the assigned centroid itself).
  private val dupStrategies: Seq[Strategy] = Seq(
    "Expo", "Yinyang", "Regroup", "Full", "UniK-single", "UniK-multiple", "Lloyd", "Hame",
    "Annu", "Vector", "Heap", "Pami20", "Search", "Elka", "Drift", "Drak").map(Strategies(_))

  for (s <- dupStrategies; k <- Seq(1, 2, 65)) {
    test(s"${s.name} matches Lloyd's assignments every iteration with duplicate centroids at k=$k") {
      val pts = TestData.mixture(400, 4, 10, 0.05, 11L)
      val base = Init.kmeansPlusPlus(pts, (k + 1) / 2, 12L)
      val init = Array.tabulate(k)(j => base(j % base.length).clone)
      for (iters <- 1 to 8) {
        val (_, ref) = lloydRef(pts, k, init, iters)
        val state = s.newState(pts, k, 0L)
        Runner.fitStates(s, Seq(state), ps => ps.head.step(_: CentroidInfo),
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

  // Elkan's bound loop reads a bound for every j != a, with `a` the centroid
  // current when j is tested. Point 0 (x = 0) sits at centroid 2 and first
  // wins centroid 0, below its old one, so its loop reads k bounds, not k − 1.
  // Hand-counted, one increment per element:
  //  - seed (centroids 10, 5, 1): k − 1 = 2 lb writes per point; distances
  //    3 + 2 + 1;
  //  - step 2 (centroids −0.5, 5, 3): the sc test per point, then reads
  //    3 (point 0), 0 (point 1 stops at sc) and 2 (point 2 moves up from 0 to
  //    1) = 8; k + 1 = 4 writes per point; distances 2 + 0 + 2.
  test("Elka counts a bound read for centroid a's old index after moving below it") {
    val pts = Array(Array(0.0), Array(4.8), Array(9.0))
    val c1 = Array(Array(10.0), Array(5.0), Array(1.0))
    val c2 = Array(Array(-0.5), Array(5.0), Array(3.0))
    val state = ElkaKernel.newState(pts, 3, 0L)
    val seeded = state.step(CentroidInfo.compute(1, c1, null, null, null)).metrics
    assert(state.assignments.toSeq == Seq(2, 1, 0))
    assert((seeded.dist, seeded.boundAccess, seeded.boundUpdate) == ((6L, 0L, 6L)))
    val m = state.step(CentroidInfo.compute(2, c2, c1, null, null)).metrics
    assert(state.assignments.toSeq == Seq(0, 1, 1))
    assert((m.dist, m.boundAccess, m.boundUpdate) == ((10L, 8L, 18L)))
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

  /** The assignments after each step of a fit of at most `iters` iterations. */
  private def assignmentsPerStep(s: Strategy, pts: Array[Array[Double]], k: Int,
                                 init: Array[Array[Double]], iters: Int): Seq[Seq[Int]] = {
    val seen = Seq.newBuilder[Seq[Int]]
    Runner.fitStates(s, Seq(s.newState(pts, k, 0L)), ps => { (info: CentroidInfo) =>
      val p = ps.head.step(info); seen += ps.head.assignments.toSeq; p
    }, k, init, iters, 0L)
    seen.result()
  }

  // Integer points and lattice centroids put many points at exactly the same
  // distance from two centroids. Every deterministic strategy must break each
  // such tie as Lloyd does, towards the lower index, after every iteration.
  test("every deterministic strategy breaks lattice ties as Lloyd does, every iteration") {
    val diverged = for {
      //                          d, side, k
      ((d, side, k), c) <- Seq((1, 20, 40), (2, 10, 20), (3, 6, 20), (4, 8, 30), (5, 6, 30))
                             .zipWithIndex
      rnd = new scala.util.Random(70L + c)
      pts = Array.fill(600, d)(rnd.nextInt(side).toDouble)
      init = Array.fill(k, d)(rnd.nextInt(side).toDouble)
      ref = assignmentsPerStep(LloydKernel, pts, k, init, 12)
      s <- pins.map(_._1) if s != LloydKernel
      if assignmentsPerStep(s, pts, k, init, 12) != ref
    } yield s"${s.name} on d=$d side=$side k=$k"
    assert(diverged.isEmpty, diverged.mkString("diverge from Lloyd: ", ", ", ""))
  }

  // A fixture of several `Blocks`: sequential states assign it in parallel
  // point ranges and INDE forks its subtrees. Every counter and the bits of
  // every final centroid must be those of a single-threaded run.
  private lazy val blockPts = TestData.mixture(6000, 8, 40, 0.05, 41L)
  private lazy val blockInit = Init.kmeansPlusPlus(blockPts, 60, 42L)

  /** Order-sensitive hash of the bit patterns of all centroid coordinates. */
  private def bitsHash(cs: Array[Array[Double]]): Long =
    cs.flatten.foldLeft(17L)((h, v) => h * 1000003L ^ java.lang.Double.doubleToLongBits(v))

  private val blockPins: Seq[(Strategy, Int, Long, Long, Long, Long, Long, Long)] = {
    def by(name: String) = Strategies(name)
    def kind(k: BallTree.Kind) = new BallKMeansStrategy(k)
    Seq(
      //                    iters  dist      point     node    bound     boundUpd  centroid bits
      (by("Lloyd"),         19, 6840000L, 6954000L,      0L,       0L,       0L, 0x58ee40433497ce50L),
      (by("Elka"),          19,  136925L,  143605L,      0L, 3435055L, 6942000L, 0xa1dab9858bec6ebbL),
      (by("Drift"),         19,  136925L,  143605L,      0L, 3435055L, 6942000L, 0xa1dab9858bec6ebbL),
      (by("Hame"),          19, 1441809L, 1448489L,      0L,  216000L,  263274L, 0xa1dab9858bec6ebbL),
      (by("Drak"),          19,  473939L,  480619L,      0L, 1836000L, 1938680L, 0xa1dab9858bec6ebbL),
      (by("Yinyang"),       19,  502520L,  509200L,      0L,  721002L,  804194L, 0xa1dab9858bec6ebbL),
      (by("Regroup"),       19,  510662L,  517342L,      0L, 1394454L, 1453786L, 0xa1dab9858bec6ebbL),
      (by("Heap"),          19, 1703400L, 1710080L,      0L,   23470L,   28390L, 0xf9af70caefbf734fL),
      (by("Annu"),          19,  725603L,  732283L,      0L,  216000L,  263274L, 0xa1dab9858bec6ebbL),
      (by("Expo"),          19,  416934L,  423614L,      0L,  216000L,  263274L, 0xa1dab9858bec6ebbL),
      (by("Vector"),        19,  911575L,  918255L,      0L, 1634220L,  263274L, 0xa1dab9858bec6ebbL),
      (by("Pami20"),        19,  703285L,  709965L,      0L,       0L,       0L, 0xa1dab9858bec6ebbL),
      (by("Search"),        19, 2985850L, 2716220L, 103518L,       0L,       0L, 0x69d8c1cc357b0923L),
      (by("Full"),          19,  137029L,  143709L,      0L, 1624746L, 8141612L, 0xa1dab9858bec6ebbL),
      (by("KdTree"),        19,  799312L,  113118L,  86295L,       0L,       0L, 0x0a5fd27537c09d8eL),
      (Strategies.index,    19,  743931L,  474631L,   8321L,       0L,       0L, 0x7d550e6b40cce951L),
      (kind(BallTree.HKT),  19,  678255L,  451625L,   7251L,       0L,       0L, 0xe81c7039c86081d5L),
      (kind(BallTree.MTree), 19, 1846595L, 1417547L, 10237L,       0L,       0L, 0x5f7f31dd7f80bc7aL),
      (kind(BallTree.Cover), 19, 7320819L, 6617405L, 11941L,       0L,       0L, 0xc863edbad48e901dL),
      (Strategies.unikMultiple, 19, 743931L, 474631L, 8321L,       0L,   18576L, 0x7d550e6b40cce951L),
      (Strategies.unikSingle, 19,  196612L,  179730L,    709L,  478211L,  447071L, 0x9f47b0c5ba8363a0L))
  }

  test("the block fixture spans at least 4 blocks") {
    assert(Blocks.count(blockPts.length) >= 4)
  }

  // Each pin must hold on one thread (`fitLocal`) and on the common pool
  // (`fitStates`, where blocks and subtrees run concurrently).
  for ((s, iters, dist, point, node, bound, boundUpd, bits) <- blockPins) {
    test(s"${s.name}'s counters and centroid bits are pinned on ${blockPts.length} points") {
      val pooled = Runner.fitStates(s, Seq(s.newState(blockPts, 60, 17L)),
        ps => ps.head.step(_: CentroidInfo), 60, blockInit, 20, 17L)
      for (res <- Seq(Runner.fitLocal(s, blockPts, 60, blockInit, maxIters = 20), pooled)) {
        assert(res.iterations == iters && res.converged)
        val m = res.metrics
        assert((m.dist, m.pointAccess, m.nodeAccess, m.boundAccess, m.boundUpdate) ==
          ((dist, point, node, bound, boundUpd)))
        assert(bitsHash(res.centroids) == bits, f"centroid bits hash 0x${bitsHash(res.centroids)}%016x")
      }
    }
  }

  // Every step's `Partials` must agree with the assignments it leaves, on one
  // thread and on the pool: counts are their histogram and sum to n, `moved`
  // is the number of points whose cluster changed, and INDE and KdTree, which
  // add points and nodes as they assign them, report no refinement time.
  for (s <- Strategies.byName.values.toSeq.sortBy(_.name) ++
         Seq(BallTree.HKT, BallTree.MTree, BallTree.Cover).map(new BallKMeansStrategy(_))) {
    test(s"${s.name}'s partials match its assignments at every step, on one thread and the pool") {
      val noRefine = s.isInstanceOf[BallKMeansStrategy] || s == KdKMeans
      for (pooled <- Seq(false, true)) {
        val state = s.newState(blockPts, 60, 17L)
        var prev = Array.fill(blockPts.length)(-1)
        var steps = 0
        def fit() = Runner.fitStates(s, Seq(state), ps => { (info: CentroidInfo) =>
          val p = ps.head.step(info)
          val now = ps.head.assignments
          val hist = new Array[Long](60)
          now.foreach(a => hist(a) += 1)
          steps += 1
          val at = s"step $steps${if (pooled) " on the pool" else ""}"
          assert(p.counts.toSeq == hist.toSeq, s"counts are not the assignments' histogram at $at")
          assert(p.counts.sum == blockPts.length, s"counts do not sum to n at $at")
          assert(p.moved == now.indices.count(i => now(i) != prev(i)), s"moved is off at $at")
          if (noRefine) assert(p.refineNanos == 0L, s"refinement time at $at")
          prev = now
          p
        }, 60, blockInit, 10, 17L)
        if (pooled) fit() else Blocks.oneThread(fit())
        assert(steps == 10)
      }
    }
  }

  test("fitLocal runs every block on one thread, also inside a nested oneThread") {
    val seen = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
    def blocks(n: Int): Unit =
      Blocks.map(n, 8) { (_, _) => seen.add(Thread.currentThread); Thread.sleep(2) }
    val probe = new Strategy {
      val name = "probe"
      def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState = {
        val inner = LloydKernel.newState(points, k, seed)
        new PartitionState {
          def step(info: CentroidInfo): Partials = {
            blocks(points.length)
            Blocks.oneThread(blocks(points.length))
            inner.step(info)
          }
          def finalSse(cs: Array[Array[Double]]): Double = inner.finalSse(cs)
          def assignments: Array[Int] = inner.assignments
        }
      }
    }
    Runner.fitLocal(probe, blockPts, 60, blockInit, maxIters = 2)
    assert(seen.size == 1 && !seen.contains(Thread.currentThread))
  }

  test("Blocks.oneThread rethrows its body's exception unwrapped") {
    val e = intercept[IllegalArgumentException](
      Runner.fitLocal(LloydKernel, blockPts, 60, blockInit.take(59), maxIters = 1))
    assert(e.getMessage == "requirement failed: init has 59 centroids, expected 60")
  }

  test("the block pins cover every deterministic strategy and Ball-tree kind") {
    assert(blockPins.map(_._1.name) == pins.map(_._1.name))
  }

  // Spark's local[2] shape: two partition states of one strategy stepped at
  // the same time from two threads. Each must fit exactly as when the two
  // step one after the other, so their blocks share no scratch.
  for (s <- blockPins.map(_._1)) {
    test(s"${s.name}: two states stepped concurrently equal their solo runs bit for bit") {
      val halves = blockPts.grouped(blockPts.length / 2).toSeq
      def fit(concurrent: Boolean) = {
        val states = halves.zipWithIndex.map { case (p, i) => s.newState(p, 60, 5L + i) }
        val pool = java.util.concurrent.Executors.newFixedThreadPool(2)
        try {
          val step: Seq[PartitionState] => CentroidInfo => Partials = ps => info =>
            if (!concurrent) ps.map(_.step(info)).reduce(_ merge _)
            else ps.map(st => pool.submit(() => st.step(info))).map(_.get).reduce(_ merge _)
          (Runner.fitStates(s, states, step, 60, blockInit, 20, 5L), states.map(_.assignments.toSeq))
        } finally pool.shutdown()
      }
      val (solo, soloAssign) = fit(concurrent = false)
      val (both, bothAssign) = fit(concurrent = true)
      assert(both.iterations == solo.iterations)
      assert(both.metrics.toString == solo.metrics.toString)
      assert(bitsHash(both.centroids) == bitsHash(solo.centroids))
      assert(bothAssign == soloAssign)
    }
  }
}
