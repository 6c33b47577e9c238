package repro.core

import repro.SparkSpec
import repro.index.{BallKMeansStrategy, BallTree, KdKMeans, KdTree}
import repro.spark.SparkKMeans
import repro.unik.{UniKMode, UniKStrategy}

/** Degenerate inputs every kernel must survive: k=1, k close to n,
  * duplicate points (empty clusters), and early convergence; and bad
  * arguments every fit must reject, locally and on Spark.
  */
class EdgeCaseSpec extends SparkSpec {

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

  // Points with no coordinates fail when the state or tree is built; a
  // partition over no points (whose state has d = 0) is still accepted.
  private val noCoordinates = Array.fill(5)(Array.empty[Double])
  private val noCoordinatesMsg = "5 points have no coordinates (d = 0)"

  for (s <- Strategies.byName.toSeq.sortBy(_._1).map(_._2) ++
         Seq(BallTree.HKT, BallTree.MTree, BallTree.Cover).map(new BallKMeansStrategy(_))) {
    test(s"${s.name} rejects points with no coordinates") {
      val e = intercept[IllegalArgumentException](
        Runner.fitLocal(s, noCoordinates, 2, Array.fill(2)(Array.empty[Double]), maxIters = 3))
      assert(e.getMessage == noCoordinatesMsg)
      assert(s.newState(Array.empty, 2, 17L).assignments.isEmpty)
    }
  }

  test("KdTree.build rejects points with no coordinates") {
    val e = intercept[IllegalArgumentException](KdTree.build(noCoordinates))
    assert(e.getMessage == noCoordinatesMsg)
    assert(KdTree.build(Array.empty).root == null)
  }

  test("BallTree.build rejects points with no coordinates, for every kind") {
    for (kind <- Seq(BallTree.Ball, BallTree.HKT, BallTree.MTree, BallTree.Cover)) {
      val e = intercept[IllegalArgumentException](BallTree.build(noCoordinates, kind = kind))
      assert(e.getMessage == noCoordinatesMsg, kind.label)
      BallTree.build(Array.empty, kind = kind)
    }
  }

  // An init of another dimension than the points' fails in the first step,
  // whatever the strategy; a state over no points accepts it.
  test("every strategy rejects an init of another dimension than the points'") {
    val pts = TestData.mixture(120, 5, 4, 0.05, 14L)
    val init = Init.kmeansPlusPlus(pts, 6, 15L)
    for (s <- LloydKernel +: strategies; dInit <- Seq(3, 7)) {
      val bad = init.map(c => Array.tabulate(dInit)(z => if (z < c.length) c(z) else 0.5))
      val e = intercept[IllegalArgumentException](Runner.fitLocal(s, pts, 6, bad, maxIters = 3))
      assert(e.getMessage == s"the centroids have $dInit coordinates, the points have 5", s.name)
      Runner.fitStates(s, Seq(s.newState(Array.empty, 6, 17L)), ps => ps.head.step(_: CentroidInfo),
        6, bad, 3, 17L)
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

  // k = 0 fails in the init check, before any state steps.
  test("Runner.requireInit rejects k = 0, for every strategy") {
    val pts = TestData.mixture(40, 3, 4, 0.05, 12L)
    for (s <- LloydKernel +: strategies) {
      val e = intercept[IllegalArgumentException](Runner.fitLocal(s, pts, 0, Array.empty[Array[Double]]))
      assert(e.getMessage.endsWith("k is 0, expected at least 1"), s.name)
    }
  }

  /** The causes of `e`, outermost first, one per line. */
  private def causes(e: Throwable): String =
    Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(_.toString).mkString("\n")

  // A fit that never steps has no assignment to sum an SSE over; it fails
  // before any state is built or, on Spark, any broadcast or job is made.
  test("every strategy rejects maxIters < 1, locally and on Spark, before it builds a state") {
    val pts = TestData.mixture(40, 3, 4, 0.05, 12L)
    val init = Init.kmeansPlusPlus(pts, 3, 13L)
    val sc = spark.sparkContext
    val rdd = sc.parallelize(pts.toSeq, 2)
    def nextId(): Long = { val b = sc.broadcast(0); try b.id finally b.destroy() }
    for (s <- LloydKernel +: strategies; maxIters <- Seq(0, -1)) {
      val msg = s"maxIters is $maxIters, expected at least 1"
      val local = intercept[IllegalArgumentException](Runner.fitLocal(s, pts, 3, init, maxIters))
      assert(local.getMessage.endsWith(msg), s.name)
      val before = nextId()
      val dist = intercept[IllegalArgumentException](
        SparkKMeans.fit(spark, rdd, s, 3, init, maxIters, numPartitions = 2))
      assert(dist.getMessage.endsWith(msg), s.name)
      assert(nextId() == before + 1, s"${s.name}: the rejected fit made a broadcast")
    }
  }

  // With every |coordinate| ≤ M, a squared distance is at most 4·d·M²; past
  // Double.MaxValue it would be +Inf, and no centroid is nearer than +Inf.
  test("every strategy rejects coordinates whose squared distances overflow, locally and on Spark") {
    val d = 16
    val base = TestData.uniform(200, d, 21L)
    val baseInit = Init.kmeansPlusPlus(base, 5, 22L)
    def scaled(a: Array[Array[Double]], by: Double) = a.map(_.map(_ * by))
    val (pts, init) = (scaled(base, 1e150), scaled(baseInit, 1e150))
    val (far, farInit) = (scaled(base, 1e155), scaled(baseInit, 1e155))
    val oneFar = pts.updated(7, far(7))
    val lloyd = Runner.fitLocal(LloydKernel, pts, 5, init, maxIters = 6)
    assert(lloyd.iterations >= 2 && lloyd.sse > 0 && !lloyd.sse.isInfinite)
    def assertLikeLloyd(res: FitResult, what: String): Unit = {
      assert(res.movedPerIter.toSeq == lloyd.movedPerIter.toSeq, what)
      for ((a, b) <- res.centroids.zip(lloyd.centroids); z <- a.indices)
        assert(math.abs(a(z) - b(z)) <= 1e-9 * 1e150, s"$what: centroid ${a.toSeq} vs ${b.toSeq}")
    }
    val sc = spark.sparkContext
    for (s <- LloydKernel +: strategies) {
      for ((p, i) <- Seq((far, 0), (oneFar, 7))) {
        val e = intercept[IllegalArgumentException](Runner.fitLocal(s, p, 5, init, maxIters = 6))
        assert(e.getMessage.startsWith(s"point $i has a coordinate ") &&
          e.getMessage.endsWith("where squared distances overflow"), s"${s.name}: ${e.getMessage}")
        val chain = causes(intercept[Exception](
          SparkKMeans.fit(spark, sc.parallelize(p.toSeq, 2), s, 5, init, maxIters = 6, numPartitions = 2)))
        assert(chain.contains(s"IllegalArgumentException: point $i has a coordinate "), s"${s.name}: $chain")
      }
      for (bad <- Seq(farInit, init.updated(3, farInit(3)))) {
        val j = if (bad eq farInit) 0 else 3
        val e = intercept[IllegalArgumentException](Runner.fitLocal(s, pts, 5, bad, maxIters = 6))
        assert(e.getMessage.startsWith(s"init centroid $j has a coordinate "), s"${s.name}: ${e.getMessage}")
        intercept[IllegalArgumentException](
          SparkKMeans.fit(spark, sc.parallelize(pts.toSeq, 2), s, 5, bad, maxIters = 6, numPartitions = 2))
      }
      assertLikeLloyd(Runner.fitLocal(s, pts, 5, init, maxIters = 6), s"${s.name} local")
      assertLikeLloyd(SparkKMeans.fit(spark, sc.parallelize(pts.toSeq, 2), s, 5, init, maxIters = 6,
        numPartitions = 2), s"${s.name} on Spark")
    }
  }

  test("Partials.merge drops a side over no points") {
    def partials(n: Long, sums: Array[Array[Double]]) = {
      val m = new Metrics; m.dist = n
      new Partials(sums, Array.fill(sums.length)(n), n, n, m, n, 0L)
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
