package repro.spark

import repro.core._
import repro.data.Datasets
import repro.index.{BallKMeansStrategy, BallTree}
import repro.{Oracle, SparkSpec}

/** The distributed path must agree with the single-partition path, and the
  * Catalyst refinement must agree with DuckDB.
  */
class SparkKMeansSpec extends SparkSpec {

  private lazy val pts = TestData.mixture(800, 4, 10, 0.04, 81L)
  private val k = 12
  private lazy val init = Init.kmeansPlusPlus(pts, k, 82L)

  private def sparkFit(s: Strategy, parts: Int): FitResult = {
    val rdd = spark.sparkContext.parallelize(pts.toSeq, parts)
    SparkKMeans.fit(spark, rdd, s, k, init, maxIters = 8, numPartitions = parts)
  }

  private def assertSameFit(dist: FitResult, local: FitResult): Unit = {
    val what = s"${dist.strategy} (n=${local.n})"
    assert(dist.iterations == local.iterations, what)
    assert(dist.converged == local.converged, what)
    assert(dist.movedPerIter.toSeq == local.movedPerIter.toSeq, what)
    for ((a, b) <- dist.centroids.zip(local.centroids); z <- a.indices)
      assert(math.abs(a(z) - b(z)) < 1e-9, s"$what centroid ${a.toSeq} vs ${b.toSeq}")
  }

  private val strategies: Seq[Strategy] =
    Strategies.byName.toSeq.sortBy(_._1).map(_._2) ++
      Seq(BallTree.HKT, BallTree.MTree, BallTree.Cover).map(new BallKMeansStrategy(_))

  for (s <- strategies) {
    test(s"Spark ${s.name} over 4 partitions equals the local runner") {
      val local = Runner.fitLocal(s, pts, k, init, maxIters = 8)
      val dist = sparkFit(s, 4)
      val rel = math.abs(dist.sse - local.sse) / math.max(local.sse, 1e-12)
      assert(rel < 1e-6, s"sse ${dist.sse} vs ${local.sse}")
      assertSameFit(dist, local)
      // distance-computation counts may differ for index methods
      // (per-partition trees) but Lloyd computes all n·k: identical
      if (s eq LloydKernel) assert(dist.metrics.dist == local.metrics.dist)
    }
  }

  test("Spark Yinyang with a single partition reproduces local counters exactly") {
    val local = Runner.fitLocal(YinyangKernel, pts, k, init, maxIters = 8)
    val dist = sparkFit(YinyangKernel, 1)
    assert(dist.metrics.dist == local.metrics.dist)
    assert(dist.metrics.boundAccess == local.metrics.boundAccess)
  }

  // An oracle outside this code base: stock spark.mllib KMeans from the same
  // init, with epsilon 0 so that it stops only when no centre moves. MLlib
  // computes distances through cached norms and sums its partitions in its
  // own order, so centroids agree to 1e-9, not bit for bit; a point that
  // broke a tie the other way would move a centroid by far more.
  test("SparkKMeans centroids agree with stock spark.mllib KMeans") {
    import org.apache.spark.mllib.clustering.{KMeans => MLlibKMeans, KMeansModel}
    import org.apache.spark.mllib.linalg.Vectors
    val vectors = spark.sparkContext.parallelize(pts.toSeq, 4).map(p => Vectors.dense(p)).cache()
    val mllib = try {
      new MLlibKMeans().setK(k).setMaxIterations(8).setEpsilon(0.0)
        .setInitialModel(new KMeansModel(init.map(c => Vectors.dense(c))))
        .run(vectors).clusterCenters.map(_.toArray)
    } finally vectors.unpersist(blocking = true)
    for (s <- Seq(LloydKernel, YinyangKernel, Strategies.index, Strategies.unikMultiple)) {
      val ours = sparkFit(s, 4).centroids
      for ((a, b) <- ours.zip(mllib); z <- a.indices)
        assert(math.abs(a(z) - b(z)) < 1e-9, s"${s.name} centroid ${a.toSeq} vs MLlib ${b.toSeq}")
    }
  }

  // Fewer points than partitions, or too few to fill them: some states are
  // built over no points at all.
  for ((n, parts) <- Seq((3, 4), (5, 4), (5, 8), (12, 8))) {
    test(s"Spark fits with empty partitions (n=$n over $parts) equal the local runner") {
      val few = pts.take(n)
      val init2 = Init.kmeansPlusPlus(few, 2, 83L)
      val rdd = spark.sparkContext.parallelize(few.toSeq, parts)
      for (s <- strategies) {
        val local = Runner.fitLocal(s, few, 2, init2, maxIters = 8)
        assertSameFit(SparkKMeans.fit(spark, rdd, s, 2, init2, maxIters = 8, numPartitions = parts), local)
      }
    }
  }

  test("a failed fit and a bad init leave no cached RDD behind") {
    val sc = spark.sparkContext
    val rdd = sc.parallelize(pts.toSeq, 4)
    val before = sc.getPersistentRDDs.keySet
    intercept[Exception](SparkKMeans.fit(spark, rdd, SparkKMeansSpec.FailingKernel, k, init))
    assert(sc.getPersistentRDDs.keySet == before)
    intercept[IllegalArgumentException](SparkKMeans.fit(spark, rdd, LloydKernel, k, init.take(k - 1)))
    intercept[IllegalArgumentException](
      SparkKMeans.fit(spark, rdd, LloydKernel, k, init.updated(1, Array(0.5))))
    assert(sc.getPersistentRDDs.keySet == before)
  }

  test("Spark fits reject a NaN or ragged point on the executors, naming its row") {
    for ((bad, msg) <- Seq((Array(0.1, Double.NaN, 0.2, 0.3), "has a non-finite coordinate NaN at 1"),
                           (Array(0.1, 0.2), "coordinates, expected "));
         s <- Seq(LloydKernel, HameKernel, Strategies.unik)) {
      val rdd = spark.sparkContext.parallelize(pts.updated(100, bad).toSeq, 4)
      val e = intercept[Exception](SparkKMeans.fit(spark, rdd, s, k, init, numPartitions = 4))
      val chain = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.toString).mkString("\n")
      assert(chain.contains("IllegalArgumentException") && chain.contains(msg), s"${s.name}: $chain")
    }
    intercept[IllegalArgumentException](
      SparkKMeans.fit(spark, spark.sparkContext.parallelize(pts.toSeq, 4), LloydKernel, k,
        init.updated(0, Array(0.5, 0.5, Double.PositiveInfinity, 0.5))))
  }

  test("Datasets.toDF feeds the distributed engine end-to-end") {
    val df = Datasets.toDF(spark, Datasets.generate(Datasets.byName("NYC"), frac = 0.02))
    val rdd = SparkKMeans.featuresRdd(df)
    val local = rdd.collect()
    val init8 = Init.kmeansPlusPlus(local, 8, 3L)
    val dist = SparkKMeans.fit(spark, rdd, LloydKernel, 8, init8, maxIters = 4)
    val ref = Runner.fitLocal(LloydKernel, local, 8, init8, maxIters = 4)
    assert(math.abs(dist.sse - ref.sse) / math.max(ref.sse, 1e-12) < 1e-6)
  }

  test("DataFrameKMeans assignment+refinement matches the kernel centroids") {
    val df = Datasets.toDF(spark, pts)
    val got = DataFrameKMeans.fit(spark, df, k, init, maxIters = 3)
    val local = Runner.fitLocal(LloydKernel, pts, k, init, maxIters = 3)
    got.zip(local.centroids).foreach { case (a, b) =>
      a.indices.foreach(i => assert(math.abs(a(i) - b(i)) < 1e-9))
    }
  }

  test("relational refinement agrees with DuckDB (Oracle)") {
    import org.apache.spark.sql.functions._
    val small = pts.take(200)
    val assignedPts = {
      val st = LloydKernel.newState(small, 5, 0L)
      val init5 = Init.kmeansPlusPlus(small, 5, 83L)
      Runner.fitStates(LloydKernel, Seq(st), ps => ps.head.step(_: CentroidInfo), 5, init5, 1, 0L)
      st.assignments
    }
    val wide = Datasets.toWideDF(spark, small)
    import spark.implicits._
    val assignDf = assignedPts.zipWithIndex.map { case (c, i) => (i.toLong, c) }.toSeq
      .toDF("id", "cluster")
    val joined = wide.join(assignDf, "id")
    val d = small(0).length
    val sparkAgg = joined.groupBy($"cluster")
      .agg(count(lit(1)).as("cnt"),
        (0 until d).map(i => avg(col(s"f$i")).as(s"m$i")): _*)
    val duckSql =
      s"SELECT cluster, count(*) AS cnt, " +
        (0 until d).map(i => s"avg(CAST(f$i AS DOUBLE)) AS m$i").mkString(", ") +
        " FROM pts GROUP BY cluster"
    Oracle.assertEquivalent(sparkAgg, duckSql, "pts" -> joined)
  }
}

object SparkKMeansSpec {

  /** Lloyd whose step fails from iteration 3 on. */
  object FailingKernel extends Strategy {
    val name = "Failing"
    val req: Req = Req()

    def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState = {
      val lloyd = LloydKernel.newState(points, k, seed)
      new PartitionState {
        def step(info: CentroidInfo): Partials =
          if (info.iter >= 3) throw new IllegalStateException("kernel failure") else lloyd.step(info)
        def finalSse(centroids: Array[Array[Double]]): Double = lloyd.finalSse(centroids)
        def assignments: Array[Int] = lloyd.assignments
      }
    }
  }
}
