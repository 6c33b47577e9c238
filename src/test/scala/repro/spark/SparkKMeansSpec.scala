package repro.spark

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

import org.apache.spark.{ListenerBusDrain, LiveBroadcasts, ShuffleStage}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted}
import org.apache.spark.storage.StorageLevel
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Millis, Seconds, Span}
import repro.core._
import repro.index.{BallKMeansStrategy, BallTree}
import repro.SparkSpec

/** The distributed path must agree with the single-partition path and with
  * stock `spark.mllib` KMeans.
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

  test("Spark's sse is the partition-order sum of the states' final SSEs, bit for bit") {
    val parts = 5
    val res = sparkFit(new SparkKMeansSpec.SseOrderProbe(LloydKernel, 17L), parts)
    val want = (0 until parts).map(SparkKMeansSpec.SseOrderProbe.sseOf(_)).foldLeft(0.0)(_ + _)
    assert(java.lang.Double.doubleToRawLongBits(res.sse) == java.lang.Double.doubleToRawLongBits(want),
      s"sse ${res.sse} vs partition-order sum $want")
  }

  test("a failed fit and a bad init leave no cached RDD behind") {
    val sc = spark.sparkContext
    val rdd = sc.parallelize(pts.toSeq, 4)
    val before = sc.getPersistentRDDs.keySet
    val broadcasts = LiveBroadcasts(sc)
    intercept[Exception](SparkKMeans.fit(spark, rdd, SparkKMeansSpec.FailingKernel, k, init))
    assert(sc.getPersistentRDDs.keySet == before)
    // `Broadcast.destroy` drops the blocks asynchronously.
    eventually(timeout(Span(10, Seconds)), interval(Span(20, Millis))) {
      assert((LiveBroadcasts(sc) -- broadcasts).isEmpty, "a broadcast of the failed fit is left")
    }
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

  /** Runs `f` and returns how many jobs it started, and how many of those
    * had the call site `label`.
    */
  private def jobsDuring(label: String)(f: => Unit): (Int, Int) = {
    val s = submittedDuring(label)(f)
    (s.jobs, s.labelled)
  }

  /** Runs `f` and returns what it submitted to the scheduler. */
  private def submittedDuring(label: String)(f: => Unit): SparkKMeansSpec.Submitted = {
    val sc = spark.sparkContext
    ListenerBusDrain(sc) // earlier tests' events must not reach the listener
    val all = new AtomicInteger
    val labelled = new AtomicInteger
    val stages = new ConcurrentLinkedQueue[SparkKMeansSpec.Stage]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        all.incrementAndGet()
        if (e.properties != null && e.properties.getProperty(SparkKMeans.CallSiteShort) == label)
          labelled.incrementAndGet()
      }
      override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
        stages.add(SparkKMeansSpec.Stage(ShuffleStage(e.stageInfo), e.stageInfo.numTasks))
    }
    sc.addSparkListener(listener)
    try { f; ListenerBusDrain(sc) } finally sc.removeSparkListener(listener)
    SparkKMeansSpec.Submitted(all.get, labelled.get, stages.asScala.toSeq)
  }

  // With no shuffle, each job is one stage of one task per input partition.
  for ((n, parts) <- Seq((800, 4), (5, 8))) {
    test(s"a fit over an input of numPartitions partitions submits t + 2 stages, none a shuffle (n=$n over $parts)") {
      val few = pts.take(n)
      val kk = math.min(k, n / 2)
      val init2 = Init.kmeansPlusPlus(few, kk, 84L)
      val rdd = spark.sparkContext.parallelize(few.toSeq, parts)
      for (s <- Seq(LloydKernel, YinyangKernel, Strategies.unikMultiple)) {
        var res: FitResult = null
        val sub = submittedDuring(s"SparkKMeans.fit ${s.name}") {
          res = SparkKMeans.fit(spark, rdd, s, kk, init2, maxIters = 8, numPartitions = parts)
        }
        assert(sub.jobs == res.iterations + 2, s"${s.name}: $sub")
        assert(sub.stages == Seq.fill(sub.jobs)(SparkKMeansSpec.Stage(shuffle = false, parts)), s"${s.name}: $sub")
      }
    }
  }

  // Another partition count is the one case that still shuffles: one map
  // stage in the build job, whose output the later jobs reuse.
  for ((inParts, parts) <- Seq((3, 4), (6, 2))) {
    test(s"Spark fits of an input of $inParts partitions over $parts equal the local runner (n=5)") {
      val few = pts.take(5)
      val init2 = Init.kmeansPlusPlus(few, 2, 83L)
      val rdd = spark.sparkContext.parallelize(few.toSeq, inParts)
      for (s <- Seq(LloydKernel, YinyangKernel, Strategies.index, Strategies.unikMultiple)) {
        var dist: FitResult = null
        val sub = submittedDuring(s"SparkKMeans.fit ${s.name}") {
          dist = SparkKMeans.fit(spark, rdd, s, 2, init2, maxIters = 8, numPartitions = parts)
        }
        assertSameFit(dist, Runner.fitLocal(s, few, 2, init2, maxIters = 8))
        assert(sub.stages == SparkKMeansSpec.Stage(shuffle = true, inParts) +:
          Seq.fill(sub.jobs)(SparkKMeansSpec.Stage(shuffle = false, parts)), s"${s.name}: $sub")
      }
    }
  }

  private def serializedSize(o: AnyRef): Int = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o)
    out.close()
    bytes.size
  }

  // A task carries its partition: the input partition's rows must not ride along.
  for (n <- Seq(800, 8000)) {
    test(s"every state partition Java-serializes to under 1 KB (n=$n)") {
      val rdd = spark.sparkContext.parallelize(TestData.mixture(n, 4, 10, 0.04, 85L).toSeq, 4)
      val states = SparkKMeans.cachedStates(rdd, LloydKernel, k, 17L)
      try {
        for (p <- states.partitions) {
          val size = serializedSize(p)
          assert(size < 1024, s"partition ${p.index}: $size bytes")
          assert(serializedSize(rdd.partitions(p.index)) > 8 * 4 * n / 4, "the input partition holds its rows")
        }
      } finally states.release()
    }
  }

  test("states rebuilt after an unpersist step as fresh states over the same input slices, bit for bit") {
    val sc = spark.sparkContext
    val parts = 3
    val states = SparkKMeans.cachedStates(sc.parallelize(pts.toSeq, parts), YinyangKernel, k, 17L)
    val info = CentroidInfo.compute(1, init, null, new Grouper(5L).update(init, 1, regroup = false), null)
    val b = sc.broadcast(info)
    try {
      def step(): Array[Partials] = sc.runJob(states, SparkKMeans.stepTask(b), states.partitions.indices)
      val fresh = (0 until parts).map { i =>
        val slice = pts.slice(i * pts.length / parts, (i + 1) * pts.length / parts)
        YinyangKernel.newState(slice, k, 17L ^ i).step(info)
      }
      assert(step().zip(fresh).forall { case (a, w) => SparkKMeansSpec.sameBits(a, w) })
      // A cached state steps on from its bounds, which a fresh state does not have.
      assert(step().zip(fresh).forall { case (a, w) => !SparkKMeansSpec.sameBits(a, w) })
      states.unpersist(blocking = true)
      states.persist(StorageLevel.MEMORY_ONLY)
      for ((a, i) <- step().zipWithIndex)
        assert(SparkKMeansSpec.sameBits(a, fresh(i)), s"rebuilt partition $i")
    } finally {
      b.destroy()
      states.release()
    }
  }

  // One job builds the states, one per iteration steps them, one sums the SSE.
  for ((n, parts) <- Seq((800, 4), (5, 8))) {
    test(s"a fit of t iterations runs t + 2 jobs named after it (n=$n over $parts)") {
      val sc = spark.sparkContext
      val few = pts.take(n)
      val kk = math.min(k, n / 2)
      val init2 = Init.kmeansPlusPlus(few, kk, 84L)
      val rdd = sc.parallelize(few.toSeq, parts)
      sc.setCallSite("caller")
      try {
        var res: FitResult = null
        val (all, labelled) = jobsDuring("SparkKMeans.fit Yinyang") {
          res = SparkKMeans.fit(spark, rdd, YinyangKernel, kk, init2, maxIters = 8, numPartitions = parts)
        }
        assert(res.iterations >= 2)
        assert(all == res.iterations + 2 && labelled == all, s"$all jobs, $labelled named after the fit")
        assert(sc.getLocalProperty(SparkKMeans.CallSiteShort) == "caller")
        assert(sc.getLocalProperty("callSite.long") == null)
      } finally sc.clearCallSite()
    }
  }

  test("the step task survives Java serialization and gives the same Partials bits") {
    val info = CentroidInfo.compute(1, init, null, new Grouper(5L).update(init, 1, regroup = false), null)
    val b = spark.sparkContext.broadcast(info)
    try {
      val task = SparkKMeans.stepTask(b)
      val bytes = new ByteArrayOutputStream
      val out = new ObjectOutputStream(bytes)
      out.writeObject(task)
      out.close()
      val copy = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray))
        .readObject().asInstanceOf[StateTask[Partials]]
      def stepFresh(t: StateTask[Partials]) = t(null, Iterator.single(YinyangKernel.newState(pts, k, 17L)))
      val want = stepFresh(task)
      assert(want.n == pts.length && want.metrics.dist > 0)
      assert(SparkKMeansSpec.sameBits(stepFresh(copy), want))
    } finally b.destroy()
  }

  // A cached block's read lock is released when its iterator reports its end.
  test("a StateTask reads its partition to the end and rejects a second state") {
    val state = LloydKernel.newState(pts, k, 17L)
    var ended = false
    val one = Iterator.single(state)
    val watched = new Iterator[PartitionState] {
      def hasNext: Boolean = { ended = !one.hasNext; !ended }
      def next(): PartitionState = one.next()
    }
    assert(new StateTask[Int](_.assignments.length)(null, watched) == pts.length && ended)
    intercept[IllegalArgumentException](new StateTask[Unit](_ => ())(null, Iterator(state, state)))
  }
}

object SparkKMeansSpec {

  /** A submitted stage: whether it wrote shuffle output, and its tasks. */
  final case class Stage(shuffle: Boolean, tasks: Int)

  /** What a run submitted: its jobs, how many of those had the watched call
    * site, and its stages in submission order.
    */
  final case class Submitted(jobs: Int, labelled: Int, stages: Seq[Stage])

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** Whether `a` and `b` hold the same sums, radii and counters, bit for
    * bit; phase times are not compared.
    */
  def sameBits(a: Partials, b: Partials): Boolean = {
    def rows(p: Partials) = p.sums.map(_.map(bits).toSeq).toSeq
    def radii(p: Partials) = Option(p.maxUb).map(_.map(bits).toSeq)
    def counters(p: Partials) = {
      val m = p.metrics
      Seq(p.moved, p.n, m.dist, m.pointAccess, m.nodeAccess, m.boundAccess, m.boundUpdate)
    }
    rows(a) == rows(b) && a.counts.toSeq == b.counts.toSeq && radii(a) == radii(b) &&
      counters(a) == counters(b)
  }

  /** `inner`, except that each state's `finalSse` is `SseOrderProbe.sseOf`
    * its partition (`SparkKMeans.fit` builds partition p's state with seed
    * `fitSeed ^ p`), and partition 0 reports 300 ms late, so it finishes
    * last when tasks run side by side: added in partition order the SSEs
    * give 1e16, in that completion order 1e16 + 4.
    */
  final class SseOrderProbe(inner: Strategy, fitSeed: Long) extends Strategy {
    val name: String = inner.name
    override def grouping: Grouping = inner.grouping

    def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState = {
      val state = inner.newState(points, k, seed)
      val pid = (seed ^ fitSeed).toInt
      new PartitionState {
        def step(info: CentroidInfo): Partials = state.step(info)
        def finalSse(centroids: Array[Array[Double]]): Double = {
          if (pid == 0) Thread.sleep(300)
          SseOrderProbe.sseOf(pid)
        }
        def assignments: Array[Int] = state.assignments
      }
    }
  }

  object SseOrderProbe {
    def sseOf(pid: Int): Double = if (pid == 0) 1e16 else 1.0
  }

  /** Lloyd whose step fails from iteration 3 on. */
  object FailingKernel extends Strategy {
    val name = "Failing"

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
