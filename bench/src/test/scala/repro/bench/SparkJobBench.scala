package repro.bench

import repro.SparkSpec
import repro.core._
import repro.spark.{SparkKMeans, SparkKMeansSpec, StateRDD}

/** The Spark floor of one `SparkKMeans` step job, on the shared test session:
  * 30 step jobs over cached Yinyang states (BigCross analog, k = 100, 2
  * partitions) through `RDD.map` + `collect`, the path `SparkKMeans` took
  * before, and 30 through the `StateTask` `runJob` a fit submits, both with
  * the `CentroidInfo` in the job's function; and 30 broadcasts of the same
  * info, each destroyed at once, which is what a step paid before its info
  * moved into the task. The two job paths step two copies of the same
  * states, each built by `SparkKMeans.cachedStates` over one parallelized
  * input, as a fit builds them; the three are timed in turn, in alternating
  * order. After the seeding step no point moves and every bound holds, so
  * a job's time is nearly all Spark's. A job's time is the job plus the
  * partition-order merge of its `Partials`; the merged `Partials` of the two
  * paths must be bit-identical. The speeds are only reported.
  */
class SparkJobBench extends SparkSpec {

  private val jobs = 30
  private val warmup = 5

  test("Spark step jobs: map + collect against the StateTask runJob, and a broadcast of the step info") {
    val sc = spark.sparkContext
    val k = 100
    val parts = 2
    val pts = BenchEnv.points("BigCross")
    val init = BenchEnv.init("BigCross", k, 17L)
    val input = sc.parallelize(pts.toSeq, parts)
    def cachedStates(): StateRDD = {
      val states = SparkKMeans.cachedStates(input, YinyangKernel, k, 17L)
      states.count()
      states
    }
    val viaMap = cachedStates()
    val viaTask = cachedStates()
    val info = CentroidInfo.compute(1, init, null, new Grouper(5L).update(init, 1, regroup = false))
    try {
      def timed[A](run: => A): (A, Double) = {
        val t0 = System.nanoTime()
        val a = run
        (a, (System.nanoTime() - t0) / 1e6)
      }
      def mapStep(): (Partials, Double) = timed(viaMap.map(_.step(info)).collect().reduce(_ merge _))
      def taskStep(): (Partials, Double) =
        timed(sc.runJob(viaTask, SparkKMeans.stepTask(info), viaTask.partitions.indices).reduce(_ merge _))
      def broadcast(): Double = timed(sc.broadcast(info).destroy())._2
      val times = (1 to warmup + jobs).map { j =>
        val ((pm, tm), (pt, tt), tb) =
          if (j % 2 == 0) { val m = mapStep(); val t = taskStep(); (m, t, broadcast()) }
          else { val b = broadcast(); val t = taskStep(); (mapStep(), t, b) }
        assert(SparkKMeansSpec.sameBits(pm, pt), s"job $j: the two paths' merged Partials differ")
        (tm, tt, tb)
      }.drop(warmup)

      def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.length / 2)
      def row(path: String, xs: Seq[Double]) =
        Seq(path, BenchEnv.fmt(median(xs)), BenchEnv.fmt(xs.min), BenchEnv.fmt(xs.max))
      val md = s"## Spark step jobs — Yinyang, BigCross analog, n=${pts.length}, k=$k, $parts cached " +
        s"partitions, ${sc.master}, ${Runtime.getRuntime.availableProcessors} vCPUs\n\n" +
        s"$jobs timed runs per row after $warmup warm-up runs, alternating. A job's time includes the " +
        "merge of its Partials; both job paths carry the step's CentroidInfo in the job's function and " +
        "give bit-identical merged Partials. The last row is a broadcast of the same info, destroyed at " +
        "once: what each step paid on top of its job while the info was broadcast.\n\n" +
        BenchEnv.markdownTable(Seq("path", "median (ms)", "min (ms)", "max (ms)"), Seq(
          row("`RDD.map` + `collect`", times.map(_._1)),
          row("`runJob` of a `StateTask` (a fit's step job)", times.map(_._2)),
          row("broadcast + destroy of the step info", times.map(_._3))))
      BenchEnv.emit("spark_jobs.md", md)
    } finally {
      viaMap.release()
      viaTask.release()
    }
  }
}
