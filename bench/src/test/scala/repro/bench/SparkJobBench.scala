package repro.bench

import repro.SparkSpec
import repro.core._
import repro.spark.{SparkKMeans, SparkKMeansSpec, StateRDD}

/** The Spark floor of one `SparkKMeans` step job, on the shared test session:
  * 30 step jobs over cached Yinyang states (BigCross analog, k = 100, 2
  * partitions) through `RDD.map` + `collect`, the path `SparkKMeans` took
  * before, and 30 through its `StateTask` `runJob`. The two paths step two
  * copies of the same states, each built by `SparkKMeans.cachedStates` over
  * one parallelized input, as a fit builds them, under one broadcast
  * `CentroidInfo`, in alternating order. After the seeding step no point
  * moves and every bound holds, so the time is nearly all Spark's. A job's
  * time is the job plus the partition-order merge of its `Partials`; the
  * merged `Partials` of the two paths must be bit-identical. The speeds are
  * only reported.
  */
class SparkJobBench extends SparkSpec {

  private val jobs = 30
  private val warmup = 5

  test("Spark step jobs: map + collect against the StateTask runJob") {
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
    val b = sc.broadcast(info)
    try {
      def timed(run: => Partials): (Partials, Double) = {
        val t0 = System.nanoTime()
        val p = run
        (p, (System.nanoTime() - t0) / 1e6)
      }
      def mapStep(): (Partials, Double) = timed(viaMap.map(_.step(b.value)).collect().reduce(_ merge _))
      def taskStep(): (Partials, Double) =
        timed(sc.runJob(viaTask, SparkKMeans.stepTask(b), viaTask.partitions.indices).reduce(_ merge _))
      val times = (1 to warmup + jobs).map { j =>
        val ((pm, tm), (pt, tt)) =
          if (j % 2 == 0) (mapStep(), taskStep()) else { val t = taskStep(); (mapStep(), t) }
        assert(SparkKMeansSpec.sameBits(pm, pt), s"job $j: the two paths' merged Partials differ")
        (tm, tt)
      }.drop(warmup)

      def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.length / 2)
      def row(path: String, xs: Seq[Double]) =
        Seq(path, BenchEnv.fmt(median(xs)), BenchEnv.fmt(xs.min), BenchEnv.fmt(xs.max))
      val md = s"## Spark step jobs — Yinyang, BigCross analog, n=${pts.length}, k=$k, $parts cached " +
        s"partitions, ${sc.master}, ${Runtime.getRuntime.availableProcessors} vCPUs\n\n" +
        s"$jobs timed jobs per path after $warmup warm-up jobs, alternating; a job's time includes " +
        "the merge of its Partials. Both paths give bit-identical merged Partials.\n\n" +
        BenchEnv.markdownTable(Seq("path", "median (ms)", "min (ms)", "max (ms)"), Seq(
          row("`RDD.map` + `collect`", times.map(_._1)),
          row("`runJob` of a `StateTask`", times.map(_._2))))
      BenchEnv.emit("spark_jobs.md", md)
    } finally {
      b.destroy()
      viaMap.release()
      viaTask.release()
    }
  }
}
