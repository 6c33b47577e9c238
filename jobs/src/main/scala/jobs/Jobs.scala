package jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.spark.SparkKMeans

/** Table 6 (one cell): speedups of SEQU/INDE/UniK over Lloyd on a dataset,
  * run through the DISTRIBUTED SparkKMeans engine: one `runJob` per
  * iteration steps every cached partition state, and the driver merges the
  * per-partition partials in partition order. The speed-ups read
  * `FitResult.totalNanos`, which leaves out the job that builds the states.
  * The other paper tables come from their benches (`repro.bench`).
  * Usage: Table6Job [dataset] [k] [partitions]
  */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("BigCross")
    val k = args.lift(1).map(_.toInt).getOrElse(100)
    val parts = args.lift(2).map(_.toInt).getOrElse(4)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"table6-$name-$k")
      .config("spark.ui.enabled", "false")
      .config("spark.serializer", "org.apache.spark.serializer.JavaSerializer")
      .getOrCreate()
    val pts = Datasets.generate(Datasets.byName(name))
    val init = Init.kmeansPlusPlus(pts, k, 17L)
    val rdd = spark.sparkContext.parallelize(pts.toSeq, parts)
    val lloyd = SparkKMeans.fit(spark, rdd, LloydKernel, k, init, 10, parts)
    Seq(Strategies.sequ, Strategies.index, Strategies.unik).foreach { s =>
      val r = SparkKMeans.fit(spark, rdd, s, k, init, 10, parts)
      println(f"${s.name}%-8s speedup=${lloyd.totalSeconds / r.totalSeconds}%.2fx " +
        f"pruned=${r.prunedRatio * 100}%.0f%% sse=${r.sse}%.4f (lloyd sse=${lloyd.sse}%.4f)")
    }
    spark.stop()
  }
}
