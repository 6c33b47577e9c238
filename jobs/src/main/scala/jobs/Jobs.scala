package jobs

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.index.BallTree
import repro.spark.SparkKMeans
import repro.tune.{EvalHarness, Features, UTune}
import repro.unik.UniKStrategy

/** Shared plumbing for the spark-submit entrypoints. */
object JobEnv {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.ui.enabled", "false")
      .config("spark.serializer", "org.apache.spark.serializer.JavaSerializer")
      .getOrCreate()
}

/** Table 2: dataset overview, Ball-tree build time, #nodes. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    Datasets.all.foreach { spec =>
      val pts = Datasets.generate(spec)
      val tree = BallTree.build(pts)
      println(f"${spec.name}%-10s n=${pts.length}%-7d d=${spec.d}%-4d " +
        f"build=${tree.buildNanos / 1e9}%.3fs nodes=${tree.nodeCount}")
    }
  }
}

/** Table 3: first-iteration access breakdown on the BigCross analog. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val k = args.headOption.map(_.toInt).getOrElse(100)
    val pts = Datasets.generate(Datasets.byName("BigCross"))
    val init = Init.kmeansPlusPlus(pts, k, 17L)
    Seq[(String, Strategy)](("Lloyd", LloydKernel), ("SEQU", YinyangKernel),
      ("INDE", Strategies.index), ("UniK", UniKStrategy.default)).foreach {
      case (label, s) =>
        val r = Runner.fitLocal(s, pts, k, init, maxIters = 10)
        println(f"$label%-6s time=${r.totalSeconds}%.2fs pruned=${r.prunedRatio * 100}%.0f%% " +
          f"bound=${r.metrics.boundAccess} point=${r.metrics.pointAccess} node=${r.metrics.nodeAccess}")
    }
  }
}

/** Table 6 (one cell): speedups of SEQU/INDE/UniK over Lloyd on a dataset,
  * run through the DISTRIBUTED SparkKMeans engine: one `runJob` per
  * iteration steps every cached partition state, and the driver merges the
  * per-partition partials in partition order. The speed-ups read
  * `FitResult.totalNanos`, which leaves out the job that builds the states.
  * Usage: Table6Job [dataset] [k] [partitions]
  */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("BigCross")
    val k = args.lift(1).map(_.toInt).getOrElse(100)
    val parts = args.lift(2).map(_.toInt).getOrElse(4)
    val spark = JobEnv.session(s"table6-$name-$k")
    val pts = Datasets.generate(Datasets.byName(name))
    val init = Init.kmeansPlusPlus(pts, k, 17L)
    val rdd = spark.sparkContext.parallelize(pts.toSeq, parts)
    val lloyd = SparkKMeans.fit(spark, rdd, LloydKernel, k, init, 10, parts)
    Seq[Strategy](YinyangKernel, Strategies.index, UniKStrategy.default).foreach { s =>
      val r = SparkKMeans.fit(spark, rdd, s, k, init, 10, parts)
      println(f"${s.name}%-8s speedup=${lloyd.totalSeconds / r.totalSeconds}%.2fx " +
        f"pruned=${r.prunedRatio * 100}%.0f%% sse=${r.sse}%.4f (lloyd sse=${lloyd.sse}%.4f)")
    }
    spark.stop()
  }
}

/** Table 5: UTune ground truth (selective running) + model MRR. */
object UTuneJob {
  def main(args: Array[String]): Unit = {
    val records =
      for {
        spec <- Datasets.all
        k <- Seq(10, 50, 100)
      } yield EvalHarness.runSelective(spec, 1.0, -1, k, tmax = 5)
    val task = UTune.boundTask(records, Features.leafSlice)
    UTune.evaluateModels(task).foreach { s =>
      println(f"${s.model}%-4s Bound@MRR=${s.mrr}%.2f train=${s.trainMs}%.1fms " +
        f"predict=${s.predictUs}%.1fµs")
    }
    val iTask = UTune.indexTask(records, Features.leafSlice)
    UTune.evaluateModels(iTask).foreach { s =>
      println(f"${s.model}%-4s Index@MRR=${s.mrr}%.2f")
    }
  }
}
