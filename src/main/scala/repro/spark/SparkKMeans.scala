package repro.spark

import scala.reflect.ClassTag

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._

/** Distributed execution of any registered kernel on `Runner`'s driver loop:
  * points are partitioned and cached once; each partition owns a kernel
  * state (its slice of the data plus all per-point bounds / the
  * per-partition ball-tree). Each iteration's step broadcasts the
  * `CentroidInfo`, runs every state's `step` and merges the per-partition
  * `Partials` on the driver, in partition order.
  *
  * Partition states are mutated across iterations inside the cached RDD;
  * with `local[*]` and MEMORY_ONLY storage this is the standard iterative-ML
  * pattern (one state object per partition, one `step` per action).
  */
object SparkKMeans {

  def fit(spark: SparkSession, points: RDD[Array[Double]], strategy: Strategy, k: Int,
          init: Array[Array[Double]], maxIters: Int = 10, numPartitions: Int = 4,
          seed: Long = 17L): FitResult = {
    Runner.requireInit(init, k)
    val sc = spark.sparkContext
    withBroadcast(sc, strategy) { bStrategy =>
      // The shuffle stays even when `points` already has `numPartitions`
      // partitions: it cuts the lineage. Built straight from the input, the
      // cached states' RDD keeps the input's partitions as parents, and every
      // per-iteration task carries its parent partition, rows included (a
      // `ParallelCollectionPartition` holds its slice, and a
      // `CoalescedRDDPartition` holds its parents). Without the shuffle and
      // `count`, `spark-k100` (k=100, local[2], 4 vCPUs) spent 0.36–0.43 s
      // instead of 0.14–0.16 s per cell in Spark overhead, and its fit_s rose
      // by 46–47%.
      val states = points
        .repartition(numPartitions)
        .mapPartitionsWithIndex { (pid, it) =>
          Iterator.single(bStrategy.value.newState(it.toArray, k, seed ^ pid))
        }
        .persist(StorageLevel.MEMORY_ONLY)
      try {
        states.count() // materialize before timing
        // Partials and SSEs are merged on the driver in partition order, so
        // the result does not depend on which task finishes first (`RDD.sum`
        // would add the SSEs in completion order).
        Runner.fit(strategy,
          info => withBroadcast(sc, info)(b => states.map(_.step(b.value)).collect().reduce(_ merge _)),
          cs => withBroadcast(sc, cs)(b => states.map(_.finalSse(b.value)).collect().foldLeft(0.0)(_ + _)),
          k, init, maxIters, seed)
      } finally states.unpersist(blocking = true)
    }
  }

  /** Runs `f` on a broadcast of `v` and destroys the broadcast afterwards. */
  private def withBroadcast[T: ClassTag, R](sc: SparkContext, v: T)(f: Broadcast[T] => R): R = {
    val b = sc.broadcast(v)
    try f(b) finally b.destroy()
  }

  /** DataFrame → RDD[Array[Double]] for a `features: array<double>` column. */
  def featuresRdd(df: DataFrame, col: String = "features"): RDD[Array[Double]] = {
    val idx = df.schema.fieldNames.indexOf(col)
    require(idx >= 0, s"no column '$col' in ${df.schema.fieldNames.mkString(",")}")
    df.rdd.map { (r: Row) => r.getSeq[Double](idx).toArray }
  }
}
