package repro.spark

import scala.reflect.ClassTag

import org.apache.spark.{Partition, SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.core._

/** Distributed execution of any registered kernel on `Runner`'s driver loop:
  * points are partitioned and cached once; each partition owns a kernel
  * state (its slice of the data plus all per-point bounds / the
  * per-partition ball-tree). Each iteration's step runs every state's `step`
  * under the `CentroidInfo` its task carries and merges the per-partition
  * `Partials` on the driver, in partition order.
  *
  * The states live in a `StateRDD` over the input's own partitions: state i
  * is built from input partition i, and its task carries only the index and
  * a broadcast of that input partition, never rows. The input is shuffled
  * only when its partition count differs from `numPartitions`.
  *
  * A fit of t iterations runs t + 2 jobs: one that builds and caches the
  * states, t steps and one final SSE. Each is a `SparkContext.runJob` of a
  * `StateTask` over all partitions, labelled with the call site
  * `SparkKMeans.fit <strategy>`. The jobs avoid `RDD.map`/`collect`/`count`
  * and the one-argument `runJob` overloads: those hand Spark a closure
  * (theirs or `SparkContext`'s), and `ClosureCleaner` then finds and parses
  * `RDD.class` or `SparkContext.class` through the classpath on every job.
  *
  * A step's `CentroidInfo` and the final centroids travel in the job's own
  * function, which Spark already broadcasts once per job as the task
  * binary; a broadcast of their own would be a second copy, with a fixed
  * cost of 1.5–2.2 ms to make and about 0.45 ms to destroy (`local[2]`).
  * The only other broadcasts of a fit are its P parent partitions, so a fit
  * over P partitions makes P + t + 2 broadcasts.
  *
  * Partition states are mutated across iterations inside the cached RDD;
  * with `local[*]` and MEMORY_ONLY storage this is the standard iterative-ML
  * pattern (one state object per partition, one `step` per job).
  */
object SparkKMeans {

  def fit(spark: SparkSession, points: RDD[Array[Double]], strategy: Strategy, k: Int,
          init: Array[Array[Double]], maxIters: Int = 10, numPartitions: Int = 4,
          seed: Long = 17L): FitResult = {
    Runner.requireFit(init, k, maxIters)
    val sc = spark.sparkContext
    withCallSite(sc, s"SparkKMeans.fit ${strategy.name}") {
      // The input is shuffled only to change its partition count: the
      // `StateRDD` keeps the input's partitions, and its tasks carry
      // broadcasts of them, not rows. A shuffle would Java-serialize, write
      // and read back every row once per fit.
      val input = if (points.getNumPartitions == numPartitions) points else points.repartition(numPartitions)
      val states = cachedStates(input, strategy, k, seed)
      // One result per partition, in partition order.
      def run[U: ClassTag](task: StateTask[U]): Array[U] =
        sc.runJob(states, task, states.partitions.indices)
      try {
        run(new StateTask[Unit](_ => ())) // build and cache the states before timing
        // Partials and SSEs are merged on the driver in partition order, so
        // the result does not depend on which task finishes first (`RDD.sum`
        // would add the SSEs in completion order).
        Runner.fit(strategy,
          info => run(stepTask(info)).reduce(_ merge _),
          cs => run(new StateTask(_.finalSse(cs))).foldLeft(0.0)(_ + _),
          k, init, maxIters, seed)
      } finally states.release()
    }
  }

  /** The cached partition states of a fit over `input`, one per input
    * partition, built by the first job that reads them. The caller must
    * `release` them.
    */
  private[repro] def cachedStates(input: RDD[Array[Double]], strategy: Strategy, k: Int, seed: Long): StateRDD =
    new StateRDD(input, strategy, k, seed).persist(StorageLevel.MEMORY_ONLY)

  /** One iteration's task: every state's `step` under `info`, which the
    * task's function holds.
    */
  private[repro] def stepTask(info: CentroidInfo): StateTask[Partials] =
    new StateTask(_.step(info))

  /** Runs `f` with both call-site forms of this thread's jobs set to
    * `label`, then restores the caller's. With both set, Spark names each job
    * after `label` and skips its per-job stack walk.
    */
  private def withCallSite[R](sc: SparkContext, label: String)(f: => R): R = {
    val short = sc.getLocalProperty(CallSiteShort)
    val long = sc.getLocalProperty(CallSiteLong)
    sc.setCallSite(label)
    sc.setLocalProperty(CallSiteLong, label)
    try f finally {
      sc.setLocalProperty(CallSiteShort, short)
      sc.setLocalProperty(CallSiteLong, long)
    }
  }

  /** Spark's local-property keys of a job's call site (`CallSite.SHORT_FORM`
    * and `LONG_FORM`, which are private to Spark).
    */
  private[repro] val CallSiteShort = "callSite.short"
  private val CallSiteLong = "callSite.long"
}

/** A job's task function: `f` of the partition's one state. It is a named
  * class, not a closure, so `ClosureCleaner.clean`, which `runJob` applies to
  * every job's function, returns at once without reading a class file.
  */
private[repro] final class StateTask[U](f: PartitionState => U)
    extends ((TaskContext, Iterator[PartitionState]) => U) with Serializable {
  def apply(context: TaskContext, states: Iterator[PartitionState]): U = {
    val result = f(states.next())
    // Reading to the end of the cached block releases the task's read lock
    // on it; a task that ends holding it is a pin leak to Spark.
    require(!states.hasNext, "a partition holds more than one state")
    result
  }
}

/** The partition states of one fit: partition i is `strategy`'s state over
  * input partition i, built with seed `seed ^ i`. A `StatePartition` carries
  * its index and a broadcast of its input partition, never rows, so a task
  * stays small and a lost or evicted state is rebuilt from the broadcast,
  * which lives until `release`. The parent broadcasts are made concurrently:
  * each one serializes and compresses its partition's rows on the driver.
  * The strategy is a field, so it travels in each job's task binary.
  */
private[repro] final class StateRDD(input: RDD[Array[Double]], strategy: Strategy, k: Int, seed: Long)
    extends RDD[PartitionState](input) {

  @transient private val parents: Array[Broadcast[Partition]] = {
    val ps = input.partitions
    Blocks.map(ps.length, ps.length)((i, _) => sparkContext.broadcast[Partition](ps(i)))
  }

  protected def getPartitions: Array[Partition] =
    Array.tabulate(parents.length)(i => new StatePartition(i, parents(i)))

  def compute(split: Partition, context: TaskContext): Iterator[PartitionState] = {
    val p = split.asInstanceOf[StatePartition]
    Iterator.single(strategy.newState(input.iterator(p.parent.value, context).toArray, k, seed ^ p.index))
  }

  override protected def getPreferredLocations(split: Partition): Seq[String] =
    input.preferredLocations(input.partitions(split.index))

  /** Drops the cached states and destroys every parent broadcast. */
  def release(): Unit = try unpersist(blocking = true) finally parents.foreach(_.destroy())
}

/** State partition `index`: a broadcast of input partition `index`. */
private[repro] final class StatePartition(val index: Int, val parent: Broadcast[Partition]) extends Partition
