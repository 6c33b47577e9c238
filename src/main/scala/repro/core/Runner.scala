package repro.core

/** Result of one k-means run with full instrumentation. */
final case class FitResult(
    strategy: String,
    k: Int,
    centroids: Array[Array[Double]],
    iterations: Int,
    converged: Boolean,
    metrics: Metrics,               // cumulative over all iterations
    metricsIter1: Metrics,          // after the first iteration (Table 3)
    assignNanos: Array[Long],       // per iteration
    refineNanos: Array[Long],
    movedPerIter: Array[Long],
    totalNanos: Long,
    sse: Double,
    n: Long
) {
  def totalSeconds: Double = totalNanos / 1e9
  def assignSeconds: Double = assignNanos.sum / 1e9
  def refineSeconds: Double = refineNanos.sum / 1e9

  /** Fraction of Lloyd's n·k·iters distance computations avoided. */
  def prunedRatio: Double = {
    val full = n.toDouble * k * iterations
    if (full <= 0) 0.0 else math.max(0.0, 1.0 - metrics.dist / full)
  }

  def prunedRatioIter1: Double = {
    val full = n.toDouble * k
    if (full <= 0) 0.0 else math.max(0.0, 1.0 - metricsIter1.dist / full)
  }
}

/** The k-means driver: the one iteration loop every execution path runs.
  * Each iteration computes the centroid-side `CentroidInfo` (drifts, groups,
  * radii, ...), hands it to a step that runs assignment and refinement over
  * all partition states and returns their merged `Partials`, and turns the
  * merged sums into the next centroids, until no point moves or `maxIters`.
  * `fitLocal` steps one in-memory partition, which keeps the timed benches
  * free of scheduler noise; `repro.spark.SparkKMeans` steps cached partition
  * states on executors.
  */
object Runner {

  def fitLocal(strategy: Strategy, points: Array[Array[Double]], k: Int,
               init: Array[Array[Double]], maxIters: Int = 10,
               seed: Long = 17L): FitResult = {
    val state = strategy.newState(points, k, seed)
    fitStates(strategy, Seq(state), ps => ps.head.step(_: CentroidInfo), k, init, maxIters, seed)
  }

  /** Driver over any collection of partition states with a supplied
    * step+merge evaluator.
    */
  def fitStates(strategy: Strategy,
                states: Seq[PartitionState],
                mkStep: Seq[PartitionState] => CentroidInfo => Partials,
                k: Int, init: Array[Array[Double]], maxIters: Int,
                seed: Long): FitResult =
    fit(strategy, mkStep(states), cs => states.map(_.finalSse(cs)).sum, k, init, maxIters, seed)

  /** Fails unless `init` holds `k` finite centroids of one dimension. */
  def requireInit(init: Array[Array[Double]], k: Int): Unit = {
    require(init.length == k, s"init has ${init.length} centroids, expected $k")
    require(init.forall(_.length == init(0).length), "init centroids differ in dimension")
    require(init.forall(_.forall(java.lang.Double.isFinite)), "init has a non-finite coordinate")
  }

  /** The iteration loop. `step` runs one assignment+refinement over every
    * partition and returns the merged `Partials`; `sse` is the exact SSE
    * of all partitions under the final centroids (untimed).
    */
  def fit(strategy: Strategy,
          step: CentroidInfo => Partials,
          sse: Array[Array[Double]] => Double,
          k: Int, init: Array[Array[Double]], maxIters: Int,
          seed: Long): FitResult = {
    requireInit(init, k)
    val req = strategy.req.normalized

    val grouper = if (req.groups) new Grouper(seed ^ 0x9e3779b97f4a7c15L) else null
    var centroids = Geometry.copy2(init)
    var prev: Array[Array[Double]] = null
    var radii: Array[Double] = null

    val assignNs = new scala.collection.mutable.ArrayBuffer[Long]
    val refineNs = new scala.collection.mutable.ArrayBuffer[Long]
    val moved = new scala.collection.mutable.ArrayBuffer[Long]
    var metrics = new Metrics
    var metricsIter1 = new Metrics
    var nTotal = 0L
    var converged = false

    val t0 = System.nanoTime()
    var t = 1
    while (t <= maxIters && !converged) {
      val gi = if (grouper != null) grouper.update(centroids, t, req.regroup) else null
      val info = CentroidInfo.compute(t, centroids, prev, req, gi, radii)
      val p = step(info)
      assignNs += p.assignNanos; refineNs += p.refineNanos; moved += p.moved
      metrics = p.metrics
      if (t == 1) { metricsIter1 = p.metrics; nTotal = p.n }
      radii = p.maxUb
      val next = Array.tabulate(k) { j =>
        if (p.counts(j) == 0) centroids(j).clone
        else {
          val v = p.sums(j).clone
          var z = 0
          while (z < v.length) { v(z) /= p.counts(j); z += 1 }
          v
        }
      }
      prev = centroids
      centroids = next
      if (p.moved == 0) converged = true
      t += 1
    }
    val totalNanos = System.nanoTime() - t0

    FitResult(strategy.name, k, centroids, t - 1, converged, metrics, metricsIter1,
      assignNs.toArray, refineNs.toArray, moved.toArray, totalNanos, sse(centroids), nTotal)
  }
}
