package repro.core

/** Per-partition result of one assignment+refinement step: per-cluster sum
  * vectors and counts (merged across partitions with `merge` by the Spark
  * runner, or used directly by the local runner), plus bookkeeping.
  *
  * `maxUb(j)` is an upper bound on the radius of cluster j (max over member
  * points of their distance upper bound to the centroid they were just
  * assigned to) — consumed by Pami20/Drift via `CentroidInfo.radii`.
  */
final class Partials(
    val sums: Array[Array[Double]],
    val counts: Array[Long],
    val maxUb: Array[Double], // null unless the strategy reports radii (Pami20, Drift)
    val moved: Long,
    val n: Long,
    val metrics: Metrics,     // cumulative snapshot for this partition
    val assignNanos: Long,
    val refineNanos: Long
) extends Serializable {

  /** Element-wise sum (max for `maxUb` and the phase times). A side over no
    * points is dropped: its partition never saw a point, so its sum rows do
    * not have the data's dimension.
    */
  def merge(o: Partials): Partials =
    if (o.n == 0) this
    else if (n == 0) o
    else {
      val k = sums.length
      val s = Array.tabulate(k) { j =>
        val v = sums(j).clone; Geometry.addTo(v, o.sums(j)); v
      }
      val c = Array.tabulate(k)(j => counts(j) + o.counts(j))
      val mu =
        if (maxUb == null || o.maxUb == null) null
        else Array.tabulate(k)(j => math.max(maxUb(j), o.maxUb(j)))
      val m = metrics.snapshot(); m.add(o.metrics)
      new Partials(s, c, mu, moved + o.moved, n + o.n, m,
        math.max(assignNanos, o.assignNanos), math.max(refineNanos, o.refineNanos))
    }
}
