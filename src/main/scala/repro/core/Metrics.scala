package repro.core

/** Fine-grained performance counters — the paper's breakdown metrics
  * (Section 7.1 "Measurement", Table 3, Figures 10–11).
  *
  *  - `dist`        point↔centroid or pivot↔centroid distance computations
  *  - `pointAccess` reads of a stored data-point vector
  *  - `nodeAccess`  visits of an index node
  *  - `boundAccess` reads of a stored bound (ub/lb/group-lb/heap key)
  *  - `boundUpdate` writes of a stored bound
  */
final class Metrics extends Serializable {
  var dist: Long        = 0L
  var pointAccess: Long = 0L
  var nodeAccess: Long  = 0L
  var boundAccess: Long = 0L
  var boundUpdate: Long = 0L

  def add(o: Metrics): Unit = {
    dist += o.dist; pointAccess += o.pointAccess; nodeAccess += o.nodeAccess
    boundAccess += o.boundAccess; boundUpdate += o.boundUpdate
  }

  def snapshot(): Metrics = { val m = new Metrics; m.add(this); m }

  override def toString: String =
    s"dist=$dist point=$pointAccess node=$nodeAccess bound=$boundAccess boundUpd=$boundUpdate"
}
