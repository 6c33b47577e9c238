package repro.core

/** Block-Vector [Bottesch et al., ICML'16]: Hamerly's pipeline with an extra
  * O(1) norm-based lower bound checked before each exact distance in a full
  * scan:  lb(i,j) = sqrt(‖x‖² + ‖c‖² − 2(‖x₁‖‖c₁‖ + ‖x₂‖‖c₂‖))  (Eq. 8,
  * valid by per-block Cauchy-Schwarz). Point-side norms are precomputed
  * once; centroid-side norms arrive via CentroidInfo each iteration.
  */
object VectorKernel extends Strategy {
  val name = "Vector"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new VectorState(points, k)
}

final class VectorState(points: Array[Array[Double]], k: Int)
    extends HamerlyState(points, k) {

  private val xNorms = new PointBlockNorms(points)

  override protected def seedScan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit =
    rescan(i, x, info, b)

  /** Full scan with the block-vector bound as a per-centroid prefilter.
    * A centroid is skipped only when its block bound exceeds the running
    * second-best distance (so both d1 and d2 stay exact for ub/lb).
    */
  protected def rescan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit = {
    val cs = info.centroids
    val m = b.m
    var best = -1; var d1 = Double.PositiveInfinity; var d2 = Double.PositiveInfinity
    var j = 0
    while (j < k) {
      m.boundAccess += 1
      if (xNorms.lb(i, info, j) < d2) {
        val dd = b.cdist(x, cs(j))
        if (dd < d1) { d2 = d1; d1 = dd; best = j }
        else if (dd < d2) d2 = dd
      }
      j += 1
    }
    ub(i) = d1; lb(i) = d2
    m.boundUpdate += 2
    b.reassign(i, best)
  }
}

/** Point-side block norms for the Block-Vector bound (Vector and Full),
  * computed once per state.
  */
final class PointBlockNorms(points: Array[Array[Double]]) extends Serializable {
  private val normSq = new Array[Double](points.length)
  private val b1 = new Array[Double](points.length)
  private val b2 = new Array[Double](points.length)
  locally {
    var i = 0
    while (i < points.length) {
      val (n1, n2) = Geometry.blockNorms(points(i))
      b1(i) = n1; b2(i) = n2; normSq(i) = n1 * n1 + n2 * n2
      i += 1
    }
  }

  /** `Geometry.blockLb` of point i and centroid j: a lower bound on their distance. */
  def lb(i: Int, info: CentroidInfo, j: Int): Double =
    Geometry.blockLb(normSq(i), b1(i), b2(i), info.normSq(j), info.blockB1(j), info.blockB2(j))
}
