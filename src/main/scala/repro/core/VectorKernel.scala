package repro.core

/** Block-Vector [Bottesch et al., ICML'16]: Hamerly's pipeline with an extra
  * O(1) norm-based lower bound checked before each exact distance in a full
  * scan:  lb(i,j) = sqrt(‖x‖² + ‖c‖² − 2(‖x₁‖‖c₁‖ + ‖x₂‖‖c₂‖))  (Eq. 8,
  * valid by per-block Cauchy-Schwarz). Point-side norms are precomputed
  * once; centroid-side norms arrive via CentroidInfo each iteration.
  */
object VectorKernel extends Strategy {
  val name = "Vector"
  val req: Req = Req(cc = true, blocks = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new VectorState(points, k)
}

final class VectorState(points: Array[Array[Double]], k: Int)
    extends HamerlyState(points, k) {

  private val xNormSq = new Array[Double](n)
  private val xB1 = new Array[Double](n)
  private val xB2 = new Array[Double](n)
  locally {
    var i = 0
    while (i < n) {
      val (b1, b2) = Geometry.blockNorms(points(i))
      xB1(i) = b1; xB2(i) = b2; xNormSq(i) = b1 * b1 + b2 * b2
      i += 1
    }
  }

  override protected def seedScan(i: Int, x: Array[Double], info: CentroidInfo): Unit =
    rescan(i, x, info)

  /** Full scan with the block-vector bound as a per-centroid prefilter.
    * A centroid is skipped only when its block bound exceeds the running
    * second-best distance (so both d1 and d2 stay exact for ub/lb).
    */
  protected def rescan(i: Int, x: Array[Double], info: CentroidInfo): Unit = {
    val cs = info.centroids
    var best = -1; var d1 = Double.PositiveInfinity; var d2 = Double.PositiveInfinity
    var j = 0
    while (j < k) {
      m.boundAccess += 1
      val bv = Geometry.blockLb(xNormSq(i), xB1(i), xB2(i),
        info.normSq(j), info.blockB1(j), info.blockB2(j))
      if (bv < d2) {
        val dd = cdist(x, cs(j))
        if (dd < d1) { d2 = d1; d1 = dd; best = j }
        else if (dd < d2) d2 = dd
      }
      j += 1
    }
    ub(i) = d1; lb(i) = d2
    m.boundUpdate += 2
    reassign(i, best)
  }
}
