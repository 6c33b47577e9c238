package repro.core

/** Pami20 [Xia et al., TPAMI'20]: no per-point bounds at all. Each cluster
  * keeps its radius ra (max member distance); a point in cluster a only has
  * to check the candidate centroids N_a = { j : ‖c_j − c_a‖/2 ≤ ra } (Eq. 4)
  * — candidate sets are built once per iteration on the driver.
  */
object Pami20Kernel extends Strategy {
  val name = "Pami20"
  val req: Req = Req(candidates = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new Pami20State(points, k)
}

final class Pami20State(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  private val ub = new Array[Double](n) // exact distance to assigned centroid

  override protected def reportRadii: Boolean = true
  override protected def ubOf(i: Int): Double = ub(i)

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    var i = from
    while (i < until) {
      val x = points(i)
      var best = 0; var d1 = b.cdist(x, cs(0))
      var j = 1
      while (j < k) {
        val dd = b.cdist(x, cs(j))
        if (dd < d1) { d1 = dd; best = j }
        j += 1
      }
      ub(i) = d1
      b.reassign(i, best)
      i += 1
    }
  }

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    var i = from
    while (i < until) {
      val x = points(i)
      val cand = info.candidates(assign(i))
      var best = -1; var d1 = Double.PositiveInfinity
      var z = 0
      while (z < cand.length) {
        val j = cand(z)
        val dd = b.cdist(x, cs(j))
        if (dd < d1) { d1 = dd; best = j }
        z += 1
      }
      ub(i) = d1
      b.reassign(i, best)
      i += 1
    }
  }
}
