package repro.core

/** The unaccelerated baseline [Lloyd '82]: every iteration computes all n·k
  * distances in assignment and rescans all n points in refinement.
  */
object LloydKernel extends Strategy {
  val name = "Lloyd"
  val req: Req = Req()

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new LloydState(points, k)
}

final class LloydState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  override protected def incrementalRefine: Boolean = false

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    var i = from
    while (i < until) {
      val x = points(i)
      var best = 0
      var bd = b.cdist(x, cs(0))
      var j = 1
      while (j < k) {
        val dd = b.cdist(x, cs(j))
        if (dd < bd) { bd = dd; best = j }
        j += 1
      }
      b.reassign(i, best)
      i += 1
    }
  }
}
