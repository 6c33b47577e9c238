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
    while (i < until) { b.reassign(i, b.nearest(points(i), cs)); i += 1 }
  }
}
