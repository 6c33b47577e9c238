package repro.index

import repro.core._

/** Pre-assignment search [Broder et al., WSDM'14] (Section 3.2): every
  * iteration, for each centroid c_j, a ball-tree range search collects the
  * points within ½·min-other-centroid-distance of c_j — provably closest to
  * c_j — and assigns them in batch; leftovers fall back to a Lloyd scan.
  * k range searches per iteration make this slow for large k, matching its
  * low leaderboard rank in the paper.
  */
object SearchKernel extends Strategy {
  val name = "Search"
  val req: Req = Req(cc = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new SearchState(points, k, seed)
}

final class SearchState(points: Array[Array[Double]], k: Int, seed: Long)
    extends SequentialState(points, k) {

  private val tree = BallTree.build(points, 30, seed)

  private val done = new Array[Boolean](n)

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  /** The k range searches, one centroid after another. */
  override protected def prelude(info: CentroidInfo): Option[Block] = {
    val b = newBlock()
    val cs = info.centroids
    java.util.Arrays.fill(done, false)
    var j = 0
    while (j < k) {
      val thr = 0.5 * info.nearestOther(j)
      if (thr > 0 && !thr.isInfinity) {
        val hits = tree.rangeSearch(cs(j), thr, () => b.m.nodeAccess += 1, () => b.m.dist += 1)
        var z = 0
        while (z < hits.length) {
          val i = hits(z)
          if (!done(i)) { done(i) = true; b.reassign(i, j) }
          z += 1
        }
      }
      j += 1
    }
    Some(b)
  }

  /** The Lloyd scan of the points no range search assigned. */
  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    var i = from
    while (i < until) {
      if (!done(i)) b.reassign(i, b.nearest(points(i), cs))
      i += 1
    }
  }
}
