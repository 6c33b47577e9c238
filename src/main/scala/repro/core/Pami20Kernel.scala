package repro.core

import java.util.concurrent.atomic.AtomicReferenceArray

/** Pami20 [Xia et al., TPAMI'20]: no per-point bounds at all. Each cluster
  * keeps its radius ra (max member distance); a point in cluster a only has
  * to check the candidate centroids N_a = { j : ‖c_j − c_a‖/2 ≤ ra } (Eq. 4).
  * Each state takes the radii over its own points only, which is all Eq. 4's
  * proof needs: on Spark a partition's candidate sets are never larger than
  * with the radii of all points, and its assignments stay exact.
  */
object Pami20Kernel extends Strategy {
  val name = "Pami20"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new Pami20State(points, k)
}

final class Pami20State(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  private val ub = new Array[Double](n) // exact distance to assigned centroid
  private var hasUb = false
  @transient private var candidates: Pami20Candidates = null // this step's

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  /** From the state's second step on, sets this step's candidate sets. */
  override protected def prelude(info: CentroidInfo): Option[Block] = {
    if (hasUb) candidates = new Pami20Candidates(info, radii(info.drifts))
    hasUb = true
    None
  }

  /** Each cluster's largest `ub` over this state's points, measured against
    * the previous centroids, padded by the cluster's drift so that it still
    * covers them.
    */
  private def radii(drifts: Array[Double]): Array[Double] = {
    val r = new Array[Double](k)
    var i = 0
    while (i < n) { val a = assign(i); if (ub(i) > r(a)) r(a) = ub(i); i += 1 }
    var j = 0
    while (j < k) { r(j) += drifts(j); j += 1 }
    r
  }

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    var i = from
    while (i < until) {
      val best = b.nearest(points(i), info)
      ub(i) = b.d1
      b.reassign(i, best)
      i += 1
    }
  }

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    var i = from
    while (i < until) {
      val x = points(i)
      val cand = candidates(assign(i))
      val sq = b.distSqs(x, cs, cand, cand.length)
      var best = -1; var d1 = Double.PositiveInfinity
      var z = 0
      while (z < cand.length) {
        val dd = math.sqrt(sq(z))
        if (dd < d1) { d1 = dd; best = cand(z) }
        z += 1
      }
      ub(i) = d1
      b.reassign(i, best)
      i += 1
    }
  }
}

/** One step's Pami20 candidate sets (Eq. 4): cluster a's are the centroids b
  * with ½·cc(a)(b) ≤ `radii(a)`, a included. Row a is built from `info.cc(a)`
  * on its first read and published once, as `CentroidInfo` publishes its rows.
  */
private[core] final class Pami20Candidates(info: CentroidInfo, radii: Array[Double]) {
  private val rows = new AtomicReferenceArray[Array[Int]](info.k)

  def apply(a: Int): Array[Int] = CentroidInfo.memo(rows, a) {
    val ra = radii(a)
    val row = info.cc(a)
    val buf = new scala.collection.mutable.ArrayBuffer[Int](8)
    var b = 0
    while (b < info.k) {
      if (b == a || row(b) * 0.5 <= ra) buf += b
      b += 1
    }
    buf.toArray
  }
}
