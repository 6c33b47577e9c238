package repro.core

/** Hamerly's algorithm [SDM'10]: one upper bound and ONE global lower bound
  * per point (distance to the second-nearest centroid), i.e. the
  * "global pruning" of Section 4.2.1. O(n) bound storage.
  */
object HameKernel extends Strategy {
  val name = "Hame"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new HameState(points, k)
}

/** Hamerly's single-bound pipeline, shared by Hame, Annu, Expo and Vector:
  * per point an upper bound `ub` on the distance to its centroid and a lower
  * bound `lb` on the distance to every other one. Each step drift-updates
  * both, skips the point while max(lb, s(a)) ≥ ub, tightens ub to the exact
  * distance and retests, and only then calls `rescan`. The kernels differ
  * in which centroids `rescan` visits [Hamerly & Drake '15; Newling &
  * Fleuret, ICML'16; Bottesch et al., ICML'16].
  */
abstract class HamerlyState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  protected final val ub = new Array[Double](n)
  protected final val lb = new Array[Double](n)

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  /** Point i's scan on the state's first step: sets ub, lb and the cluster. */
  protected def seedScan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit =
    fullScan(i, x, info, b)

  /** Point i's scan after both tests failed; ub(i) is the exact d(x, c_a).
    * Sets ub, lb and the cluster.
    */
  protected def rescan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    var i = from
    while (i < until) { seedScan(i, points(i), info, b); i += 1 }
  }

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    val m = b.m
    var i = from
    while (i < until) {
      val a = assign(i)
      ub(i) += info.drifts(a)
      lb(i) -= info.maxDriftOther(a)
      m.boundUpdate += 2; m.boundAccess += 2
      val thr = math.max(lb(i), info.sc(a))
      if (thr < ub(i)) {
        val x = points(i)
        ub(i) = b.cdist(x, cs(a)) // tighten
        if (thr < ub(i)) rescan(i, x, info, b)
      }
      i += 1
    }
  }

  /** Scan all k centroids; set ub = nearest, lb = second nearest. */
  protected final def fullScan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit = {
    val best = b.nearest(x, info)
    ub(i) = b.d1; lb(i) = b.d2
    b.m.boundUpdate += 2
    b.reassign(i, best)
  }
}

final class HameState(points: Array[Array[Double]], k: Int)
    extends HamerlyState(points, k) {

  protected def rescan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit =
    fullScan(i, x, info, b)
}
