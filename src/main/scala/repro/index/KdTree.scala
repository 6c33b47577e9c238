package repro.index

import repro.core._

/** kd-tree [Bentley '75] with per-node bounding boxes and sum vectors, plus
  * the filtering k-means of Kanungo et al. [TPAMI'02] / Pelleg-Moore
  * [KDD'99]. Leaves hold a single point (the structure has no capacity
  * parameter — Section 7.2.1), which is why it has ~capacity× more nodes
  * than a Ball-tree over the same data.
  */
final class KdNode(
    val lo: Array[Double],
    val hi: Array[Double],
    val sv: Array[Double],
    val num: Int,
    val start: Int,
    val end: Int,
    val left: KdNode,
    val right: KdNode
) extends Serializable {
  def isLeaf: Boolean = left == null
}

final class KdTree(
    val points: Array[Array[Double]],
    val perm: Array[Int],
    val root: KdNode,
    val nodeCount: Int,
    val buildNanos: Long
) extends Serializable

object KdTree {

  def build(points: Array[Array[Double]]): KdTree = {
    PointState.requireCoordinates(points)
    val t0 = System.nanoTime()
    val n = points.length
    val perm = Array.tabulate(n)(identity)
    var nodes = 0

    def mk(start: Int, end: Int): KdNode = {
      nodes += 1
      val d = points(0).length
      val lo = Array.fill(d)(Double.PositiveInfinity)
      val hi = Array.fill(d)(Double.NegativeInfinity)
      val sv = new Array[Double](d)
      var z = start
      while (z < end) {
        val x = points(perm(z))
        var i = 0
        while (i < d) {
          if (x(i) < lo(i)) lo(i) = x(i)
          if (x(i) > hi(i)) hi(i) = x(i)
          sv(i) += x(i)
          i += 1
        }
        z += 1
      }
      if (end - start <= 1) new KdNode(lo, hi, sv, end - start, start, end, null, null)
      else {
        // split at the median of the widest dimension
        var dim = 0; var width = -1.0
        var i = 0
        while (i < d) { if (hi(i) - lo(i) > width) { width = hi(i) - lo(i); dim = i }; i += 1 }
        val slice = perm.slice(start, end).sortBy(points(_)(dim))
        System.arraycopy(slice, 0, perm, start, slice.length)
        val mid = start + (end - start) / 2
        if (width <= 0.0) {
          // all duplicates: force a balanced split without recursion issues
          new KdNode(lo, hi, sv, end - start, start, end, null, null)
        } else {
          new KdNode(lo, hi, sv, end - start, start, end, mk(start, mid), mk(mid, end))
        }
      }
    }

    val root = if (n == 0) null else mk(0, n)
    new KdTree(points, perm, root, nodes, System.nanoTime() - t0)
  }
}

/** k-means via kd-tree filtering: at each cell keep only the candidate
  * centroids that can be nearest for some point of the cell's box; assign
  * the whole cell through its sum vector once one candidate remains.
  */
object KdKMeans extends Strategy {
  val name = "KdTree"
  val req: Req = Req()

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new KdKMeansState(points, k)
}

final class KdKMeansState(points: Array[Array[Double]], k: Int)
    extends PointState(points, k) {
  private val tree = if (n == 0) null else KdTree.build(points)

  protected def assignPhase(info: CentroidInfo): Long = {
    var moved = 0L
    val cs = info.centroids
    clearSums()

    def bulkAssign(nd: KdNode, j: Int): Unit = {
      Geometry.addTo(sums(j), nd.sv); counts(j) += nd.num
      var z = nd.start
      while (z < nd.end) {
        val i = tree.perm(z)
        if (assign(i) != j) { assign(i) = j; moved += 1 }
        z += 1
      }
    }

    /** true iff z is dominated by zs w.r.t. the box (cannot be nearest
      * for any point inside) — corner test of Kanungo et al.
      */
    def farther(z: Array[Double], zs: Array[Double], lo: Array[Double], hi: Array[Double]): Boolean = {
      var dz = 0.0; var dzs = 0.0
      var i = 0
      while (i < d) {
        val v = if (z(i) > zs(i)) hi(i) else lo(i)
        val a = z(i) - v; val b = zs(i) - v
        dz += a * a; dzs += b * b
        i += 1
      }
      dz > dzs
    }

    val sq = new Array[Double](k)

    /** The first nearest of `cand` to q, by squared distance (batched). */
    def nearestSq(q: Array[Double], cand: Array[Int]): Int = {
      Geometry.distSqMany(q, cs, cand, cand.length, sq)
      m.dist += cand.length
      var best = cand(0); var bd = Double.PositiveInfinity
      var c = 0
      while (c < cand.length) {
        if (sq(c) < bd) { bd = sq(c); best = cand(c) }
        c += 1
      }
      best
    }

    def rec(nd: KdNode, cand: Array[Int]): Unit = {
      m.nodeAccess += 1
      if (nd.isLeaf) {
        var z = nd.start
        while (z < nd.end) {
          val i = tree.perm(z)
          val x = points(i)
          val best = nearestSq(x, cand)
          m.pointAccess += cand.length
          if (assign(i) != best) { assign(i) = best; moved += 1 }
          Geometry.addTo(sums(best), x); counts(best) += 1
          z += 1
        }
      } else {
        // nearest candidate to the cell midpoint
        val mid = new Array[Double](d)
        var i = 0
        while (i < d) { mid(i) = 0.5 * (nd.lo(i) + nd.hi(i)); i += 1 }
        val zs = nearestSq(mid, cand)
        val kept = cand.filter(j => j == zs || !farther(cs(j), cs(zs), nd.lo, nd.hi))
        if (kept.length == 1) bulkAssign(nd, kept(0))
        else { rec(nd.left, kept); rec(nd.right, kept) }
      }
    }

    if (tree != null && tree.root != null) rec(tree.root, IndexSort.iota(k))
    moved
  }
}
