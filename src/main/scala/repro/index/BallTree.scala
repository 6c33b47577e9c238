package repro.index

import repro.core.Geometry

/** The paper's advanced index node (Definition 1): pivot p, radius r, sum
  * vector sv, parent distance ψ, covered-point count num, height h. Child
  * points are stored as a range [start, end) into the tree's permutation
  * array so whole-node assignment never touches point vectors.
  */
final class BallNode(
    val id: Int,
    val pivot: Array[Double],
    val radius: Double,
    val sv: Array[Double],
    val num: Int,
    val start: Int,
    val end: Int,
    val psi: Double,    // distance from this pivot to the parent's pivot
    val height: Int,
    val left: BallNode,
    val right: BallNode
) extends Serializable {
  def isLeaf: Boolean = left == null
}

/** A ball-cover tree over a point set. `kind` selects the construction rule:
  *  - Ball  : Omohundro-style farthest-pair split (the paper's default)
  *  - HKT   : hierarchical 2-means split [Fukunaga & Narendra '75]
  *  - MTree : random-pivot split (M-tree-lite; see DESIGN.md substitutions)
  *  - Cover : half-radius covering split (Cover-tree-lite)
  * All four produce the same node type, so one clustering kernel serves all.
  */
final class BallTree(
    val points: Array[Array[Double]],
    val perm: Array[Int],
    val root: BallNode,
    val nodeCount: Int,
    val leafCount: Int,
    val capacity: Int,
    val pointPsi: Array[Double], // per point: distance to its leaf's pivot
    val buildNanos: Long
) extends Serializable {

  def leaves: Seq[BallNode] = {
    val buf = new scala.collection.mutable.ArrayBuffer[BallNode]
    def rec(nd: BallNode): Unit =
      if (nd.isLeaf) buf += nd else { rec(nd.left); rec(nd.right) }
    if (root != null) rec(root)
    buf.toSeq
  }

  /** Indices of all points with ‖x − q‖ ≤ r (counts node visits/distances
    * into the supplied counters via the callback).
    */
  def rangeSearch(q: Array[Double], r: Double,
                  onNode: () => Unit = () => (), onDist: () => Unit = () => ()): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuffer[Int]
    def rec(nd: BallNode): Unit = {
      onNode()
      onDist()
      val dp = Geometry.dist(q, nd.pivot)
      if (dp - nd.radius > r) () // disjoint
      else if (dp + nd.radius <= r) { // fully inside
        var z = nd.start
        while (z < nd.end) { out += perm(z); z += 1 }
      } else if (nd.isLeaf) {
        var z = nd.start
        while (z < nd.end) {
          onDist()
          if (Geometry.dist(q, points(perm(z))) <= r) out += perm(z)
          z += 1
        }
      } else { rec(nd.left); rec(nd.right) }
    }
    if (root != null) rec(root)
    out.toArray
  }
}

object BallTree {

  sealed trait Kind { def label: String }
  case object Ball extends Kind { val label = "Ball-tree" }
  case object HKT extends Kind { val label = "HKT" }
  case object MTree extends Kind { val label = "M-tree" }
  case object Cover extends Kind { val label = "Cover-tree" }

  def build(points: Array[Array[Double]], capacity: Int = 30, seed: Long = 7L,
            kind: Kind = Ball): BallTree = {
    val t0 = System.nanoTime()
    val n = points.length
    val perm = Array.tabulate(n)(identity)
    val rnd = new scala.util.Random(seed)
    var nodeId = 0
    var leafCnt = 0
    val pointPsi = new Array[Double](n)
    val sq = new Array[Double](n)

    /** sq(z) = distSq(q, point at perm(z)) for z in [start, end): four points
      * per `Geometry.distSq4` pass.
      */
    def distSqTo(q: Array[Double], start: Int, end: Int): Unit = {
      var z = start
      while (z + 4 <= end) {
        Geometry.distSq4(q, points(perm(z)), points(perm(z + 1)), points(perm(z + 2)),
          points(perm(z + 3)), sq, z)
        z += 4
      }
      while (z < end) { sq(z) = Geometry.distSq(q, points(perm(z))); z += 1 }
    }

    def mkNode(start: Int, end: Int, parentPivot: Array[Double], height: Int): BallNode = {
      val num = end - start
      val d = if (n > 0) points(0).length else 0
      val sv = new Array[Double](d)
      var z = start
      while (z < end) { Geometry.addTo(sv, points(perm(z))); z += 1 }
      val pivot = sv.map(_ / math.max(1, num))
      distSqTo(pivot, start, end)
      var radius = 0.0
      z = start
      while (z < end) {
        val dd = math.sqrt(sq(z))
        if (dd > radius) radius = dd
        z += 1
      }
      val psi = if (parentPivot == null) 0.0 else Geometry.dist(pivot, parentPivot)
      val id = nodeId; nodeId += 1

      if (num <= capacity || radius == 0.0) {
        leafCnt += 1
        z = start
        while (z < end) { pointPsi(perm(z)) = math.sqrt(sq(z)); z += 1 }
        new BallNode(id, pivot, radius, sv, num, start, end, psi, height, null, null)
      } else {
        val mid = split(start, end, pivot, radius)
        val left = mkNode(start, mid, pivot, height + 1)
        val right = mkNode(mid, end, pivot, height + 1)
        new BallNode(id, pivot, radius, sv, num, start, end, psi, height, left, right)
      }
    }

    /** The first point of perm[start, end) farthest from q. */
    def farthest(q: Array[Double], start: Int, end: Int): Int = {
      distSqTo(q, start, end)
      var f = perm(start); var best = -1.0
      var z = start
      while (z < end) {
        if (sq(z) > best) { best = sq(z); f = perm(z) }
        z += 1
      }
      f
    }

    /** Partition perm[start,end) into two halves per `kind`; returns the
      * midpoint (both sides guaranteed non-empty).
      */
    def split(start: Int, end: Int, pivot: Array[Double], radius: Double): Int = {
      val num = end - start
      val (c1, c2) = kind match {
        case Ball =>
          // farthest point from a random seed, then farthest from that
          val f1 = farthest(points(perm(start + rnd.nextInt(num))), start, end)
          val f2 = farthest(points(f1), start, end)
          (points(f1), points(f2))
        case MTree =>
          val a = perm(start + rnd.nextInt(num))
          var b = perm(start + rnd.nextInt(num))
          var guard = 0
          while (b == a && guard < 8) { b = perm(start + rnd.nextInt(num)); guard += 1 }
          (points(a), points(b))
        case HKT =>
          // two steps of 2-means from random seeds
          var a = points(perm(start + rnd.nextInt(num))).clone
          var b = points(perm(start + rnd.nextInt(num))).clone
          var it = 0
          while (it < 2) {
            val d0 = a.length
            val sa = new Array[Double](d0); val sb = new Array[Double](d0)
            var na = 0; var nb = 0
            var z = start
            while (z < end) {
              val x = points(perm(z))
              if (Geometry.distSq(x, a) <= Geometry.distSq(x, b)) { Geometry.addTo(sa, x); na += 1 }
              else { Geometry.addTo(sb, x); nb += 1 }
              z += 1
            }
            if (na > 0) a = sa.map(_ / na)
            if (nb > 0) b = sb.map(_ / nb)
            it += 1
          }
          (a, b)
        case Cover =>
          // covering split: inside-half-radius vs outside
          (pivot, null)
      }

      var lo = start; var hi = end - 1
      if (c2 == null) {
        // Cover: left = within radius/2 of pivot
        val thr = radius * 0.5
        while (lo <= hi) {
          if (Geometry.dist(points(perm(lo)), c1) <= thr) lo += 1
          else { val t = perm(lo); perm(lo) = perm(hi); perm(hi) = t; hi -= 1 }
        }
      } else {
        while (lo <= hi) {
          val x = points(perm(lo))
          if (Geometry.distSq(x, c1) <= Geometry.distSq(x, c2)) lo += 1
          else { val t = perm(lo); perm(lo) = perm(hi); perm(hi) = t; hi -= 1 }
        }
      }
      var mid = lo
      if (mid == start || mid == end) mid = start + num / 2 // degenerate: halve
      mid
    }

    val root = if (n == 0) null else mkNode(0, n, null, 0)
    new BallTree(points, perm, root, nodeId, leafCnt, capacity, pointPsi,
      System.nanoTime() - t0)
  }
}
