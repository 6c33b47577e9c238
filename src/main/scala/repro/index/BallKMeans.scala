package repro.index

import repro.core._

/** Pure index-based k-means [Moore, UAI'00]: traverse the ball tree each
  * iteration with a shrinking candidate-centroid set. At node N with pivot p
  * and radius r, a candidate c is dropped when d(p,c) > d(p,c*) + 2r (no
  * point under N can prefer c over the nearest candidate c*) — the general
  * form of Eq. 2. When one candidate survives, the whole node is assigned
  * through its sum vector: zero point accesses, free refinement.
  */
final class BallKMeansStrategy(kind: BallTree.Kind = BallTree.Ball, capacity: Int = 30)
    extends Strategy {
  val name: String = if (kind == BallTree.Ball) "Index" else s"Index-${kind.label}"
  val req: Req = Req()

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new BallKMeansState(points, k, BallTree.build(points, capacity, seed, kind))
}

object BallKMeansStrategy {
  val default = new BallKMeansStrategy()
}

final class BallKMeansState(points: Array[Array[Double]], k: Int, val tree: BallTree)
    extends PartitionState {
  private val n = points.length
  private val d = if (n == 0) 0 else points(0).length
  private val assign = Array.fill(n)(-1)
  val m = new Metrics
  private var moved = 0L

  def step(info: CentroidInfo): Partials = {
    val t0 = System.nanoTime()
    moved = 0
    val cs = info.centroids
    val sums = Array.ofDim[Double](k, math.max(d, 1))
    val counts = new Array[Long](k)
    val dBuf = new Array[Double](k) // distances of current candidates to pivot

    def bulkAssign(nd: BallNode, j: Int): Unit = {
      Geometry.addTo(sums(j), nd.sv); counts(j) += nd.num
      var z = nd.start
      while (z < nd.end) {
        val i = tree.perm(z)
        if (assign(i) != j) { assign(i) = j; moved += 1 }
        z += 1
      }
    }

    def rec(nd: BallNode, cand: Array[Int]): Unit = {
      m.nodeAccess += 1
      var best = -1; var d1 = Double.PositiveInfinity
      var c = 0
      while (c < cand.length) {
        m.dist += 1
        val dd = Geometry.dist(nd.pivot, cs(cand(c)))
        dBuf(c) = dd
        if (dd < d1) { d1 = dd; best = cand(c) }
        c += 1
      }
      val thr = d1 + 2.0 * nd.radius
      var kept = 0
      c = 0
      while (c < cand.length) { if (dBuf(c) <= thr) kept += 1; c += 1 }
      if (kept == 1) { bulkAssign(nd, best); return }
      val next = new Array[Int](kept)
      var w = 0
      c = 0
      while (c < cand.length) {
        if (dBuf(c) <= thr) { next(w) = cand(c); w += 1 }
        c += 1
      }
      if (nd.isLeaf) {
        var z = nd.start
        while (z < nd.end) {
          val i = tree.perm(z)
          val x = points(i)
          var bj = next(0); var bd = Double.PositiveInfinity
          var c2 = 0
          while (c2 < next.length) {
            m.dist += 1; m.pointAccess += 1
            val dd = Geometry.distSq(x, cs(next(c2)))
            if (dd < bd) { bd = dd; bj = next(c2) }
            c2 += 1
          }
          if (assign(i) != bj) { assign(i) = bj; moved += 1 }
          Geometry.addTo(sums(bj), x); counts(bj) += 1
          z += 1
        }
      } else {
        rec(nd.left, next)
        rec(nd.right, next)
      }
    }

    if (tree.root != null) rec(tree.root, IndexSort.iota(k))
    val t1 = System.nanoTime()
    new Partials(sums, counts, null, moved, n.toLong, m.snapshot(), t1 - t0, 0L)
  }

  def finalSse(centroids: Array[Array[Double]]): Double = {
    var s = 0.0; var i = 0
    while (i < n) { s += Geometry.distSq(points(i), centroids(assign(i))); i += 1 }
    s
  }

  def assignments: Array[Int] = assign.clone()
}
