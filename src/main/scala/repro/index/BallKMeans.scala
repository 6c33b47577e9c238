package repro.index

import repro.core._

/** Pure index-based k-means ("INDE") [Moore, UAI'00]: every iteration runs
  * the `CandidateFilter` traversal from the root. A node left with one
  * candidate is assigned whole through its sum vector: zero point accesses,
  * free refinement.
  */
final class BallKMeansStrategy(kind: BallTree.Kind = BallTree.Ball, capacity: Int = 30)
    extends Strategy {
  val name: String = if (kind == BallTree.Ball) "Index" else s"Index-${kind.label}"
  val req: Req = Req()

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new BallKMeansState(points, k, kind, capacity, seed)
}

object BallKMeansStrategy {
  val default = new BallKMeansStrategy()
}

final class BallKMeansState(points: Array[Array[Double]], k: Int, kind: BallTree.Kind,
                            capacity: Int, seed: Long)
    extends PointState(points, k) {
  private val tree = BallTree.build(points, capacity, seed, kind)
  private val filter = new CandidateFilter(points, k, tree, assign, m)

  def step(info: CentroidInfo): Partials = {
    val t0 = System.nanoTime()
    val sums = Array.ofDim[Double](k, math.max(d, 1))
    val counts = new Array[Long](k)
    val moved = filter.run(info.centroids, sums, counts, null)
    val t1 = System.nanoTime()
    new Partials(sums, counts, null, moved, n.toLong, m.snapshot(), t1 - t0, 0L)
  }
}

/** Moore's candidate filtering over a ball tree [Moore, UAI'00], the one
  * root-to-leaf traversal of this repository: INDE runs it every iteration
  * and UniK on its root passes. At node N with pivot p and radius r, a
  * candidate c is dropped when d(p,c) > d(p,c*) + 2r (no point under N can
  * prefer c over the nearest candidate c*) — the general form of Eq. 2. A
  * node left with one candidate goes to it whole through its sum vector;
  * a leaf's points are scanned against the surviving candidates.
  *
  * Assignments go into `assign` and counters into `m`, both owned by the
  * calling state.
  */
final class CandidateFilter(points: Array[Array[Double]], k: Int, tree: BallTree,
                            assign: Array[Int], m: Metrics) extends Serializable {
  private val dBuf = new Array[Double](k) // d(pivot, cand(c)) at the current node
  private var pBuf: Array[Double] = null  // a point's squared distances; seeding only

  /** Assigns every point to its nearest centroid, adds points and whole
    * nodes into `sums`/`counts` and returns the number of points that
    * changed cluster. `seeder`, when not null, sees every filtering
    * decision (UniK's bound seeding).
    */
  def run(cs: Array[Array[Double]], sums: Array[Array[Double]], counts: Array[Long],
          seeder: CandidateFilter.Seeder): Long = {
    if (seeder != null && pBuf == null) pBuf = new Array[Double](k)
    val pd = if (seeder == null) null else pBuf
    var moved = 0L

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
      if (kept == 1) {
        Geometry.addTo(sums(best), nd.sv); counts(best) += nd.num
        moved += CandidateFilter.assignNode(tree, assign, nd, best)
        if (seeder != null) seeder.node(nd, cand, dBuf, best, d1)
        return
      }
      val next = new Array[Int](kept)
      var w = 0
      c = 0
      while (c < cand.length) {
        if (dBuf(c) <= thr) { next(w) = cand(c); w += 1 }
        c += 1
      }
      if (seeder != null) seeder.split(nd, cand, dBuf, thr)
      if (nd.isLeaf) {
        var z = nd.start
        while (z < nd.end) {
          val i = tree.perm(z)
          val x = points(i)
          var b = 0; var bd = Double.PositiveInfinity
          var c2 = 0
          while (c2 < next.length) {
            m.dist += 1; m.pointAccess += 1
            val dd = Geometry.distSq(x, cs(next(c2)))
            if (pd != null) pd(c2) = dd
            if (dd < bd) { bd = dd; b = c2 }
            c2 += 1
          }
          val bj = next(b)
          if (assign(i) != bj) { assign(i) = bj; moved += 1 }
          Geometry.addTo(sums(bj), x); counts(bj) += 1
          if (seeder != null) seeder.point(i, nd, next, pd, b)
          z += 1
        }
      } else {
        rec(nd.left, next)
        rec(nd.right, next)
      }
    }

    if (tree.root != null) rec(tree.root, IndexSort.iota(k))
    moved
  }
}

object CandidateFilter {

  /** Observer of one traversal's filtering decisions. In every call
    * `dist(c)` = d(pivot of `nd`, centroid `cand(c)`) for c < cand.length.
    */
  trait Seeder {
    /** `nd` went whole to centroid `best`, at distance `d1` from its pivot. */
    def node(nd: BallNode, cand: Array[Int], dist: Array[Double], best: Int, d1: Double): Unit
    /** `nd` keeps more than one candidate; those with dist(c) > thr were dropped. */
    def split(nd: BallNode, cand: Array[Int], dist: Array[Double], thr: Double): Unit
    /** Point `i` of `leaf` went to `kept(b)`; `distSq(c)` is its squared
      * distance to centroid `kept(c)`.
      */
    def point(i: Int, leaf: BallNode, kept: Array[Int], distSq: Array[Double], b: Int): Unit
  }

  /** Assigns every point under `nd` to `j`; returns how many changed cluster. */
  def assignNode(tree: BallTree, assign: Array[Int], nd: BallNode, j: Int): Int = {
    var moved = 0
    var z = nd.start
    while (z < nd.end) {
      val i = tree.perm(z)
      if (assign(i) != j) { assign(i) = j; moved += 1 }
      z += 1
    }
    moved
  }
}
