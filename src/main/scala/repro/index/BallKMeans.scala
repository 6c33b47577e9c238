package repro.index

import java.util.concurrent.{ForkJoinTask, RecursiveAction}

import repro.core._

/** Pure index-based k-means ("INDE") [Moore, UAI'00]: every iteration runs
  * the `CandidateFilter` traversal from the root. A node left with one
  * candidate is assigned whole through its sum vector: zero point accesses,
  * free refinement. UniK-multiple runs this state too.
  */
final class BallKMeansStrategy(kind: BallTree.Kind = BallTree.Ball) extends Strategy {
  val name: String = if (kind == BallTree.Ball) "Index" else s"Index-${kind.label}"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new BallKMeansState(points, k, kind, seed)
}

final class BallKMeansState(points: Array[Array[Double]], k: Int, kind: BallTree.Kind, seed: Long)
    extends PointState(points, k) {
  private val tree = BallTree.build(points, seed = seed, kind = kind)
  private val filter = new CandidateFilter(points, k, tree, assign, m)

  protected def assignPhase(info: CentroidInfo): Long = {
    clearSums()
    filter.run(info.centroids, sums, counts, null)
  }
}

/** Moore's candidate filtering over a ball tree [Moore, UAI'00], the one
  * root-to-leaf traversal of this repository: INDE and UniK-multiple run it
  * every iteration, the other UniK modes on their root passes. At node N with
  * pivot p and radius r, a candidate c is dropped when d(p,c) > d(p,c*) + 2r
  * (no point under N can prefer c over the nearest candidate c*) — the general
  * form of Eq. 2. A node left with one candidate goes to it whole through its
  * sum vector; a leaf's points are scanned against the surviving candidates.
  *
  * Both scans are batched: a node's pivot against its candidates through
  * `Geometry.distSqMany`, and a leaf's points against the candidates kept
  * through `LeafScan`, which gathers them into a panel once per leaf and
  * scans each point with `Geometry.distSqPanel`.
  *
  * A split node holding at least two blocks' worth of points
  * (`Blocks.count`) hands its two subtrees to separate tasks on the
  * ForkJoin pool; each task has its own distance buffers, counters and
  * mover count and writes only its own nodes' and points' slots (`assign`,
  * and a seeder's per-node and per-point bounds). A forking task hands its
  * leaf scratch to its left fork, and a fork drops its own when its walk
  * ends, so at most one leaf panel (d × k doubles) per pool thread is
  * alive during a traversal. A forking task adds its forks' counters and
  * movers right after the join. Each task records every node it emits (a
  * node that goes whole, or a scanned leaf) at the node's first tree
  * position, `start`; the emitted ranges are disjoint and cover [0, n), so
  * one pass over the positions after the walk adds them into
  * `sums`/`counts` (and hands them to the seeder's `placed`) in increasing
  * `start` order, which is depth-first order, and the result is
  * bit-identical whatever the split. A partition under two blocks (or any
  * inside `Blocks.oneThread`) runs as one task on the caller.
  *
  * Assignments go into `assign` and counters into `m`, both owned by the
  * calling state.
  */
final class CandidateFilter(points: Array[Array[Double]], k: Int, tree: BallTree,
                            assign: Array[Int], m: Metrics) extends Serializable {

  private val d = if (points.isEmpty) 0 else points(0).length

  /** One task's walk of a subtree: its scratch, counters and movers. */
  private final class Walk(val m: Metrics) {
    val dBuf = new Array[Double](k)    // d(pivot, cand(c)) at the current node
    var leaf: LeafScan = null          // a leaf's kept candidates and a point's distances
    var moved = 0L
  }

  /** Assigns every point to its nearest centroid, adds points and whole
    * nodes into `sums`/`counts` and returns the number of points that
    * changed cluster. `seeder`, when not null, sees every filtering
    * decision (UniK's bound seeding).
    */
  def run(cs: Array[Array[Double]], sums: Array[Array[Double]], counts: Array[Long],
          seeder: CandidateFilter.Seeder): Long = {
    val n = points.length
    val blocks = Blocks.count(n)
    // A node this large forks (none does in one block); a walk's root is the
    // only node it can fork at.
    val forkAt = (2L * n / blocks).toInt
    // The node emitted at each first tree position: it went whole to
    // `to(p)`, or it is a scanned leaf and `to(p)` is -1.
    val at = new Array[BallNode](n)
    val to = new Array[Int](n)

    def place(nd: BallNode, j: Int): Unit = {
      if (j >= 0) { Geometry.addTo(sums(j), nd.sv); counts(j) += nd.num }
      else {
        var p = nd.start
        while (p < nd.end) {
          val i = tree.perm(p)
          Geometry.addTo(sums(assign(i)), points(i)); counts(assign(i)) += 1
          p += 1
        }
      }
      if (seeder != null) seeder.placed(nd, j)
    }

    def emit(nd: BallNode, j: Int): Unit = { at(nd.start) = nd; to(nd.start) = j }

    def rec(w: Walk, nd: BallNode, cand: Array[Int]): Unit = {
      val m = w.m; val dBuf = w.dBuf
      m.nodeAccess += 1
      Geometry.distSqMany(nd.pivot, cs, cand, cand.length, dBuf)
      m.dist += cand.length
      var best = -1; var d1 = Double.PositiveInfinity
      var c = 0
      while (c < cand.length) {
        val dd = math.sqrt(dBuf(c))
        dBuf(c) = dd
        if (dd < d1) { d1 = dd; best = cand(c) }
        c += 1
      }
      val thr = d1 + 2.0 * nd.radius
      var kept = 0
      c = 0
      while (c < cand.length) { if (dBuf(c) <= thr) kept += 1; c += 1 }
      if (kept == 1) {
        w.moved += CandidateFilter.assignNode(tree, assign, nd, best)
        if (seeder != null) seeder.node(nd, cand, dBuf, best, d1, m)
        emit(nd, best)
        return
      }
      val next = new Array[Int](kept)
      var v = 0
      c = 0
      while (c < cand.length) {
        if (dBuf(c) <= thr) { next(v) = cand(c); v += 1 }
        c += 1
      }
      if (seeder != null) seeder.split(nd, cand, dBuf, thr)
      if (nd.isLeaf) {
        if (w.leaf == null) w.leaf = new LeafScan(d, k)
        val leaf = w.leaf
        leaf.load(cs, next)
        var z = nd.start
        while (z < nd.end) {
          val i = tree.perm(z)
          val x = points(i)
          val b = leaf.nearest(x)
          m.dist += next.length; m.pointAccess += next.length
          val bj = next(b)
          if (assign(i) != bj) { assign(i) = bj; w.moved += 1 }
          if (seeder != null) seeder.point(i, nd, next, leaf.sq, b, m)
          z += 1
        }
        emit(nd, -1)
      } else if (nd.num >= forkAt) {
        val l = new Walk(new Metrics); val r = new Walk(new Metrics)
        // w scans no leaf after forking, so its scratch can go to l.
        l.leaf = w.leaf; w.leaf = null
        ForkJoinTask.invokeAll(task { rec(l, nd.left, next); l.leaf = null },
                               task { rec(r, nd.right, next); r.leaf = null })
        w.m.add(l.m); w.m.add(r.m)
        w.moved += l.moved + r.moved
      } else {
        rec(w, nd.left, next)
        rec(w, nd.right, next)
      }
    }

    if (tree.root == null) 0L
    else {
      val top = new Walk(m)
      rec(top, tree.root, IndexSort.iota(k))
      var p = 0
      while (p < n) { place(at(p), to(p)); p = at(p).end }
      top.moved
    }
  }

  private def task(body: => Unit): RecursiveAction =
    new RecursiveAction { def compute(): Unit = body }
}

object CandidateFilter {

  /** Observer of one traversal's filtering decisions. In every call
    * `dist(c)` = d(pivot of `nd`, centroid `cand(c)`) for c < cand.length.
    * `node`, `split` and `point` come from the task walking `nd`'s subtree,
    * concurrently with other subtrees: they may write only slots of `nd`,
    * its descendants and their points, and count into the task's `m`.
    * `placed` comes from the calling thread, in depth-first order.
    */
  trait Seeder {
    /** `nd` went whole to centroid `best`, at distance `d1` from its pivot. */
    def node(nd: BallNode, cand: Array[Int], dist: Array[Double], best: Int, d1: Double,
             m: Metrics): Unit
    /** `nd` keeps more than one candidate; those with dist(c) > thr were dropped. */
    def split(nd: BallNode, cand: Array[Int], dist: Array[Double], thr: Double): Unit
    /** Point `i` of `leaf` went to `kept(b)`; `distSq(c)` is its squared
      * distance to centroid `kept(c)`.
      */
    def point(i: Int, leaf: BallNode, kept: Array[Int], distSq: Array[Double], b: Int,
              m: Metrics): Unit
    /** `nd` went whole to `to`, or, with `to` = -1, is a leaf whose points
      * were scanned; called once per node or leaf, in depth-first order.
      */
    def placed(nd: BallNode, to: Int): Unit
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
