package repro.index

import java.util.concurrent.{ForkJoinTask, RecursiveAction}

import scala.collection.mutable.ArrayBuffer

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
  * Both scans are batched (`Geometry.distSqMany`): a node's pivot against
  * its candidates, and a leaf point against the candidates kept.
  *
  * A split node holding at least two blocks' worth of points
  * (`Blocks.count`) hands its two subtrees to separate tasks on the
  * ForkJoin pool; each task has its own distance buffers, counters and
  * mover count and writes only its own nodes' and points' slots (`assign`,
  * and a seeder's per-node and per-point bounds). Each task records the
  * nodes and leaves it emitted, and after the join they are added into
  * `sums`/`counts` (and handed to the seeder's `placed`) in the depth-first
  * order of a one-task walk, so the result is bit-identical whatever the
  * split. A partition under two blocks (or any inside `Blocks.oneThread`)
  * runs as one task on the caller, which adds each node and point as it
  * assigns it.
  *
  * Assignments go into `assign` and counters into `m`, both owned by the
  * calling state.
  */
final class CandidateFilter(points: Array[Array[Double]], k: Int, tree: BallTree,
                            assign: Array[Int], m: Metrics) extends Serializable {

  /** One task's walk of a subtree: what it emitted in depth-first order
    * (a node that went whole to `to`, or a scanned leaf with `to` = -1),
    * or the two walks it forked its root's children to.
    */
  private final class Walk(val m: Metrics) {
    val dBuf = new Array[Double](k)    // d(pivot, cand(c)) at the current node
    val pBuf = new Array[Double](k)    // a leaf point's squared distances
    var moved = 0L
    val nodes = new ArrayBuffer[BallNode]
    val to = new ArrayBuffer[Int]
    var left: Walk = null
    var right: Walk = null
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
    // One task (one block) adds as it goes, a leaf's points as it scans
    // them; several record what they emit and `replay` adds it after the join.
    val direct = blocks == 1
    // A node this large forks; a walk's root is the only node it can fork at.
    val forkAt = if (direct) Int.MaxValue else (2L * n / blocks).toInt

    def place(nd: BallNode, j: Int, scanned: Boolean): Unit = {
      if (j >= 0) { Geometry.addTo(sums(j), nd.sv); counts(j) += nd.num }
      else if (!scanned) {
        var p = nd.start
        while (p < nd.end) {
          val i = tree.perm(p)
          Geometry.addTo(sums(assign(i)), points(i)); counts(assign(i)) += 1
          p += 1
        }
      }
      if (seeder != null) seeder.placed(nd, j)
    }

    def emit(w: Walk, nd: BallNode, j: Int): Unit =
      if (direct) place(nd, j, scanned = true) else { w.nodes += nd; w.to += j }

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
        emit(w, nd, best)
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
        val pd = w.pBuf
        var z = nd.start
        while (z < nd.end) {
          val i = tree.perm(z)
          val x = points(i)
          Geometry.distSqMany(x, cs, next, next.length, pd)
          m.dist += next.length; m.pointAccess += next.length
          var b = 0; var bd = Double.PositiveInfinity
          var c2 = 0
          while (c2 < next.length) {
            if (pd(c2) < bd) { bd = pd(c2); b = c2 }
            c2 += 1
          }
          val bj = next(b)
          if (assign(i) != bj) { assign(i) = bj; w.moved += 1 }
          if (direct) { Geometry.addTo(sums(bj), x); counts(bj) += 1 }
          if (seeder != null) seeder.point(i, nd, next, pd, b, m)
          z += 1
        }
        emit(w, nd, -1)
      } else if (nd.num >= forkAt) {
        val l = new Walk(new Metrics); val r = new Walk(new Metrics)
        w.left = l; w.right = r
        ForkJoinTask.invokeAll(task(rec(l, nd.left, next)), task(rec(r, nd.right, next)))
      } else {
        rec(w, nd.left, next)
        rec(w, nd.right, next)
      }
    }

    /** Places what `w` and its forks emitted, adds the forks' counters into
      * the state's and returns the points they moved.
      */
    def replay(w: Walk): Long = {
      var z = 0
      while (z < w.nodes.length) { place(w.nodes(z), w.to(z), scanned = false); z += 1 }
      if (w.left == null) w.moved
      else {
        m.add(w.left.m); m.add(w.right.m)
        w.moved + replay(w.left) + replay(w.right)
      }
    }

    if (tree.root == null) 0L
    else {
      val top = new Walk(m)
      rec(top, tree.root, IndexSort.iota(k))
      replay(top)
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
