package repro.core

import java.lang.ref.WeakReference
import java.util.concurrent.atomic.{AtomicLong, AtomicReference, AtomicReferenceArray}

import scala.annotation.tailrec

/** Centroid grouping for Yinyang/Regroup/UniK group pruning.
  *
  * @param of        centroid index → group index
  * @param members   group index → member centroid indices
  * @param maxDrift  group index → max centroid drift in the group this iteration
  * @param remapFrom non-null on regroup iterations: new group g' → the set of
  *                  old groups its members came from, so per-point group bounds
  *                  can be remapped conservatively (min over contributing old
  *                  groups stays a valid lower bound).
  */
final class GroupInfo(
    val of: Array[Int],
    val nGroups: Int,
    val members: Array[Array[Int]],
    val maxDrift: Array[Double],
    val remapFrom: Array[Array[Int]]
) extends Serializable

/** Everything the assignment step needs about this iteration's centroids.
  * `compute` builds on the driver only what needs driver state, and each
  * Spark step task carries just that: the centroids, their drifts and the
  * `Grouper`'s groups. Every other field is derived where a kernel first
  * reads it, in the JVM that reads it, and is never serialized: a whole
  * array once, a row of `cc` or `neighbors` once per row. Concurrent first
  * readers of a row may each build it, with the same bits; all get the row
  * published first. No field is built with parallel work, so a pool worker
  * reading one never waits on a thread that waits on the pool.
  *
  * Every info has an id, unique in the JVM that built it. Spark deserializes
  * a job's function once per task; `readResolve` hands every task of a JVM
  * the copy that JVM deserialized first while that copy is alive, so the
  * derived rows are built once per JVM and step, not once per task.
  */
final class CentroidInfo(
    val iter: Int, // the driver's 1-based iteration; iter 1 has zero drifts. States
                   // do not read it: each seeds its bounds on its own first step.
    val centroids: Array[Array[Double]],
    val drifts: Array[Double],
    val maxDrift: Double,
    val maxDriftIdx: Int,
    val maxDrift2: Double,
    val groups: GroupInfo
) extends Serializable {
  import CentroidInfo._

  val k: Int = centroids.length

  private val id: Long = nextId.getAndIncrement()

  /** Max drift among clusters other than j (for global-bound degradation). */
  def maxDriftOther(j: Int): Double = if (maxDriftIdx == j) maxDrift2 else maxDrift

  /** The centroids' dimension-major panel (`Geometry.panel`), read by every
    * all-centroid scan and by each `cc` row.
    */
  @transient lazy val panel: Array[Array[Double]] = Geometry.panel(centroids)

  @transient private lazy val ccRows = new AtomicReferenceArray[CcRow](k)
  @transient private lazy val annuliRows = new AtomicReferenceArray[Array[Int]](k)

  /** Row a of the centroid distances, in the bits of `Geometry.dist`; as
    * (a−b)² == (b−a)² exactly, `cc(a)(b)` and `cc(b)(a)` have the same bits.
    */
  def cc(a: Int): Array[Double] = ccRow(a).dist
  def nearestOther(a: Int): Double = ccRow(a).nearestOther // min over b ≠ a of cc(a)(b)
  def sc(a: Int): Double = nearestOther(a) * 0.5            // s(c_a) [Hamerly, SDM'10]

  /** Exponion annuli of centroid a over `cc(a)` (see `annuli`). */
  def neighbors(a: Int): Array[Int] = memo(annuliRows, a)(annuli(a, cc(a)))

  @transient lazy val norms: Array[Double] = centroids.map(Geometry.norm)
  @transient lazy val normSq: Array[Double] = norms.map(x => x * x)

  /** Centroid indices by ascending norm (Annular), and those norms. */
  @transient lazy val sortedNormIdx: Array[Int] = {
    val idx = IndexSort.iota(k)
    IndexSort.sort(norms.clone(), idx, 0, k - 1)
    idx
  }
  @transient lazy val sortedNormVal: Array[Double] = sortedNormIdx.map(j => norms(j))

  /** The norms of each centroid's two coordinate blocks (Block-Vector). */
  @transient lazy val blockB1: Array[Double] = centroids.map(Geometry.blockNorms(_)._1)
  @transient lazy val blockB2: Array[Double] = centroids.map(Geometry.blockNorms(_)._2)

  /** Centroid a against the panel, and the row's nearest other centroid. */
  private def ccRow(a: Int): CcRow = memo(ccRows, a) {
    val row = new Array[Double](k)
    Geometry.distSqPanel(centroids(a), panel, k, row)
    var no = Double.PositiveInfinity
    var b = 0
    while (b < k) {
      row(b) = math.sqrt(row(b))
      if (b != a && row(b) < no) no = row(b)
      b += 1
    }
    new CcRow(row, no)
  }

  /** The live copy of this info in this JVM, which is this one unless a copy
    * with its id was deserialized before and is still reachable.
    */
  @tailrec private def readResolve(): AnyRef = {
    val ref = live.get
    val cur = if (ref == null) null else ref.get
    if (cur != null && cur.id == id) cur
    else if (live.compareAndSet(ref, new WeakReference(this))) this
    else readResolve()
  }
}

object CentroidInfo {

  private val nextId = new AtomicLong

  /** The last info deserialized in this JVM, held weakly, so the slot keeps
    * nothing alive once a fit's tasks drop their infos.
    */
  private val live = new AtomicReference[WeakReference[CentroidInfo]]

  /** Build this iteration's shared state. `prev` is the centroid matrix the
    * previous step assigned against (null at iteration 1). `groups` comes
    * from the driver's `Grouper` (null for an ungrouped strategy); its
    * per-group max drifts are filled here.
    */
  def compute(iter: Int, centroids: Array[Array[Double]], prev: Array[Array[Double]],
              groups: GroupInfo): CentroidInfo = {
    val k = centroids.length

    val drifts = new Array[Double](k)
    if (prev != null) {
      var j = 0
      while (j < k) { drifts(j) = Geometry.dist(centroids(j), prev(j)); j += 1 }
    }
    var md = 0.0; var mdIdx = -1; var md2 = 0.0
    var j = 0
    while (j < k) {
      val v = drifts(j)
      if (v > md) { md2 = md; md = v; mdIdx = j }
      else if (v > md2) { md2 = v }
      j += 1
    }

    if (groups != null) {
      java.util.Arrays.fill(groups.maxDrift, 0.0)
      var c = 0
      while (c < k) {
        val g = groups.of(c)
        if (drifts(c) > groups.maxDrift(g)) groups.maxDrift(g) = drifts(c)
        c += 1
      }
    }

    new CentroidInfo(iter, centroids, drifts, md, mdIdx, md2, groups)
  }

  private final class CcRow(val dist: Array[Double], val nearestOther: Double)

  /** Row a of `rows`; the first reader builds it, and of concurrent builds
    * the one published first is kept.
    */
  @inline private[core] def memo[A <: AnyRef](rows: AtomicReferenceArray[A], a: Int)(build: => A): A = {
    val r = rows.get(a)
    if (r != null) r
    else {
      val row = build
      if (rows.compareAndSet(a, null.asInstanceOf[A], row)) row else rows.get(a)
    }
  }

  /** Exponion annuli of centroid a [Newling & Fleuret, ICML'16]: a permutation
    * of 0..k−1 with a at position 0 and the other centroids in rank shells
    * [2^s, 2^(s+1)), every distance `row` gives a shell no smaller than those
    * of the shells before it. Shells are split off largest first by quickselect,
    * O(k) expected, and are not sorted inside.
    */
  private def annuli(a: Int, row: Array[Double]): Array[Int] = {
    val k = row.length
    val idx = new Array[Int](k)
    val key = new Array[Double](k)
    idx(0) = a
    var p = 1
    var j = 0
    while (j < k) {
      if (j != a) { idx(p) = j; key(p) = row(j); p += 1 }
      j += 1
    }
    var b = Integer.highestOneBit(k - 1)
    while (b >= 2) {
      IndexSort.select(key, idx, 1, math.min(2 * b, k) - 1, b)
      b >>= 1
    }
    idx
  }
}

/** Driver-side manager of Yinyang/Regroup centroid groups. Groups k centroids
  * into t = ⌈k/10⌉ groups by a small k-means over the centroids (as in the
  * Yinyang paper's first iteration); Regroup refreshes the grouping every
  * iteration and reports the old→new overlap for conservative bound remap.
  */
final class Grouper(seed: Long) {
  private var current: GroupInfo = null
  private var groupCenters: Array[Array[Double]] = null

  def update(centroids: Array[Array[Double]], iter: Int, regroup: Boolean): GroupInfo = {
    val k = centroids.length
    val t = Grouper.nGroupsFor(k)
    if (current == null) {
      val init = Init.kmeansPlusPlus(centroids, t, seed)
      val (of, centers) = Grouper.lloyd(centroids, init, 5)
      groupCenters = centers
      current = Grouper.buildInfo(of, t, null)
    } else if (regroup && iter > 1) {
      val oldOf = current.of
      val (of, centers) = Grouper.lloyd(centroids, groupCenters, 2)
      groupCenters = centers
      val remap = Array.tabulate(t) { g =>
        val set = scala.collection.mutable.SortedSet.empty[Int]
        var c = 0
        while (c < k) { if (of(c) == g) set += oldOf(c); c += 1 }
        set.toArray
      }
      current = Grouper.buildInfo(of, t, remap)
    } else if (current.remapFrom != null) {
      // Only signal a remap on the iteration it happened.
      current = Grouper.buildInfo(current.of, t, null)
    }
    current
  }
}

object Grouper {
  /** The group count t of k centroids: every `GroupInfo` over k carries it. */
  def nGroupsFor(k: Int): Int = math.max(1, math.ceil(k / 10.0).toInt)

  private def buildInfo(of: Array[Int], t: Int, remap: Array[Array[Int]]): GroupInfo = {
    val members = Array.tabulate(t) { g =>
      val buf = new scala.collection.mutable.ArrayBuffer[Int]
      var c = 0
      while (c < of.length) { if (of(c) == g) buf += c; c += 1 }
      buf.toArray
    }
    new GroupInfo(of.clone(), t, members, new Array[Double](t), remap)
  }

  /** Lloyd over a tiny point set (the centroids themselves) from `init`,
    * for at most `iters` iterations: each point's group and the group centers.
    */
  private def lloyd(pts: Array[Array[Double]], init: Array[Array[Double]],
                    iters: Int): (Array[Int], Array[Array[Double]]) = {
    val state = LloydKernel.newState(pts, init.length, 0L)
    val res = Runner.fitStates(LloydKernel, Seq(state), ps => ps.head.step(_: CentroidInfo),
      init.length, init, iters, 0L)
    (state.assignments, res.centroids)
  }
}
