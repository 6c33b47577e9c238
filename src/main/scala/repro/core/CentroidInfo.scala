package repro.core

import java.util.concurrent.atomic.AtomicReferenceArray

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
  * `compute` builds on the driver only what needs driver state, and the
  * Spark runner broadcasts just that: the centroids, their drifts, the
  * `Grouper`'s groups and the previous step's `maxUb`. Every other field is
  * derived where a kernel first reads it, in the JVM that reads it, and is
  * never serialized: a whole array once, a row of `cc`, `neighbors` or
  * `candidates` once per row. Concurrent first readers of a row may each
  * build it, with the same bits; all get the row published first. No field
  * is built with parallel work, so a pool worker reading one never waits on
  * a thread that waits on the pool.
  */
final class CentroidInfo(
    val iter: Int, // the driver's 1-based iteration; iter 1 has zero drifts. States
                   // do not read it: each seeds its bounds on its own first step.
    val centroids: Array[Array[Double]],
    val drifts: Array[Double],
    val maxDrift: Double,
    val maxDriftIdx: Int,
    val maxDrift2: Double,
    val groups: GroupInfo,
    val maxUb: Array[Double] // the previous step's `Partials.maxUb`, or null
) extends Serializable {
  import CentroidInfo._

  val k: Int = centroids.length

  /** Max drift among clusters other than j (for global-bound degradation). */
  def maxDriftOther(j: Int): Double = if (maxDriftIdx == j) maxDrift2 else maxDrift

  /** The centroids' dimension-major panel (`Geometry.panel`), read by every
    * all-centroid scan and by each `cc` row.
    */
  @transient lazy val panel: Array[Array[Double]] = Geometry.panel(centroids)

  @transient private lazy val ccRows = new AtomicReferenceArray[CcRow](k)
  @transient private lazy val annuliRows = new AtomicReferenceArray[Array[Int]](k)
  @transient private lazy val candidateRows = new AtomicReferenceArray[Array[Int]](k)

  /** Row a of the centroid distances, in the bits of `Geometry.dist`; as
    * (a−b)² == (b−a)² exactly, `cc(a)(b)` and `cc(b)(a)` have the same bits.
    */
  def cc(a: Int): Array[Double] = ccRow(a).dist
  def nearestOther(a: Int): Double = ccRow(a).nearestOther // min over b ≠ a of cc(a)(b)
  def sc(a: Int): Double = nearestOther(a) * 0.5            // s(c_a) [Hamerly, SDM'10]

  /** Exponion annuli of centroid a over `cc(a)` (see `annuli`). */
  def neighbors(a: Int): Array[Int] = memo(annuliRows, a)(annuli(a, cc(a)))

  /** Pami20's candidates of cluster a (Eq. 4): the centroids b with
    * ½·cc(a)(b) ≤ `radii(a)`, a included; all of them while the radius is
    * infinite.
    */
  def candidates(a: Int): Array[Int] = memo(candidateRows, a) {
    val ra = radii(a)
    if (ra.isInfinity) IndexSort.iota(k)
    else {
      val row = cc(a)
      val buf = new scala.collection.mutable.ArrayBuffer[Int](8)
      var b = 0
      while (b < k) {
        if (b == a || row(b) * 0.5 <= ra) buf += b
        b += 1
      }
      buf.toArray
    }
  }

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

  /** Per-cluster radius upper bounds (Pami20, Drift): `maxUb` was measured
    * against the previous centroids, so each is padded by this iteration's
    * drift to still cover every member point. Infinite until a step has
    * reported radii.
    */
  @transient lazy val radii: Array[Double] =
    if (maxUb == null) Array.fill(k)(Double.PositiveInfinity)
    else Array.tabulate(k)(j => maxUb(j) + drifts(j))

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
}

object CentroidInfo {

  /** Build this iteration's shared state. `prev` is the centroid matrix the
    * previous step assigned against (null at iteration 1). `groups` comes
    * from the driver's `Grouper` (null for an ungrouped strategy); its
    * per-group max drifts are filled here. `maxUb` comes from the previous
    * step's `Partials.maxUb` (null until available).
    */
  def compute(iter: Int, centroids: Array[Array[Double]], prev: Array[Array[Double]],
              groups: GroupInfo, maxUb: Array[Double]): CentroidInfo = {
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

    new CentroidInfo(iter, centroids, drifts, md, mdIdx, md2, groups, maxUb)
  }

  private final class CcRow(val dist: Array[Double], val nearestOther: Double)

  /** Row a of `rows`; the first reader builds it, and of concurrent builds
    * the one published first is kept.
    */
  @inline private def memo[A <: AnyRef](rows: AtomicReferenceArray[A], a: Int)(build: => A): A = {
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
      val (of, centers) = Grouper.miniKMeans(centroids, init, 5)
      groupCenters = centers
      current = Grouper.buildInfo(of, t, null)
    } else if (regroup && iter > 1) {
      val oldOf = current.of
      val (of, centers) = Grouper.miniKMeans(centroids, groupCenters, 2)
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

  /** Plain Lloyd over a tiny point set (the centroids themselves). */
  private def miniKMeans(pts: Array[Array[Double]], init: Array[Array[Double]],
                         iters: Int): (Array[Int], Array[Array[Double]]) = {
    val t = init.length
    val n = pts.length
    val d = if (n > 0) pts(0).length else 0
    var centers = Geometry.copy2(init)
    val of = new Array[Int](n)
    val sq = new Array[Double](t)
    var it = 0
    while (it < iters) {
      val panel = Geometry.panel(centers)
      var i = 0
      while (i < n) {
        Geometry.distSqPanel(pts(i), panel, t, sq)
        var best = 0; var bd = Double.PositiveInfinity
        var g = 0
        while (g < t) {
          if (sq(g) < bd) { bd = sq(g); best = g }
          g += 1
        }
        of(i) = best
        i += 1
      }
      val sums = Array.ofDim[Double](t, d)
      val cnt = new Array[Long](t)
      i = 0
      while (i < n) { Geometry.addTo(sums(of(i)), pts(i)); cnt(of(i)) += 1; i += 1 }
      centers = Array.tabulate(t) { g =>
        if (cnt(g) == 0) centers(g)
        else { val v = sums(g); var z = 0; while (z < d) { v(z) /= cnt(g); z += 1 }; v }
      }
      it += 1
    }
    (of, centers)
  }
}
