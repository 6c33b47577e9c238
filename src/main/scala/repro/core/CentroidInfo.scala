package repro.core

/** Which centroid-side shared structures a strategy needs each iteration.
  * Everything here is O(k·d) or O(k²) work done once per iteration on the
  * driver and broadcast — never per point.
  */
final case class Req(
    cc: Boolean = false,          // pairwise centroid distances (rows built in parallel) + s(c) = ½·min-other
    neighbors: Boolean = false,   // per-centroid Exponion annuli (rank-doubling shells) over cc
    sortedNorms: Boolean = false, // centroids sorted by norm (Annular)
    blocks: Boolean = false,      // block norms (Block-Vector)
    groups: Boolean = false,      // Yinyang-style centroid groups
    regroup: Boolean = false,     // re-derive groups every iteration (Regroup)
    radii: Boolean = false,       // per-cluster radius upper bounds (Pami20, Drift)
    candidates: Boolean = false   // Pami20 per-cluster candidate sets (implies cc+radii)
) {
  def normalized: Req =
    copy(cc = cc || neighbors || candidates, radii = radii || candidates,
         groups = groups || regroup)

  /** ‖c_j‖, which the sorted norms and the block bound are built from. */
  def norms: Boolean = sortedNorms || blocks
}

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
  * Immutable; broadcast to partitions by the Spark runner.
  */
final class CentroidInfo(
    val iter: Int, // the driver's 1-based iteration; iter 1 has zero drifts. States
                   // do not read it: each seeds its bounds on its own first step.
    val centroids: Array[Array[Double]],
    val drifts: Array[Double],
    val maxDrift: Double,
    val maxDriftIdx: Int,
    val maxDrift2: Double,
    val cc: Array[Array[Double]],
    val sc: Array[Double],           // ½ · min_{j'≠j} cc(j,j')
    val nearestOther: Array[Double], // min_{j'≠j} cc(j,j')
    val neighbors: Array[Array[Int]],
    val norms: Array[Double],
    val normSq: Array[Double],
    val sortedNormIdx: Array[Int],
    val sortedNormVal: Array[Double],
    val blockB1: Array[Double],
    val blockB2: Array[Double],
    val groups: GroupInfo,
    val radii: Array[Double],
    val candidates: Array[Array[Int]]
) extends Serializable {

  val k: Int = centroids.length

  /** Max drift among clusters other than j (for global-bound degradation). */
  def maxDriftOther(j: Int): Double = if (maxDriftIdx == j) maxDrift2 else maxDrift
}

object CentroidInfo {

  /** Build this iteration's shared state. `prev` is the centroid matrix the
    * previous step assigned against (null at iteration 1). `radiiIn` comes
    * from the previous step's Partials.maxUb (null until available).
    */
  def compute(iter: Int, centroids: Array[Array[Double]], prev: Array[Array[Double]],
              req0: Req, groups: GroupInfo, radiiIn: Array[Double]): CentroidInfo = {
    val req = req0.normalized
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

    val cc = if (req.cc) pairwiseDistances(centroids) else null
    val nearestOther = if (req.cc) new Array[Double](k) else null
    val neighbors = if (req.neighbors) new Array[Array[Int]](k) else null
    if (req.cc) {
      java.util.stream.IntStream.range(0, k).parallel().forEach { a =>
        val row = cc(a)
        var no = Double.PositiveInfinity
        var b = 0
        while (b < k) { if (b != a && row(b) < no) no = row(b); b += 1 }
        nearestOther(a) = no
        if (neighbors != null) neighbors(a) = annuli(a, row)
      }
    }
    val sc = if (req.cc) nearestOther.map(_ * 0.5) else null

    var norms: Array[Double] = null
    var normSq: Array[Double] = null
    if (req.norms) {
      norms = centroids.map(Geometry.norm)
      normSq = norms.map(x => x * x)
    }
    var sortedNormIdx: Array[Int] = null
    var sortedNormVal: Array[Double] = null
    if (req.sortedNorms) {
      sortedNormIdx = IndexSort.iota(k)
      sortedNormVal = norms.clone()
      IndexSort.sort(sortedNormVal, sortedNormIdx, 0, k - 1)
    }

    var blockB1: Array[Double] = null
    var blockB2: Array[Double] = null
    if (req.blocks) {
      blockB1 = new Array[Double](k); blockB2 = new Array[Double](k)
      var i = 0
      while (i < k) {
        val (b1, b2) = Geometry.blockNorms(centroids(i))
        blockB1(i) = b1; blockB2(i) = b2
        i += 1
      }
    }

    var radii: Array[Double] = null
    var candidates: Array[Array[Int]] = null
    if (req.radii) {
      // Radii were measured against the *previous* centroid positions; pad by
      // this iteration's drift so they still cover every member point.
      radii =
        if (radiiIn == null) Array.fill(k)(Double.PositiveInfinity)
        else Array.tabulate(k)(j => radiiIn(j) + drifts(j))
    }
    if (req.candidates) {
      // Eq. 4 (Pami20): cluster j's points only need centroids within 2·ra(j).
      candidates = Array.tabulate(k) { a =>
        if (radii(a).isInfinity) IndexSort.iota(k)
        else {
          val buf = new scala.collection.mutable.ArrayBuffer[Int](8)
          var b = 0
          while (b < k) {
            if (b == a || cc(a)(b) * 0.5 <= radii(a)) buf += b
            b += 1
          }
          buf.toArray
        }
      }
    }

    // Per-group max drift (groups object is rebuilt by the Grouper; fill here).
    if (groups != null) {
      java.util.Arrays.fill(groups.maxDrift, 0.0)
      var c = 0
      while (c < k) {
        val g = groups.of(c)
        if (drifts(c) > groups.maxDrift(g)) groups.maxDrift(g) = drifts(c)
        c += 1
      }
    }

    new CentroidInfo(iter, centroids, drifts, md, mdIdx, md2, cc, sc, nearestOther,
      neighbors, norms, normSq, sortedNormIdx, sortedNormVal, blockB1, blockB2,
      groups, radii, candidates)
  }

  /** The symmetric k×k centroid distance matrix, rows built in parallel on the
    * common ForkJoin pool. Row a owns the pairs (a, b > a) and writes both
    * mirror cells, so every cell is written once, by the same
    * `Geometry.dist` call a sequential triangle makes: the result is
    * bit-identical to it.
    */
  private def pairwiseDistances(centroids: Array[Array[Double]]): Array[Array[Double]] = {
    val k = centroids.length
    val cc = Array.ofDim[Double](k, k)
    java.util.stream.IntStream.range(0, k).parallel().forEach { a =>
      var b = a + 1
      while (b < k) {
        val d = Geometry.dist(centroids(a), centroids(b))
        cc(a)(b) = d; cc(b)(a) = d
        b += 1
      }
    }
    cc
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

  def nGroupsFor(k: Int): Int = math.max(1, math.ceil(k / 10.0).toInt)

  def update(centroids: Array[Array[Double]], iter: Int, regroup: Boolean): GroupInfo = {
    val k = centroids.length
    val t = nGroupsFor(k)
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
      var i = 0
      while (i < n) {
        Geometry.distSqMany(pts(i), centers, null, t, sq)
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
