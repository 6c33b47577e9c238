package repro.core

/** Yinyang's group pruning [Ding et al., ICML'15] for one object at a time,
  * shared by Yinyang, Regroup and UniK. UniK applies it to a ball-tree node
  * with radius r (Eqs. 10–11); a point has r = 0, which is Yinyang's test.
  *
  * An object keeps t group lower bounds in `bounds` from `base`: bound g
  * lower-bounds its distance to every centroid of group g but its own. A
  * step drift-updates them (`GroupScan.drift`, which Full shares); when the
  * caller's own tests fail, it `scan`s the groups that survive the filter
  * and then `refresh`es the bounds. Counting: `drift` counts t updates and
  * t accesses, `scan` counts t accesses and its distances, `refresh` its
  * updates. A point caller also counts `dists` point accesses.
  *
  * Distances are computed a group at a time with `Geometry.distSqMany`, or,
  * seeding, all k at once over the centroid panel (`Geometry.distSqPanel`),
  * and visited in member order.
  *
  * The scratch serves one object at a time, so one instance belongs to one
  * thread.
  */
final class GroupScan(t: Int, k: Int) extends Serializable {
  private val gMin = new Array[Double](t)
  private val gMinIdx = new Array[Int](t)
  private val gMin2 = new Array[Double](t)
  private val gScanned = new Array[Boolean](t)
  private val sq = new Array[Double](k)
  private val others = new Array[Int](k) // a group's members but the current centroid

  /** The last scan's nearest and second-nearest distance, and how many
    * distances it computed.
    */
  var d1 = 0.0
  var d2 = 0.0
  var dists = 0
  private var best = -1

  /** The state's first step: visits all centroids in index order, sets
    * every group bound, and returns the first nearest centroid.
    */
  def seed(x: Array[Double], info: CentroidInfo, bounds: Array[Double], base: Int,
           m: Metrics): Int = {
    val gi = info.groups
    reset(-1, Double.PositiveInfinity)
    Geometry.distSqPanel(x, info.panel, k, sq)
    var j = 0
    while (j < k) { sq(j) = math.sqrt(sq(j)); j += 1 }
    j = 0
    while (j < k) { visit(gi.of(j), j, sq(j)); j += 1 }
    dists = k
    m.dist += dists
    var g = 0
    while (g < t) { bounds(base + g) = nearestBut(g, best); g += 1 }
    m.boundUpdate += t
    best
  }

  /** Visits the members of each group whose bound passes the filter
    * bound − r < d1 + r, with d1 the nearest distance so far, starting from
    * the object's centroid `cur` at distance `dCur`, which is skipped.
    * Returns the first nearest centroid.
    */
  def scan(x: Array[Double], cs: Array[Array[Double]], gi: GroupInfo, bounds: Array[Double],
           base: Int, cur: Int, dCur: Double, r: Double, m: Metrics): Int = {
    reset(cur, dCur)
    val gCur = gi.of(cur)
    var g = 0
    while (g < t) {
      if (bounds(base + g) - r < d1 + r) {
        gScanned(g) = true
        val mem = gi.members(g)
        var cand = mem; var cnt = mem.length
        if (g == gCur) {
          cand = others; cnt = 0
          var z = 0
          while (z < mem.length) { if (mem(z) != cur) { others(cnt) = mem(z); cnt += 1 }; z += 1 }
        }
        Geometry.distSqMany(x, cs, cand, cnt, sq)
        var z = 0
        while (z < cnt) { visit(g, cand(z), math.sqrt(sq(z))); z += 1 }
        dists += cnt
      }
      g += 1
    }
    m.boundAccess += t; m.dist += dists
    best
  }

  /** Rewrites the bounds after a `scan` that moved the object from `cur`
    * (at distance `dCur`) to `best`. A scanned group now holds exact
    * distances to all its members but `best`, so its bound is overwritten;
    * an unscanned group that regains `cur` may only take a min.
    */
  def refresh(bounds: Array[Double], base: Int, gi: GroupInfo, cur: Int, dCur: Double,
              best: Int, m: Metrics): Unit = {
    val gCur = gi.of(cur)
    val moved = best != cur
    if (moved) offer(gCur, cur, dCur)
    var g = 0
    while (g < t) {
      val v = nearestBut(g, best)
      if (gScanned(g) || (moved && g == gCur && v < bounds(base + g))) {
        bounds(base + g) = v; m.boundUpdate += 1
      }
      g += 1
    }
  }

  private def reset(cur: Int, dCur: Double): Unit = {
    java.util.Arrays.fill(gMin, Double.PositiveInfinity)
    java.util.Arrays.fill(gMinIdx, -1)
    java.util.Arrays.fill(gMin2, Double.PositiveInfinity)
    java.util.Arrays.fill(gScanned, false)
    best = cur; d1 = dCur; d2 = Double.PositiveInfinity; dists = 0
  }

  @inline private def offer(g: Int, j: Int, dd: Double): Unit =
    if (dd < gMin(g)) { gMin2(g) = gMin(g); gMin(g) = dd; gMinIdx(g) = j }
    else if (dd < gMin2(g)) gMin2(g) = dd

  @inline private def visit(g: Int, j: Int, dd: Double): Unit = {
    offer(g, j, dd)
    if (dd < d1) { d2 = d1; d1 = dd; best = j }
    else if (dd < d2) d2 = dd
  }

  /** The least distance seen in group g to a centroid other than `c`. */
  @inline private def nearestBut(g: Int, c: Int): Double =
    if (gMinIdx(g) == c) gMin2(g) else gMin(g)
}

object GroupScan {

  /** Lowers each of an object's group bounds by its group's largest drift;
    * returns the least.
    */
  def drift(bounds: Array[Double], base: Int, gi: GroupInfo, m: Metrics): Double = {
    val t = gi.nGroups
    var least = Double.PositiveInfinity
    var g = 0
    while (g < t) {
      bounds(base + g) -= gi.maxDrift(g)
      if (bounds(base + g) < least) least = bounds(base + g)
      g += 1
    }
    m.boundUpdate += t; m.boundAccess += t
    least
  }
}
