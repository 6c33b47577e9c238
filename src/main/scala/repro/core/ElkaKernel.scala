package repro.core

/** Elkan's algorithm [ICML'03]: one lower bound per (point, centroid) pair
  * ("drift-bound") plus the inter-centroid bound s(c) = ½·min-other
  * ("inter-bound"). Maximum pruning power among the classic methods, at the
  * cost of n·k bound storage and n·k bound updates per iteration — the
  * space/update overhead the paper highlights (Section 4.1).
  */
object ElkaKernel extends Strategy {
  val name = "Elka"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new ElkaState(points, k, tighterDrift = false)
}

/** Drift [Rysavy & Hamerly, SDM'16] — Elkan with a geometrically tightened
  * centroid-drift bound. We cap each drift by the cluster-radius bound
  * (the new centroid is a mean of points within `radius` of the old one, so
  * `drift ≤ radius`), which needs the per-cluster radii every iteration;
  * exactness is preserved and so is the paper's observed cost profile
  * (extra bound bookkeeping, little gain — see DESIGN.md substitutions).
  */
object DriftKernel extends Strategy {
  val name = "Drift"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new ElkaState(points, k, tighterDrift = true)
}

/** Elkan's per-pair bounds, shared by Elka, Drift and Full: per point an
  * upper bound `ub` on the distance to its centroid and a lower bound
  * `lb(i·k + j)` on the distance to each centroid j.
  */
abstract class ElkanState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  protected final val ub = new Array[Double](n)
  protected final val lb = new Array[Double](n * k) // flattened (i, j)

  override protected def ubOf(i: Int): Double = ub(i)

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  /** Point i's scan on the state's first step: sets ub(i) and every lb of
    * the point, and returns its nearest centroid.
    */
  protected final def seedPoint(i: Int, info: CentroidInfo, b: Block): Int = {
    val cs = info.centroids
    val x = points(i)
    val base = i * k
    var best = 0
    var ccB = info.cc(0)
    var bd = b.cdist(x, cs(0))
    lb(base) = bd
    var j = 1
    while (j < k) {
      // Inter-bound: if ½·cc(best,j) ≥ ub then c_j cannot win; lb via triangle.
      if (0.5 * ccB(j) < bd) {
        val dd = b.cdist(x, cs(j))
        lb(base + j) = dd
        if (dd < bd) { bd = dd; best = j; ccB = info.cc(j) }
      } else {
        lb(base + j) = ccB(j) - bd
      }
      j += 1
    }
    b.m.boundUpdate += k - 1
    ub(i) = bd
    best
  }
}

final class ElkaState(points: Array[Array[Double]], k: Int, tighterDrift: Boolean)
    extends ElkanState(points, k) {

  override protected def reportRadii: Boolean = tighterDrift

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    var i = from
    while (i < until) { b.reassign(i, seedPoint(i, info, b)); i += 1 }
  }

  /** The bound loops count into locals, added to `b.m` once per block: no
    * counter is stored per element, so the lb decrement loop vectorizes and
    * the point's ub and `cc` row stay in registers. A bound read is counted
    * for every j != a, with `a` the centroid current when j is tested.
    */
  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    val drifts = info.drifts
    // Drift variant: δ(j) = min(drift(j), radius(j)) — still an upper bound
    // on how far c_j moved.
    val delta =
      if (!tighterDrift) drifts
      else { val radii = info.radii; Array.tabulate(k)(j => math.min(drifts(j), radii(j))) }

    var reads = 0L
    var i = from
    while (i < until) {
      val x = points(i)
      val base = i * k
      var a = assign(i)
      var u = ub(i) + drifts(a)
      var j = 0
      while (j < k) { lb(base + j) -= delta(j); j += 1 }

      reads += 1
      if (u > info.sc(a)) {
        var ccA = info.cc(a)
        var tight = false
        j = 0
        while (j < k) {
          if (j != a) {
            reads += 1
            if (u > lb(base + j) && u > 0.5 * ccA(j)) {
              if (!tight) {
                u = b.cdist(x, cs(a))
                lb(base + a) = u
                tight = true
              }
              if (u > lb(base + j) && u > 0.5 * ccA(j)) {
                val dd = b.cdist(x, cs(j))
                lb(base + j) = dd
                if (dd < u) { a = j; u = dd; ccA = info.cc(a) }
              }
            }
          }
          j += 1
        }
      }
      ub(i) = u
      b.reassign(i, a)
      i += 1
    }
    b.m.boundAccess += reads
    b.m.boundUpdate += (until - from).toLong * (k + 1)
  }
}
