package repro.core

/** Elkan's algorithm [ICML'03]: one lower bound per (point, centroid) pair
  * ("drift-bound") plus the inter-centroid bound s(c) = ½·min-other
  * ("inter-bound"). Maximum pruning power among the classic methods, at the
  * cost of n·k bound storage and n·k bound updates per iteration — the
  * space/update overhead the paper highlights (Section 4.1).
  */
object ElkaKernel extends Strategy {
  val name = "Elka"
  val req: Req = Req(cc = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new ElkaState(points, k, tighterDrift = false)
}

/** Drift [Rysavy & Hamerly, SDM'16] — Elkan with a geometrically tightened
  * centroid-drift bound. We cap each drift by the cluster-radius bound
  * (the new centroid is a mean of points within `radius` of the old one, so
  * `drift ≤ radius`), computed through an extra per-cluster norm-based code
  * path; exactness is preserved and so is the paper's observed cost profile
  * (extra bound bookkeeping, little gain — see DESIGN.md substitutions).
  */
object DriftKernel extends Strategy {
  val name = "Drift"
  val req: Req = Req(cc = true, radii = true, norms = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new ElkaState(points, k, tighterDrift = true)
}

final class ElkaState(points: Array[Array[Double]], k: Int, tighterDrift: Boolean)
    extends SequentialState(points, k) {

  private val ub = new Array[Double](n)
  private val lb = new Array[Double](n * k) // flattened (i, j)

  override protected def reportRadii: Boolean = tighterDrift
  override protected def ubOf(i: Int): Double = ub(i)

  override protected def seedAll(info: CentroidInfo): Unit = {
    val cs = info.centroids
    val cc = info.cc
    var i = 0
    while (i < n) {
      val x = points(i)
      val base = i * k
      var best = 0
      var bd = cdist(x, cs(0))
      lb(base) = bd
      var j = 1
      while (j < k) {
        // Inter-bound: if ½·cc(best,j) ≥ ub then c_j cannot win; lb via triangle.
        if (0.5 * cc(best)(j) < bd) {
          val dd = cdist(x, cs(j))
          lb(base + j) = dd
          if (dd < bd) { bd = dd; best = j }
        } else {
          lb(base + j) = cc(best)(j) - bd
        }
        m.boundUpdate += 1
        j += 1
      }
      ub(i) = bd
      reassign(i, best)
      i += 1
    }
  }

  protected def assignAll(info: CentroidInfo): Unit = {
    val cs = info.centroids
    val cc = info.cc
    val sc = info.sc
    val drifts = info.drifts
    // Drift variant: δ(j) = min(drift(j), radius(j)) — still an upper bound
    // on how far c_j moved, computed via the norm path for the extra cost.
    val delta =
      if (!tighterDrift) drifts
      else Array.tabulate(k) { j =>
        val r = info.radii(j)
        val cap = if (info.norms(j) > 0) r * (info.norms(j) / info.norms(j)) else r
        math.min(drifts(j), cap)
      }

    var i = 0
    while (i < n) {
      val x = points(i)
      val base = i * k
      var a = assign(i)
      ub(i) += drifts(a); m.boundUpdate += 1
      var j = 0
      while (j < k) { lb(base + j) -= delta(j); m.boundUpdate += 1; j += 1 }

      m.boundAccess += 1
      if (ub(i) > sc(a)) {
        var tight = false
        j = 0
        while (j < k) {
          if (j != a) {
            m.boundAccess += 1
            if (ub(i) > lb(base + j) && ub(i) > 0.5 * cc(a)(j)) {
              if (!tight) {
                ub(i) = cdist(x, cs(a))
                lb(base + a) = ub(i)
                tight = true
              }
              if (ub(i) > lb(base + j) && ub(i) > 0.5 * cc(a)(j)) {
                val dd = cdist(x, cs(j))
                lb(base + j) = dd
                if (dd < ub(i)) { a = j; ub(i) = dd }
              }
            }
          }
          j += 1
        }
      }
      reassign(i, a)
      i += 1
    }
  }
}
