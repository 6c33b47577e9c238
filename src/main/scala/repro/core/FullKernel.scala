package repro.core

/** "Full" — every bound knob turned on at once (footnote 5 / Figure 1):
  * Elkan's per-pair bounds + Yinyang group bounds + the block-vector norm
  * filter. Maximum pruning ratio, but the bound bookkeeping dominates the
  * runtime — the paper's cautionary example that fewer distances computed
  * does not imply faster clustering.
  */
object FullKernel extends Strategy {
  val name = "Full"
  val req: Req = Req(cc = true, blocks = true, groups = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new FullState(points, k)
}

final class FullState(points: Array[Array[Double]], k: Int)
    extends ElkanState(points, k) {

  private var t = 0
  private var glb: Array[Double] = null
  private val xNorms = new PointBlockNorms(points)

  /** The group count is fixed by the state's first step. */
  override protected def prelude(info: CentroidInfo): Option[Block] = {
    if (glb == null) { t = info.groups.nGroups; glb = new Array[Double](n * t) }
    None
  }

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    var i = from
    while (i < until) {
      val best = seedPoint(i, info, b)
      groupBounds(i, info.groups, best)
      b.m.boundUpdate += k
      b.reassign(i, best)
      i += 1
    }
  }

  /** Sets point i's bound of each group to the least lb of its members but `a`. */
  private def groupBounds(i: Int, gi: GroupInfo, a: Int): Unit = {
    var g = 0
    while (g < t) {
      var v = Double.PositiveInfinity
      val mem = gi.members(g)
      var z = 0
      while (z < mem.length) {
        val j = mem(z)
        if (j != a && lb(i * k + j) < v) v = lb(i * k + j)
        z += 1
      }
      glb(i * t + g) = v
      g += 1
    }
  }

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val gi = info.groups
    val cs = info.centroids
    val cc = info.cc
    val m = b.m
    var i = from
    while (i < until) {
      val x = points(i)
      val base = i * k
      val gbase = i * t
      var a = assign(i)
      ub(i) += info.drifts(a); m.boundUpdate += 1
      var j = 0
      while (j < k) { lb(base + j) -= info.drifts(j); m.boundUpdate += 1; j += 1 }
      val globalLb = GroupScan.drift(glb, gbase, gi, m)
      m.boundAccess += 1
      if (globalLb < ub(i) && ub(i) > info.sc(a)) {
        var tight = false
        var g = 0
        while (g < t) {
          m.boundAccess += 1
          if (glb(gbase + g) < ub(i)) {
            val mem = gi.members(g)
            var z = 0
            while (z < mem.length) {
              val j2 = mem(z)
              if (j2 != a) {
                m.boundAccess += 2
                if (ub(i) > lb(base + j2) && ub(i) > 0.5 * cc(a)(j2)) {
                  if (!tight) { ub(i) = b.cdist(x, cs(a)); lb(base + a) = ub(i); tight = true }
                  if (ub(i) > lb(base + j2) && ub(i) > 0.5 * cc(a)(j2)) {
                    // block-vector prefilter before the exact distance
                    val bv = xNorms.lb(i, info, j2)
                    m.boundAccess += 1
                    if (bv < ub(i)) {
                      val dd = b.cdist(x, cs(j2))
                      lb(base + j2) = dd; m.boundUpdate += 1
                      if (dd < ub(i)) { a = j2; ub(i) = dd }
                    } else if (bv > lb(base + j2)) {
                      lb(base + j2) = bv; m.boundUpdate += 1
                    }
                  }
                }
              }
              z += 1
            }
          }
          g += 1
        }
        // refresh group bounds from the per-pair bounds (cheap, conservative)
        groupBounds(i, gi, a)
        m.boundUpdate += t
      }
      b.reassign(i, a)
      i += 1
    }
  }
}
