package repro.core

/** Yinyang k-means [Ding et al., ICML'15]: k centroids partitioned into
  * t = ⌈k/10⌉ groups; each point stores an upper bound plus one lower bound
  * per GROUP. Global filter → group filter → per-centroid distances.
  * Groups are fixed after the first iteration.
  *
  * Regroup [Kwedlo, ICAISC'17] refreshes the grouping every iteration
  * (`req.regroup`); per-point group bounds are remapped conservatively via
  * the old→new group overlap supplied by the driver-side `Grouper`.
  */
object YinyangKernel extends Strategy {
  val name = "Yinyang"
  val req: Req = Req(groups = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new YinyangState(points, k)
}

object RegroupKernel extends Strategy {
  val name = "Regroup"
  val req: Req = Req(groups = true, regroup = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new YinyangState(points, k)
}

final class YinyangState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  private val ub = new Array[Double](n)
  private var t = 0
  private var glb: Array[Double] = null // flattened (i, g)

  override protected def ubOf(i: Int): Double = ub(i)

  // scratch: per-group best/second-best distance seen this point
  private var gMin: Array[Double] = null
  private var gMinIdx: Array[Int] = null
  private var gMin2: Array[Double] = null
  private var gScanned: Array[Boolean] = null
  private var remapBuf: Array[Double] = null

  override protected def seedAll(info: CentroidInfo): Unit = {
    val cs = info.centroids
    val gi = info.groups
    t = gi.nGroups
    glb = new Array[Double](n * t)
    gMin = new Array[Double](t); gMinIdx = new Array[Int](t); gMin2 = new Array[Double](t)
    gScanned = new Array[Boolean](t)
    remapBuf = new Array[Double](t)
    var i = 0
    while (i < n) {
      val x = points(i)
      val base = i * t
      var g = 0
      while (g < t) { gMin(g) = Double.PositiveInfinity; gMinIdx(g) = -1; gMin2(g) = Double.PositiveInfinity; g += 1 }
      var best = -1; var d1 = Double.PositiveInfinity
      var j = 0
      while (j < k) {
        val dd = cdist(x, cs(j))
        val gg = gi.of(j)
        if (dd < gMin(gg)) { gMin2(gg) = gMin(gg); gMin(gg) = dd; gMinIdx(gg) = j }
        else if (dd < gMin2(gg)) gMin2(gg) = dd
        if (dd < d1) { d1 = dd; best = j }
        j += 1
      }
      ub(i) = d1
      g = 0
      while (g < t) {
        glb(base + g) = if (gMinIdx(g) == best) gMin2(g) else gMin(g)
        m.boundUpdate += 1
        g += 1
      }
      reassign(i, best)
      i += 1
    }
  }

  protected def assignAll(info: CentroidInfo): Unit = {
    val cs = info.centroids
    val gi = info.groups
    val remap = gi.remapFrom
    var i = 0
    while (i < n) {
      val x = points(i)
      val base = i * t
      var a = assign(i)

      if (remap != null) {
        // Regroup: new group bound = min over contributing old groups.
        var g = 0
        while (g < t) {
          var v = Double.PositiveInfinity
          val from = remap(g)
          var z = 0
          while (z < from.length) {
            val old = glb(base + from(z))
            if (old < v) v = old
            m.boundAccess += 1
            z += 1
          }
          remapBuf(g) = v
          g += 1
        }
        System.arraycopy(remapBuf, 0, glb, base, t)
        m.boundUpdate += t
      }

      ub(i) += info.drifts(a); m.boundUpdate += 1
      var globalLb = Double.PositiveInfinity
      var g = 0
      while (g < t) {
        glb(base + g) -= gi.maxDrift(g)
        if (glb(base + g) < globalLb) globalLb = glb(base + g)
        m.boundUpdate += 1; m.boundAccess += 1
        g += 1
      }

      if (globalLb < ub(i)) {
        ub(i) = cdist(x, cs(a)) // tighten
        if (globalLb < ub(i)) {
          val aOld = a
          val dAOld = ub(i)
          var d1 = ub(i); var best = a
          var g2 = 0
          while (g2 < t) { gMin(g2) = Double.PositiveInfinity; gMinIdx(g2) = -1; gMin2(g2) = Double.PositiveInfinity; gScanned(g2) = false; g2 += 1 }
          g2 = 0
          while (g2 < t) {
            m.boundAccess += 1
            if (glb(base + g2) < d1) { // group filter (against current best-so-far)
              gScanned(g2) = true
              val mem = gi.members(g2)
              var z = 0
              while (z < mem.length) {
                val j = mem(z)
                if (j != aOld) {
                  val dd = cdist(x, cs(j))
                  if (dd < gMin(g2)) { gMin2(g2) = gMin(g2); gMin(g2) = dd; gMinIdx(g2) = j }
                  else if (dd < gMin2(g2)) gMin2(g2) = dd
                  if (dd < d1) { d1 = dd; best = j }
                }
                z += 1
              }
            }
            g2 += 1
          }
          // Refresh bounds: scanned groups now hold EXACT member distances
          // (minus the assignee) and can be overwritten; an unscanned group
          // that regains the old centroid can only take a min.
          val gaOld = gi.of(aOld)
          if (best != aOld) {
            if (dAOld < gMin(gaOld)) { gMin2(gaOld) = gMin(gaOld); gMin(gaOld) = dAOld; gMinIdx(gaOld) = aOld }
            else if (dAOld < gMin2(gaOld)) gMin2(gaOld) = dAOld
          }
          g2 = 0
          while (g2 < t) {
            val candidate = if (gMinIdx(g2) == best) gMin2(g2) else gMin(g2)
            if (gScanned(g2)) {
              glb(base + g2) = candidate
              m.boundUpdate += 1
            } else if (g2 == gaOld && best != aOld && candidate < glb(base + g2)) {
              glb(base + g2) = candidate
              m.boundUpdate += 1
            }
            g2 += 1
          }
          ub(i) = d1
          a = best
        }
      }
      reassign(i, a)
      i += 1
    }
  }
}
