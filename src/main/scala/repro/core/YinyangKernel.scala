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

  /** A block's scratch: per group, the best and second-best distance seen
    * for the current point.
    */
  protected final class Ctx extends Block {
    val gMin = new Array[Double](t)
    val gMinIdx = new Array[Int](t)
    val gMin2 = new Array[Double](t)
    val gScanned = new Array[Boolean](t)
    val remapBuf = new Array[Double](t)
  }
  protected def newBlock(): Ctx = new Ctx

  /** The group count is fixed by the state's first step. */
  override protected def prelude(info: CentroidInfo): Option[Ctx] = {
    if (glb == null) { t = info.groups.nGroups; glb = new Array[Double](n * t) }
    None
  }

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Ctx): Unit = {
    val cs = info.centroids
    val gi = info.groups
    val m = b.m
    val gMin = b.gMin; val gMinIdx = b.gMinIdx; val gMin2 = b.gMin2
    var i = from
    while (i < until) {
      val x = points(i)
      val base = i * t
      var g = 0
      while (g < t) { gMin(g) = Double.PositiveInfinity; gMinIdx(g) = -1; gMin2(g) = Double.PositiveInfinity; g += 1 }
      var best = -1; var d1 = Double.PositiveInfinity
      var j = 0
      while (j < k) {
        val dd = b.cdist(x, cs(j))
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
      b.reassign(i, best)
      i += 1
    }
  }

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Ctx): Unit = {
    val cs = info.centroids
    val gi = info.groups
    val remap = gi.remapFrom
    val m = b.m
    val gMin = b.gMin; val gMinIdx = b.gMinIdx; val gMin2 = b.gMin2
    val gScanned = b.gScanned; val remapBuf = b.remapBuf
    var i = from
    while (i < until) {
      val x = points(i)
      val base = i * t
      var a = assign(i)

      if (remap != null) {
        // Regroup: new group bound = min over contributing old groups.
        var g = 0
        while (g < t) {
          var v = Double.PositiveInfinity
          val olds = remap(g)
          var z = 0
          while (z < olds.length) {
            val old = glb(base + olds(z))
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
        ub(i) = b.cdist(x, cs(a)) // tighten
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
                  val dd = b.cdist(x, cs(j))
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
      b.reassign(i, a)
      i += 1
    }
  }
}
