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

  /** A block's scratch: the group scan and Regroup's remap buffer. */
  protected final class Ctx extends Block {
    val gs = new GroupScan(t, k)
    val remapBuf = new Array[Double](t)
  }
  protected def newBlock(): Ctx = new Ctx

  /** The group count is fixed by the state's first step. */
  override protected def prelude(info: CentroidInfo): Option[Ctx] = {
    if (glb == null) { t = info.groups.nGroups; glb = new Array[Double](n * t) }
    None
  }

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Ctx): Unit = {
    var i = from
    while (i < until) {
      val best = b.gs.seed(points(i), info.centroids, info.groups, glb, i * t, b.m)
      b.m.pointAccess += b.gs.dists
      ub(i) = b.gs.d1
      b.reassign(i, best)
      i += 1
    }
  }

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Ctx): Unit = {
    val cs = info.centroids
    val gi = info.groups
    val remap = gi.remapFrom
    val m = b.m
    val gs = b.gs; val remapBuf = b.remapBuf
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
      val globalLb = GroupScan.drift(glb, base, gi, m)
      if (globalLb < ub(i)) {
        ub(i) = b.cdist(x, cs(a)) // tighten
        if (globalLb < ub(i)) {
          val best = gs.scan(x, cs, gi, glb, base, a, ub(i), 0.0, m)
          m.pointAccess += gs.dists
          gs.refresh(glb, base, gi, a, ub(i), best, m)
          ub(i) = gs.d1
          a = best
        }
      }
      b.reassign(i, a)
      i += 1
    }
  }
}
