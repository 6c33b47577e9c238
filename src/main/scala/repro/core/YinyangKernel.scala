package repro.core

/** Yinyang k-means [Ding et al., ICML'15]: k centroids partitioned into
  * t = ⌈k/10⌉ groups; each point stores an upper bound plus one lower bound
  * per GROUP. Global filter → group filter → per-centroid distances.
  * Groups are fixed after the first iteration.
  *
  * Regroup [Kwedlo, ICAISC'17] refreshes the grouping every iteration
  * (`Grouping.Regrouped`); per-point group bounds are remapped
  * conservatively via the old→new group overlap supplied by the driver-side
  * `Grouper`.
  */
object YinyangKernel extends Strategy {
  val name = "Yinyang"
  override val grouping: Grouping = Grouping.Fixed

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new YinyangState(points, k)
}

object RegroupKernel extends Strategy {
  val name = "Regroup"
  override val grouping: Grouping = Grouping.Regrouped

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new YinyangState(points, k)
}

final class YinyangState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  private val ub = new Array[Double](n)
  private val t = Grouper.nGroupsFor(k)
  private val glb = new Array[Double](n * t) // flattened (i, g)

  /** A block's scratch: the group scan and Regroup's remap buffer. */
  protected final class Ctx extends Block {
    val gs = new GroupScan(t, k)
    val remapBuf = new Array[Double](t)
  }
  protected def newBlock(): Ctx = new Ctx

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Ctx): Unit = {
    var i = from
    while (i < until) {
      val best = b.gs.seed(points(i), info, glb, i * t, b.m)
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
    // Regroup reads every old group bound a new group draws on, per point.
    val remapReads = if (remap == null) 0 else remap.map(_.length).sum
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
            z += 1
          }
          remapBuf(g) = v
          g += 1
        }
        System.arraycopy(remapBuf, 0, glb, base, t)
        m.boundAccess += remapReads; m.boundUpdate += t
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
