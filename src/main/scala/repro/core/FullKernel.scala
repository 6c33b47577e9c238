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
    extends SequentialState(points, k) {

  private val ub = new Array[Double](n)
  private val lb = new Array[Double](n * k)
  private var t = 0
  private var glb: Array[Double] = null
  private val xNormSq = new Array[Double](n)
  private val xB1 = new Array[Double](n)
  private val xB2 = new Array[Double](n)
  locally {
    var i = 0
    while (i < n) {
      val (b1, b2) = Geometry.blockNorms(points(i))
      xB1(i) = b1; xB2(i) = b2; xNormSq(i) = b1 * b1 + b2 * b2
      i += 1
    }
  }

  override protected def ubOf(i: Int): Double = ub(i)

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  /** The group count is fixed by the state's first step. */
  override protected def prelude(info: CentroidInfo): Option[Block] = {
    if (glb == null) { t = info.groups.nGroups; glb = new Array[Double](n * t) }
    None
  }

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val gi = info.groups
    val cs = info.centroids
    val cc = info.cc
    val m = b.m
    var i = from
    while (i < until) {
      val x = points(i)
      val base = i * k
      val gbase = i * t
      var best = 0
      var bd = b.cdist(x, cs(0))
      lb(base) = bd
      var j = 1
      while (j < k) {
        if (0.5 * cc(best)(j) < bd) {
          val dd = b.cdist(x, cs(j))
          lb(base + j) = dd
          if (dd < bd) { bd = dd; best = j }
        } else lb(base + j) = cc(best)(j) - bd
        m.boundUpdate += 1
        j += 1
      }
      ub(i) = bd
      var g = 0
      while (g < t) { glb(gbase + g) = Double.PositiveInfinity; g += 1 }
      j = 0
      while (j < k) {
        val g2 = gi.of(j)
        if (j != best && lb(base + j) < glb(gbase + g2)) glb(gbase + g2) = lb(base + j)
        m.boundUpdate += 1
        j += 1
      }
      b.reassign(i, best)
      i += 1
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
      var g = 0
      var globalLb = Double.PositiveInfinity
      while (g < t) {
        glb(gbase + g) -= gi.maxDrift(g)
        if (glb(gbase + g) < globalLb) globalLb = glb(gbase + g)
        m.boundUpdate += 1; m.boundAccess += 1
        g += 1
      }
      m.boundAccess += 1
      if (globalLb < ub(i) && ub(i) > info.sc(a)) {
        var tight = false
        g = 0
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
                    val bv = Geometry.blockLb(xNormSq(i), xB1(i), xB2(i),
                      info.normSq(j2), info.blockB1(j2), info.blockB2(j2))
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
        g = 0
        while (g < t) {
          var v = Double.PositiveInfinity
          val mem = gi.members(g)
          var z = 0
          while (z < mem.length) {
            val j2 = mem(z)
            if (j2 != a && lb(base + j2) < v) v = lb(base + j2)
            z += 1
          }
          glb(gbase + g) = v; m.boundUpdate += 1
          g += 1
        }
      }
      b.reassign(i, a)
      i += 1
    }
  }
}
