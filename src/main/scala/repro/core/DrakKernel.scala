package repro.core

/** Drake & Hamerly's adaptive-bounds algorithm [OPT'12]: b = ⌈k/4⌉ lower
  * bounds per point covering its b nearest non-assigned centroids, plus one
  * bound for the rest. Middle ground between Hame (1 bound) and Elka (k).
  */
object DrakKernel extends Strategy {
  val name = "Drak"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new DrakState(points, k)
}

final class DrakState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  // b = ⌈k/4⌉ stored bounds, but never more than the k−1 "other" centroids
  // (k = 1 has none: every test short-circuits on the empty list).
  private val b = math.max(0, math.min(k - 1, math.ceil(k / 4.0).toInt))
  private val ub = new Array[Double](n)
  private val rest = new Array[Double](n)       // lower bound for all non-stored centroids
  private val bIdx = Array.ofDim[Int](n, b)     // the b closest non-assigned centroids
  private val bLb = Array.ofDim[Double](n, b)   // their lower bounds

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, blk: Block): Unit = {
    var i = from
    while (i < until) { fullScan(i, points(i), info, blk); i += 1 }
  }

  protected def assignAll(info: CentroidInfo, from: Int, until: Int, blk: Block): Unit = {
    val cs = info.centroids
    val m = blk.m
    var i = from
    while (i < until) {
      val x = points(i)
      val a = assign(i)
      ub(i) += info.drifts(a)
      rest(i) -= info.maxDrift
      m.boundUpdate += 2
      var minStored = Double.PositiveInfinity
      var z = 0
      while (z < b) {
        bLb(i)(z) -= info.drifts(bIdx(i)(z))
        if (bLb(i)(z) < minStored) minStored = bLb(i)(z)
        m.boundUpdate += 1; m.boundAccess += 1
        z += 1
      }
      m.boundAccess += 2
      if (math.max(info.sc(a), math.min(minStored, rest(i))) < ub(i)) {
        // Tighten and re-check before touching any stored centroid.
        ub(i) = blk.cdist(x, cs(a))
        if (math.max(info.sc(a), math.min(minStored, rest(i))) < ub(i)) {
          // Exact distances to the b stored centroids.
          val sq = blk.distSqs(x, cs, bIdx(i), b)
          var best = a; var d1 = ub(i); var d2 = Double.PositiveInfinity
          z = 0
          while (z < b) {
            val j = bIdx(i)(z)
            val dd = math.sqrt(sq(z))
            bLb(i)(z) = dd
            if (dd < d1) { d2 = d1; d1 = dd; best = j }
            else if (dd < d2) d2 = dd
            z += 1
          }
          if (d1 > rest(i)) {
            // Some unstored centroid might still win — full rebuild.
            fullScan(i, x, info, blk)
          } else {
            if (best != a) {
              // The stored list must keep covering every non-assigned
              // centroid: swap the old assignee in for the new one, with
              // its exact distance (ub(i) still holds d(x, c_a)).
              var slot = -1
              var z2 = 0
              while (z2 < b) { if (bIdx(i)(z2) == best) slot = z2; z2 += 1 }
              if (slot >= 0) { bIdx(i)(slot) = a; bLb(i)(slot) = ub(i); m.boundUpdate += 1 }
            }
            ub(i) = d1
            blk.reassign(i, best)
          }
        } else blk.reassign(i, a)
      } else blk.reassign(i, a)
      i += 1
    }
  }

  /** Compute all k distances; store the b nearest others and the (b+1)-th as
    * `rest`. Pairs are ordered by (distance, centroid index), as a stable
    * sort by distance would order them: a selection puts the (b+1)-th in
    * place and the b+1 nearest before it, which are then sorted. The
    * (distance, centroid) pairs live in the block's scratch.
    */
  private def fullScan(i: Int, x: Array[Double], info: CentroidInfo, blk: Block): Unit = {
    val dTmp = blk.distSqsAll(x, info); val order = blk.iBuf
    var j = 0
    while (j < k) { dTmp(j) = math.sqrt(dTmp(j)); order(j) = j; j += 1 }
    if (b + 1 < k) IndexSort.select(dTmp, order, 0, k - 1, b + 1)
    IndexSort.sort(dTmp, order, 0, b)
    val best = order(0)
    ub(i) = dTmp(0)
    var z = 0
    while (z < b) {
      bIdx(i)(z) = order(z + 1); bLb(i)(z) = dTmp(z + 1)
      blk.m.boundUpdate += 1
      z += 1
    }
    rest(i) = if (b + 1 < k) dTmp(b + 1) else Double.PositiveInfinity
    blk.m.boundUpdate += 2
    blk.reassign(i, best)
  }
}
