package repro.core

/** Annular algorithm [Drake '13 / Hamerly & Drake '15]: Hamerly's bounds
  * plus, when a full re-scan is needed, the candidate centroids are limited
  * to an annulus around the origin: | ‖c‖ − ‖x‖ | ≤ R with
  * R = max(tightened ub, d(x, second-nearest-from-last-scan)) (Eq. 5).
  * Centroid norms are sorted once per iteration (`CentroidInfo.sortedNormVal`).
  */
object AnnuKernel extends Strategy {
  val name = "Annu"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new AnnuState(points, k)
}

final class AnnuState(points: Array[Array[Double]], k: Int)
    extends HamerlyState(points, k) {

  private val second = new Array[Int](n) // identity of second-nearest at last scan
  private val xNorm: Array[Double] = points.map(Geometry.norm)

  override protected def seedScan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit =
    twoNearest(i, x, info, b)

  /** The full scan, also recording which centroid was second nearest. */
  private def twoNearest(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit = {
    fullScan(i, x, info, b)
    second(i) = if (b.second >= 0) b.second else assign(i)
  }

  /** Scan only centroids inside the annulus; both the true nearest and the
    * true second-nearest provably lie inside (see Section 4.3.1).
    */
  protected def rescan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit = {
    val cs = info.centroids
    val dSecond = if (second(i) == assign(i)) ub(i) else b.cdist(x, cs(second(i)))
    val r = math.max(ub(i), dSecond)
    val lo = xNorm(i) - r
    val hi = xNorm(i) + r
    val sv = info.sortedNormVal
    val si = info.sortedNormIdx
    val from = lowerBound(sv, lo)
    var until = from
    while (until < k && sv(until) <= hi) until += 1
    val ring = b.iBuf
    System.arraycopy(si, from, ring, 0, until - from)
    val sq = b.distSqs(x, cs, ring, until - from)
    var best = -1; var d1 = Double.PositiveInfinity
    var sec = -1; var d2 = Double.PositiveInfinity
    // The current assignee and old second are inside the annulus by
    // construction, so the scan below always sees >= 2 candidates (k >= 2).
    var z = 0
    while (z < until - from) {
      val j = ring(z)
      val dd = math.sqrt(sq(z))
      if (dd < d1) { d2 = d1; sec = best; d1 = dd; best = j }
      else if (dd < d2) { d2 = dd; sec = j }
      z += 1
    }
    if (best < 0) { twoNearest(i, x, info, b); return } // numeric safety net
    ub(i) = d1; lb(i) = d2; second(i) = if (sec >= 0) sec else best
    b.m.boundUpdate += 2
    b.reassign(i, best)
  }

  /** First index with value >= key in a sorted array. */
  private def lowerBound(arr: Array[Double], key: Double): Int = {
    var lo = 0; var hi = arr.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (arr(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }
}
