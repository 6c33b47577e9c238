package repro.core

/** Exponion [Newling & Fleuret, ICML'16]: Hamerly's bounds plus, on bound
  * failure, candidates restricted to a ball around the ASSIGNED centroid:
  * ‖c_j − c_a‖ ≤ 2·ub + ‖c_a − c_a's nearest other‖ (Eq. 6), walked via the
  * per-centroid Exponion annuli (rank-doubling shells, built for a centroid
  * when a rescan first reads it): the walk skips centroids outside the ball
  * and stops at the first shell boundary past it, so it computes exactly the
  * distances a walk over fully sorted neighbour lists would.
  */
object ExpoKernel extends Strategy {
  val name = "Expo"

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new ExpoState(points, k)
}

final class ExpoState(points: Array[Array[Double]], k: Int)
    extends HamerlyState(points, k) {

  /** Scans the Exponion ball around the assigned centroid. */
  protected def rescan(i: Int, x: Array[Double], info: CentroidInfo, b: Block): Unit = {
    val cs = info.centroids
    val a = assign(i)
    val ubT = ub(i) // already tightened to the exact distance d(x, c_a)
    val no = info.nearestOther(a)
    val radius = 2.0 * ubT + no
    val nb = info.neighbors(a) // nb(0) == a, then shells [2^s, 2^(s+1)) by cc(a, ·)
    val cca = info.cc(a)
    // The ball's members in walk order; the walk reads only cc.
    val ball = b.iBuf
    var cnt = 0
    var shellEnd = 2
    var seenMax = 0.0 // largest cc(a, ·) in the shells walked so far
    var z = 1
    // Every later shell lies at or beyond seenMax: stop at a boundary past the ball.
    while (z < nb.length && !(z == shellEnd && seenMax > radius)) {
      if (z == shellEnd) shellEnd <<= 1
      val j = nb(z)
      val c = cca(j)
      if (c > seenMax) seenMax = c
      if (c <= radius) { ball(cnt) = j; cnt += 1 }
      z += 1
    }
    val sq = b.distSqs(x, cs, ball, cnt)
    var best = a; var d1 = ubT; var d2 = Double.PositiveInfinity
    z = 0
    while (z < cnt) {
      val dd = math.sqrt(sq(z))
      if (dd < d1) { d2 = d1; d1 = dd; best = ball(z) }
      else if (dd < d2) d2 = dd
      z += 1
    }
    // Centroids outside the ball satisfy d(x,c_j) >= ubT + nearestOther(a).
    val outsideLb = ubT + no
    ub(i) = d1
    lb(i) = math.min(d2, outsideLb)
    b.m.boundUpdate += 2
    b.reassign(i, best)
  }
}
