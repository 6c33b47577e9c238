package repro.index

import repro.core.Geometry

/** The leaf scan of the ball-tree walk (`CandidateFilter`): every point of
  * a leaf is scanned against the same kept candidates, so
  * `load` gathers them once per leaf into a dimension-major scratch panel
  * (`Geometry.gather`), and `nearest` computes a point's squared distances
  * to all of them in one `Geometry.distSqPanel` pass, with the bits of
  * `Geometry.distSq`. The panel grows on demand, to at most d × k.
  *
  * The scratch serves one leaf at a time, so one instance belongs to one
  * thread.
  */
final class LeafScan(d: Int, k: Int) {
  private var panel = Array.ofDim[Double](d, 0)
  private var m = 0

  /** The last `nearest` scan's squared distances, in candidate order. */
  val sq = new Array[Double](k)

  /** Gathers the centroids `cand` names for the leaf's points. */
  def load(cs: Array[Array[Double]], cand: Array[Int]): Unit = {
    m = cand.length
    if (d > 0 && m > panel(0).length)
      panel = Array.ofDim[Double](d, math.min(k, math.max(m, 2 * panel(0).length)))
    Geometry.gather(cs, cand, m, panel)
  }

  /** Fills `sq` with x's squared distances to the loaded candidates and
    * returns the position of the first nearest.
    */
  def nearest(x: Array[Double]): Int = {
    Geometry.distSqPanel(x, panel, m, sq)
    var b = 0; var bd = Double.PositiveInfinity
    var c = 0
    while (c < m) {
      if (sq(c) < bd) { bd = sq(c); b = c }
      c += 1
    }
    b
  }
}
