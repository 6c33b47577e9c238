package repro.core

/** An ordered log of movers (Section 5.1.2): entry z takes vector `vec(z)`,
  * the sum of `num(z)` points, out of cluster `from(z)` and into cluster
  * `to(z)`, where -1 names no cluster. A mover is a point or a whole index
  * node. `applyTo` replays the entries in log order, so the sums it leaves
  * depend only on that order. Logging a point counts its access into `m`.
  */
final class MoveLog(m: Metrics) {
  private var vec = new Array[Array[Double]](16)
  private var num = new Array[Long](16)
  private var from = new Array[Int](16)
  private var to = new Array[Int](16)
  private var size = 0

  /** Logs point x moving from cluster `f` to cluster `t`. */
  def point(x: Array[Double], f: Int, t: Int): Unit = { m.pointAccess += 1; add(x, 1L, f, t) }

  /** Logs a sum vector over `cnt` points moving from cluster `f` to cluster `t`. */
  def add(v: Array[Double], cnt: Long, f: Int, t: Int): Unit = {
    if (size == vec.length) {
      vec = java.util.Arrays.copyOf(vec, 2 * size); num = java.util.Arrays.copyOf(num, 2 * size)
      from = java.util.Arrays.copyOf(from, 2 * size); to = java.util.Arrays.copyOf(to, 2 * size)
    }
    vec(size) = v; num(size) = cnt; from(size) = f; to(size) = t
    size += 1
  }

  /** Applies the entries to `sums`/`counts` in log order and empties the log. */
  def applyTo(sums: Array[Array[Double]], counts: Array[Long]): Unit = {
    var z = 0
    while (z < size) {
      if (from(z) >= 0) { Geometry.subFrom(sums(from(z)), vec(z)); counts(from(z)) -= num(z) }
      if (to(z) >= 0) { Geometry.addTo(sums(to(z)), vec(z)); counts(to(z)) += num(z) }
      vec(z) = null
      z += 1
    }
    size = 0
  }
}
