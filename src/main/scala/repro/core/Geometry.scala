package repro.core

/** Low-level vector math used by every kernel. Hot-path methods are
  * `while`-loop implementations over `Array[Double]` so the JIT can
  * vectorize them; no allocation inside loops.
  *
  * Every distance is summed in coordinate order in one accumulator of its
  * own, so a distance has the same bits whichever path computes it.
  * `distSq4` and `distSqMany` are the batched path: they run four such sums
  * side by side, which breaks the one serial chain of adds per distance
  * without reordering any of them.
  */
object Geometry {

  /** Euclidean distance ‖a−b‖. */
  def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(distSq(a, b))

  /** Squared Euclidean distance ‖a−b‖². */
  def distSq(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    val n = a.length
    while (i < n) { val t = a(i) - b(i); s += t * t; i += 1 }
    s
  }

  /** `out(o + q) = distSq(x, cq)` for q = 0..3, with the same bits: four
    * independent accumulators, each adding (x_z − c_qz)² for z = 0..d−1 in
    * order. As (a−b)² == (b−a)² exactly, `distSq4(c, x0, .., x3, ..)` also
    * gives the bits of `distSq(xq, c)`.
    */
  def distSq4(x: Array[Double], c0: Array[Double], c1: Array[Double], c2: Array[Double],
              c3: Array[Double], out: Array[Double], o: Int): Unit = {
    var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
    var z = 0
    val n = x.length
    while (z < n) {
      val v = x(z)
      val t0 = v - c0(z); s0 += t0 * t0
      val t1 = v - c1(z); s1 += t1 * t1
      val t2 = v - c2(z); s2 += t2 * t2
      val t3 = v - c3(z); s3 += t3 * t3
      z += 1
    }
    out(o) = s0; out(o + 1) = s1; out(o + 2) = s2; out(o + 3) = s3
  }

  /** `out(q) = distSq(x, cs(idx(q)))` for q < m (`cs(q)` when `idx` is
    * null), with the same bits: four at a time through `distSq4`, the rest
    * one by one.
    */
  def distSqMany(x: Array[Double], cs: Array[Array[Double]], idx: Array[Int], m: Int,
                 out: Array[Double]): Unit = {
    var q = 0
    if (idx == null) {
      while (q + 4 <= m) { distSq4(x, cs(q), cs(q + 1), cs(q + 2), cs(q + 3), out, q); q += 4 }
      while (q < m) { out(q) = distSq(x, cs(q)); q += 1 }
    } else {
      while (q + 4 <= m) {
        distSq4(x, cs(idx(q)), cs(idx(q + 1)), cs(idx(q + 2)), cs(idx(q + 3)), out, q)
        q += 4
      }
      while (q < m) { out(q) = distSq(x, cs(idx(q))); q += 1 }
    }
  }

  /** L2 norm ‖a‖. */
  def norm(a: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * a(i); i += 1 }
    math.sqrt(s)
  }

  /** In-place `acc += x`. */
  def addTo(acc: Array[Double], x: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
  }

  /** In-place `acc -= x`. */
  def subFrom(acc: Array[Double], x: Array[Double]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) -= x(i); i += 1 }
  }

  /** Fresh copy of a k×d matrix. */
  def copy2(m: Array[Array[Double]]): Array[Array[Double]] = m.map(_.clone)

  /** Block norms for the Block-Vector bound [Bottesch et al.]: the vector is
    * split into two halves and we return (‖first half‖, ‖second half‖).
    * By per-block Cauchy-Schwarz, ⟨x,c⟩ ≤ ‖x₁‖‖c₁‖ + ‖x₂‖‖c₂‖, giving the
    * valid lower bound sqrt(‖x‖²+‖c‖²−2(‖x₁‖‖c₁‖+‖x₂‖‖c₂‖)) ≤ ‖x−c‖.
    */
  def blockNorms(a: Array[Double]): (Double, Double) = {
    val h = a.length / 2
    var s1 = 0.0; var s2 = 0.0
    var i = 0
    while (i < h) { s1 += a(i) * a(i); i += 1 }
    while (i < a.length) { s2 += a(i) * a(i); i += 1 }
    (math.sqrt(s1), math.sqrt(s2))
  }

  /** Block-vector lower bound on ‖x−c‖ from precomputed norms. */
  def blockLb(xNormSq: Double, xB1: Double, xB2: Double,
              cNormSq: Double, cB1: Double, cB2: Double): Double = {
    val ip = xB1 * cB1 + xB2 * cB2
    val v  = xNormSq + cNormSq - 2.0 * ip
    if (v <= 0.0) 0.0 else math.sqrt(v)
  }
}
