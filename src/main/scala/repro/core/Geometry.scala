package repro.core

/** Low-level vector math used by every kernel. Hot-path methods are
  * `while`-loop implementations over `Array[Double]` so the JIT can
  * vectorize them; no allocation inside loops.
  *
  * Every distance is summed in coordinate order in one accumulator of its
  * own, so a distance has the same bits whichever path computes it. There
  * are two batched paths besides `distSq`, and neither reorders an add:
  *  - `distSq4` and `distSqMany` run four such sums side by side, over a
  *    gathered candidate list;
  *  - `distSqPanel` runs all k sums of one point side by side, four
  *    coordinates per pass, over a dimension-major `panel` of the centroids
  *    (one array per coordinate), so its inner loop over the k centroids
  *    vectorizes. The panel is either all centroids (`panel`) or the
  *    candidates a Ball-tree leaf kept, gathered into a scratch panel
  *    (`gather`).
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

  /** `out(q) = distSq(x, cs(idx(q)))` for q < m, with the same bits: four
    * at a time through `distSq4`, the rest one by one.
    */
  def distSqMany(x: Array[Double], cs: Array[Array[Double]], idx: Array[Int], m: Int,
                 out: Array[Double]): Unit = {
    var q = 0
    while (q + 4 <= m) {
      distSq4(x, cs(idx(q)), cs(idx(q + 1)), cs(idx(q + 2)), cs(idx(q + 3)), out, q)
      q += 4
    }
    while (q < m) { out(q) = distSq(x, cs(idx(q))); q += 1 }
  }

  /** The dimension-major panel of `cs`: `panel(z)(j) = cs(j)(z)`, one array
    * per coordinate.
    */
  def panel(cs: Array[Array[Double]]): Array[Array[Double]] = {
    val k = cs.length
    val p = Array.ofDim[Double](if (k == 0) 0 else cs(0).length, k)
    gather(cs, IndexSort.iota(k), k, p)
    p
  }

  /** `panel(z)(q) = cs(idx(q))(z)` for q < m and every row z of `panel`: the
    * centroids `idx` names, in the first m lanes of a scratch panel whose
    * rows hold at least m. A panel of no rows (d = 0) is left untouched.
    * Four centroids per pass over the rows, so each row is touched once per
    * four lanes; the rest one by one.
    */
  def gather(cs: Array[Array[Double]], idx: Array[Int], m: Int,
             panel: Array[Array[Double]]): Unit = {
    val d = panel.length
    var q = 0
    while (q + 4 <= m) {
      val c0 = cs(idx(q)); val c1 = cs(idx(q + 1)); val c2 = cs(idx(q + 2)); val c3 = cs(idx(q + 3))
      var z = 0
      while (z < d) {
        val p = panel(z)
        p(q) = c0(z); p(q + 1) = c1(z); p(q + 2) = c2(z); p(q + 3) = c3(z)
        z += 1
      }
      q += 4
    }
    while (q < m) {
      val c = cs(idx(q))
      var z = 0
      while (z < d) { panel(z)(q) = c(z); z += 1 }
      q += 1
    }
  }

  /** `out(j) = distSq(x, c_j)` for j < k, with the same bits, where `panel`
    * holds c_0..c_{k−1} in its first k lanes (`panel` or `gather`). Each
    * pass over j adds four coordinates into `out(j)`, as
    * `(((out(j) + t0²) + t1²) + t2²) + t3²` with t_q = x_{z+q} − c_{j,z+q},
    * and a last pass per coordinate adds the d mod 4 left over: each lane is
    * `distSq`'s chain of adds in coordinate order, loading and storing
    * `out(j)` once per four coordinates. Java rounds every multiply and add
    * on its own (no fused multiply-add), so the lanes can run in SIMD
    * registers without changing a bit. As (a−b)² == (b−a)² exactly, `out(j)`
    * is also `distSq(c_j, x)`.
    */
  def distSqPanel(x: Array[Double], panel: Array[Array[Double]], k: Int,
                  out: Array[Double]): Unit = {
    java.util.Arrays.fill(out, 0, k, 0.0)
    val d = panel.length
    var z = 0
    while (z + 4 <= d) {
      val v0 = x(z); val v1 = x(z + 1); val v2 = x(z + 2); val v3 = x(z + 3)
      val p0 = panel(z); val p1 = panel(z + 1); val p2 = panel(z + 2); val p3 = panel(z + 3)
      var j = 0
      while (j < k) {
        val t0 = v0 - p0(j); val t1 = v1 - p1(j); val t2 = v2 - p2(j); val t3 = v3 - p3(j)
        out(j) = (((out(j) + t0 * t0) + t1 * t1) + t2 * t2) + t3 * t3
        j += 1
      }
      z += 4
    }
    while (z < d) {
      val v = x(z)
      val p = panel(z)
      var j = 0
      while (j < k) { val t = v - p(j); out(j) += t * t; j += 1 }
      z += 1
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
