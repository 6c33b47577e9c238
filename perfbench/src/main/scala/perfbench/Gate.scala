package perfbench

import repro.core.FitResult

/** Exactness gate: a fit passes only if it reproduces the Lloyd reference
  * run on the same input and init — same iteration count, same converged
  * flag, every centroid coordinate within `centroidTol` and SSE within
  * `sseRelTol` (relative). The tolerances only absorb floating-point
  * summation order (partitioned sums); any real deviation is far larger.
  */
object Gate {
  val centroidTol = 1e-9
  val sseRelTol = 1e-6

  def maxCentroidError(a: Array[Array[Double]], b: Array[Array[Double]]): Double =
    if (a.length != b.length) Double.PositiveInfinity
    else a.indices.map { j =>
      if (a(j).length != b(j).length) Double.PositiveInfinity
      else a(j).indices.map(z => math.abs(a(j)(z) - b(j)(z))).foldLeft(0.0)(math.max)
    }.foldLeft(0.0)(math.max)

  /** None when `r` matches `ref`, else the first mismatch found. */
  def check(ref: FitResult, r: FitResult): Option[String] = {
    val err = maxCentroidError(ref.centroids, r.centroids)
    val sseErr = math.abs(r.sse - ref.sse) / math.max(math.abs(ref.sse), Double.MinPositiveValue)
    if (r.iterations != ref.iterations) Some(s"iterations ${r.iterations} != reference ${ref.iterations}")
    else if (r.converged != ref.converged) Some(s"converged ${r.converged} != reference ${ref.converged}")
    else if (!(err <= centroidTol)) Some(s"max centroid error $err > $centroidTol")
    else if (!(sseErr <= sseRelTol)) Some(s"relative SSE error $sseErr > $sseRelTol")
    else None
  }

  /** Shows the gate rejects a perturbed centroid set and a wrong iteration
    * count, and accepts the reference itself. Returns the failures.
    */
  def selfTest(ref: FitResult): Seq[String] = {
    val perturbed = ref.centroids.map(_.clone)
    perturbed(0)(0) += 1e-6
    Seq(
      Option.when(check(ref, ref).isDefined)("gate rejects the reference itself"),
      Option.when(check(ref, ref.copy(centroids = perturbed)).isEmpty)(
        "gate accepts a centroid perturbed by 1e-6"),
      Option.when(check(ref, ref.copy(iterations = ref.iterations + 1)).isEmpty)(
        "gate accepts a wrong iteration count")
    ).flatten
  }
}
