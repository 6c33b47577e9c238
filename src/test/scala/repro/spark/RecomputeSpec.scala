package repro.spark

import repro.SparkSpec
import repro.core._
import repro.index.{BallKMeansStrategy, BallTree}

/** A partition state rebuilt mid-run (Spark recomputing an evicted cached
  * partition, or a lost executor) must not change the fit: the fresh state
  * seeds its own bounds on its first step, whatever the driver's iteration.
  */
class RecomputeSpec extends SparkSpec {

  private lazy val pts = TestData.mixture(900, 5, 12, 0.06, 91L)
  private val k = 15
  private lazy val init = Init.kmeansPlusPlus(pts, k, 92L)
  private val maxIters = 30
  private val seed = 17L // partition 0's state is built with seed ^ 0

  private val strategies: Seq[Strategy] =
    Strategies.byName.toSeq.sortBy(_._1).map(_._2) ++
      Seq(BallTree.HKT, BallTree.MTree, BallTree.Cover).map(new BallKMeansStrategy(_))

  /** `Runner.fitStates` over two contiguous halves of the points, stepped in
    * order and merged; returns the fit and the concatenated assignments.
    */
  private def fitHalves(s: Strategy): (FitResult, Seq[Int]) = {
    val states = pts.grouped((pts.length + 1) / 2).zipWithIndex
      .map { case (p, pid) => s.newState(p, k, seed ^ pid) }.toSeq
    val res = Runner.fitStates(s, states, ps => info => ps.map(_.step(info)).reduce(_ merge _),
      k, init, maxIters, seed)
    (res, states.flatMap(_.assignments.toSeq))
  }

  private def assertSameFit(got: FitResult, want: FitResult, what: String): Unit = {
    assert(got.iterations == want.iterations, what)
    assert(got.converged == want.converged, what)
    for ((a, b) <- got.centroids.zip(want.centroids); z <- a.indices)
      assert(math.abs(a(z) - b(z)) < 1e-9, s"$what centroid ${a.toSeq} vs ${b.toSeq}")
  }

  private lazy val (lloyd, lloydAssign) = fitHalves(LloydKernel)

  test("the fixture runs well past the recompute iteration") {
    assert(lloyd.converged && lloyd.iterations > RecomputeSpec.At + 2)
  }

  for (s <- strategies) {
    test(s"${s.name} with a partition recomputed at iteration ${RecomputeSpec.At} equals the undisturbed fit") {
      val (plain, _) = fitHalves(s)
      val (disturbed, assign) = fitHalves(new RecomputeSpec.Recomputed(s, seed))
      assertSameFit(disturbed, plain, s"${s.name} locally")
      assert(assign == lloydAssign, s"${s.name}: final assignments differ from Lloyd's")
    }

    test(s"Spark ${s.name} with a partition recomputed at iteration ${RecomputeSpec.At} equals the undisturbed fit") {
      val rdd = spark.sparkContext.parallelize(pts.toSeq, 2)
      def fit(st: Strategy) = SparkKMeans.fit(spark, rdd, st, k, init, maxIters, 2, seed)
      val plain = fit(s)
      assertSameFit(fit(new RecomputeSpec.Recomputed(s, seed)), plain, s"Spark ${s.name}")
      assertSameFit(plain, lloyd, s"Spark ${s.name} against Lloyd")
    }
  }
}

object RecomputeSpec {

  /** The driver iteration at which the victim partition is rebuilt. */
  val At = 3

  /** `inner`, except that the state built with `victimSeed` replaces its
    * inner state with a fresh `newState` over the same points at iteration
    * `At`, as Spark does when it rebuilds a cached partition.
    */
  final class Recomputed(inner: Strategy, victimSeed: Long) extends Strategy {
    val name: String = inner.name
    val req: Req = inner.req

    def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
      if (seed != victimSeed) inner.newState(points, k, seed)
      else new PartitionState {
        private var state = inner.newState(points, k, seed)
        def step(info: CentroidInfo): Partials = {
          if (info.iter == At) state = inner.newState(points, k, seed)
          state.step(info)
        }
        def finalSse(centroids: Array[Array[Double]]): Double = state.finalSse(centroids)
        def assignments: Array[Int] = state.assignments
      }
  }
}
