package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Geometry, IndexSort}

/** One-thread throughput of the two batched all-centroid distance kernels on
  * the BigCross analog (d = 57): `Geometry.distSqMany` over the k centroids
  * in index order, and `Geometry.distSqPanel` over their dimension-major
  * panel. Both must give the bits of `Geometry.distSq`; the speeds are only
  * reported.
  */
class KernelBench extends AnyFunSuite {

  private val reps = 7

  /** Best of `reps` timed passes over every point, in M dist/s. */
  private def mdps(n: Int, k: Int)(pass: => Unit): Double = {
    val ns = (0 until reps).map { _ =>
      val t0 = System.nanoTime()
      pass
      System.nanoTime() - t0
    }.min
    n.toDouble * k / ns * 1e3
  }

  test("Kernel throughput: distSqMany against the centroid panel") {
    val pts = BenchEnv.points("BigCross")
    val n = pts.length
    val rows = Seq(100, 1000).map { k =>
      val cs = BenchEnv.init("BigCross", k, 17L)
      val idx = IndexSort.iota(k)
      val panel = Geometry.panel(cs)
      val many = new Array[Double](k)
      val lanes = new Array[Double](k)
      for (x <- pts) {
        Geometry.distSqMany(x, cs, idx, k, many)
        Geometry.distSqPanel(x, panel, k, lanes)
        for (j <- 0 until k) {
          val want = java.lang.Double.doubleToRawLongBits(Geometry.distSq(x, cs(j)))
          assert(java.lang.Double.doubleToRawLongBits(many(j)) == want, s"distSqMany k=$k j=$j")
          assert(java.lang.Double.doubleToRawLongBits(lanes(j)) == want, s"distSqPanel k=$k j=$j")
        }
      }
      val manyM = mdps(n, k) {
        var i = 0
        while (i < n) { Geometry.distSqMany(pts(i), cs, idx, k, many); i += 1 }
      }
      val panelM = mdps(n, k) {
        var i = 0
        while (i < n) { Geometry.distSqPanel(pts(i), panel, k, lanes); i += 1 }
      }
      Seq(k.toString, cs(0).length.toString, BenchEnv.fmt(manyM), BenchEnv.fmt(panelM),
        BenchEnv.fmt(panelM / manyM))
    }
    val md = s"## Distance kernels — BigCross analog, n=$n, one thread, best of $reps passes\n\n" +
      BenchEnv.markdownTable(
        Seq("k", "d", "distSqMany (M dist/s)", "distSqPanel (M dist/s)", "panel / many"), rows)
    BenchEnv.emit("kernel.md", md)
  }
}
