package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Geometry, IndexSort}

/** One-thread throughput of the batched distance kernels on the BigCross
  * analog (d = 57), in two shapes:
  *  - all k centroids: `Geometry.distSqMany` over them in index order
  *    against `Geometry.distSqPanel` over their dimension-major panel;
  *  - an index leaf: a leaf's points each scanned against the same
  *    `m` gathered candidates, by `distSqMany` against a `Geometry.gather`
  *    into a scratch panel once per leaf, then `distSqPanel` per point (the
  *    ball-tree leaf scan, `LeafScan`).
  * Every kernel must give the bits of `Geometry.distSq`; the speeds are
  * only reported.
  */
class KernelBench extends AnyFunSuite {

  private val reps = 7

  /** Best of `reps` timed passes of `dists` distances each, in M dist/s. */
  private def mdps(dists: Long)(pass: => Unit): Double = {
    val ns = (0 until reps).map { _ =>
      val t0 = System.nanoTime()
      pass
      System.nanoTime() - t0
    }.min
    dists.toDouble / ns * 1e3
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  test("Kernel throughput: distSqMany against the panel, over all centroids and a leaf") {
    val pts = BenchEnv.points("BigCross")
    val n = pts.length
    val d = pts(0).length
    val allRows = Seq(100, 1000).map { k =>
      val cs = BenchEnv.init("BigCross", k, 17L)
      val idx = IndexSort.iota(k)
      val panel = Geometry.panel(cs)
      val many = new Array[Double](k)
      val lanes = new Array[Double](k)
      for (x <- pts) {
        Geometry.distSqMany(x, cs, idx, k, many)
        Geometry.distSqPanel(x, panel, k, lanes)
        for (j <- 0 until k) {
          val want = bits(Geometry.distSq(x, cs(j)))
          assert(bits(many(j)) == want, s"distSqMany k=$k j=$j")
          assert(bits(lanes(j)) == want, s"distSqPanel k=$k j=$j")
        }
      }
      val manyM = mdps(n.toLong * k) {
        var i = 0
        while (i < n) { Geometry.distSqMany(pts(i), cs, idx, k, many); i += 1 }
      }
      val panelM = mdps(n.toLong * k) {
        var i = 0
        while (i < n) { Geometry.distSqPanel(pts(i), panel, k, lanes); i += 1 }
      }
      Seq(s"all $k centroids", k.toString, d.toString, BenchEnv.fmt(manyM),
        BenchEnv.fmt(panelM), BenchEnv.fmt(panelM / manyM))
    }

    // The leaf shape of INDE at k = 1000 on this data (this init, ten
    // iterations, Ball-tree capacity 30): a scanned leaf holds 17.4 points
    // on average, and a scanned point keeps 123.4 candidates on average.
    // Data and init seeds 42 and 2024 give 17.0 / 128.1 and 17.6 / 114.3.
    val k = 1000; val m = 123; val leafSize = 17
    val cs = BenchEnv.init("BigCross", k, 17L)
    val rnd = new scala.util.Random(23L)
    val leaves = (0 until n by leafSize).map { from =>
      (from, math.min(n, from + leafSize), rnd.shuffle((0 until k).toVector).take(m).toArray)
    }
    val many = new Array[Double](m)
    val lanes = new Array[Double](m)
    val scratch = Array.ofDim[Double](d, k)
    for ((from, until, cand) <- leaves) {
      Geometry.gather(cs, cand, m, scratch)
      for (i <- from until until) {
        Geometry.distSqMany(pts(i), cs, cand, m, many)
        Geometry.distSqPanel(pts(i), scratch, m, lanes)
        for (c <- 0 until m) {
          val want = bits(Geometry.distSq(pts(i), cs(cand(c))))
          assert(bits(many(c)) == want, s"distSqMany leaf i=$i c=$c")
          assert(bits(lanes(c)) == want, s"gather + distSqPanel leaf i=$i c=$c")
        }
      }
    }
    val manyM = mdps(n.toLong * m) {
      for ((from, until, cand) <- leaves) {
        var i = from
        while (i < until) { Geometry.distSqMany(pts(i), cs, cand, m, many); i += 1 }
      }
    }
    val panelM = mdps(n.toLong * m) {
      for ((from, until, cand) <- leaves) {
        Geometry.gather(cs, cand, m, scratch)
        var i = from
        while (i < until) { Geometry.distSqPanel(pts(i), scratch, m, lanes); i += 1 }
      }
    }
    val leafRow = Seq(s"leaf: $m of $k gathered, $leafSize points per gather", m.toString,
      d.toString, BenchEnv.fmt(manyM), BenchEnv.fmt(panelM), BenchEnv.fmt(panelM / manyM))

    val md = s"## Distance kernels — BigCross analog, n=$n, one thread, best of $reps passes\n\n" +
      "On the leaf row, the panel time includes one gather per leaf.\n\n" +
      BenchEnv.markdownTable(
        Seq("shape", "centroids per point", "d", "distSqMany (M dist/s)", "distSqPanel (M dist/s)",
          "panel / many"), allRows :+ leafRow)
    BenchEnv.emit("kernel.md", md)
  }
}
