package repro.index

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.Geometry

class LeafScanSpec extends AnyFunSuite {

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  test("a leaf scan gives the bits of distSq and the first nearest, as its panel grows") {
    val rnd = new Random(61L)
    for (d <- Seq(0, 1, 2, 3, 4, 5, 57)) {
      val k = 40
      val cs = Array.fill(k)(Array.fill(d)(rnd.nextInt(7) - 3.0)) // ties included
      val leaf = new LeafScan(d, k)
      // growing, shrinking and regrowing candidate lists, repeats allowed
      for (m <- Seq(1, 3, 2, 9, 17, 5, 33, k)) {
        val cand = Array.fill(m)(rnd.nextInt(k))
        leaf.load(cs, cand)
        for (_ <- 0 until 3) {
          val x = Array.fill(d)(rnd.nextInt(7) - 3.0)
          val b = leaf.nearest(x)
          val want = cand.map(j => Geometry.distSq(x, cs(j)))
          for (c <- 0 until m) assert(bits(leaf.sq(c)) == bits(want(c)), s"d=$d m=$m c=$c")
          assert(b == want.indexOf(want.min), s"d=$d m=$m")
        }
      }
    }
  }
}
