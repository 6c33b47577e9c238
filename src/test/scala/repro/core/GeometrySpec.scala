package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Property tests for the vector math every bound depends on (hand-rolled
  * generators: only scalatest + scalacheck core are in the offline cache,
  * not the scalatestplus bridge).
  */
class GeometrySpec extends AnyFunSuite {

  private def randVec(rnd: Random, d: Int): Array[Double] =
    Array.fill(d)(rnd.nextDouble() * 200.0 - 100.0)

  private def trials(seed: Long)(body: (Random, Int) => Unit): Unit = {
    val rnd = new Random(seed)
    for (_ <- 0 until 200) body(rnd, 1 + rnd.nextInt(16))
  }

  test("dist is symmetric and nonnegative; distSq = dist²") {
    trials(1L) { (rnd, d) =>
      val a = randVec(rnd, d); val b = randVec(rnd, d)
      val dd = Geometry.dist(a, b)
      assert(dd >= 0.0)
      assert(math.abs(dd - Geometry.dist(b, a)) < 1e-9)
      assert(math.abs(dd * dd - Geometry.distSq(a, b)) < 1e-6)
    }
  }

  test("triangle inequality holds (the basis of every sequential bound)") {
    trials(2L) { (rnd, d) =>
      val a = randVec(rnd, d); val b = randVec(rnd, d); val c = randVec(rnd, d)
      assert(Geometry.dist(a, b) <= Geometry.dist(a, c) + Geometry.dist(c, b) + 1e-9)
    }
  }

  test("blockLb is a valid lower bound on the true distance (Eq. 8)") {
    trials(3L) { (rnd, d) =>
      val x = randVec(rnd, d); val c = randVec(rnd, d)
      val (xb1, xb2) = Geometry.blockNorms(x)
      val (cb1, cb2) = Geometry.blockNorms(c)
      val xn = x.map(v => v * v).sum
      val cn = c.map(v => v * v).sum
      val lb = Geometry.blockLb(xn, xb1, xb2, cn, cb1, cb2)
      assert(lb <= Geometry.dist(x, c) + 1e-9,
        s"block bound $lb exceeds true distance ${Geometry.dist(x, c)}")
    }
  }

  test("addTo/subFrom are inverses") {
    trials(4L) { (rnd, d) =>
      val a = randVec(rnd, d); val b = randVec(rnd, d)
      val acc = a.clone
      Geometry.addTo(acc, b)
      Geometry.subFrom(acc, b)
      acc.indices.foreach(i => assert(math.abs(acc(i) - a(i)) < 1e-9))
    }
  }

  test("norm matches dist to origin; blockNorms recompose the norm") {
    trials(5L) { (rnd, d) =>
      val a = randVec(rnd, d)
      val zero = new Array[Double](d)
      assert(math.abs(Geometry.norm(a) - Geometry.dist(a, zero)) < 1e-9)
      val (b1, b2) = Geometry.blockNorms(a)
      assert(math.abs(math.sqrt(b1 * b1 + b2 * b2) - Geometry.norm(a)) < 1e-9)
    }
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  private val batchDims = Seq(0, 1, 3, 4, 5, 57)

  test("distSq4 gives the bits of distSq, with either role as the shared vector") {
    val rnd = new Random(6L)
    for (d <- batchDims; _ <- 0 until 20) {
      val x = randVec(rnd, d)
      val c = Array.fill(4)(randVec(rnd, d))
      val out = Array.fill(7)(Double.NaN)
      Geometry.distSq4(x, c(0), c(1), c(2), c(3), out, 2)
      for (q <- 0 until 4) assert(bits(out(2 + q)) == bits(Geometry.distSq(x, c(q))), s"d=$d q=$q")
      assert(Seq(0, 1, 6).forall(o => out(o).isNaN), "distSq4 wrote outside out(o .. o+3)")
      // the roles swapped: four points against one centre, as k-means++ runs it
      val centre = randVec(rnd, d)
      Geometry.distSq4(centre, c(0), c(1), c(2), c(3), out, 0)
      for (q <- 0 until 4)
        assert(bits(out(q)) == bits(Geometry.distSq(c(q), centre)), s"d=$d q=$q swapped")
    }
  }

  test("distSqMany gives the bits of distSq for every count, with and without idx") {
    val rnd = new Random(7L)
    for (d <- batchDims; m <- 0 to 9) {
      val x = randVec(rnd, d)
      val cs = Array.fill(m + 3)(randVec(rnd, d))
      val out = new Array[Double](m)
      Geometry.distSqMany(x, cs, null, m, out)
      for (q <- 0 until m) assert(bits(out(q)) == bits(Geometry.distSq(x, cs(q))), s"d=$d m=$m q=$q")
      // any centroids in any order, repeats allowed
      val idx = Array.fill(m)(rnd.nextInt(cs.length))
      Geometry.distSqMany(x, cs, idx, m, out)
      for (q <- 0 until m)
        assert(bits(out(q)) == bits(Geometry.distSq(x, cs(idx(q)))), s"d=$d m=$m q=$q idx")
    }
  }

  test("copy2 is a deep copy") {
    val m = Array(Array(1.0, 2.0), Array(3.0, 4.0))
    val c = Geometry.copy2(m)
    c(0)(0) = 99.0
    assert(m(0)(0) == 1.0)
  }
}
