package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Pami20's candidate sets (Eq. 4), which each state builds over its own
  * points' radii.
  */
class Pami20Spec extends AnyFunSuite {
  import Pami20Spec.Step

  private val cs = TestData.mixture(40, 3, 8, 0.05, 101L)
  private val ci = CentroidInfo.compute(2, cs, cs.map(_.map(_ - 0.01)), null)

  /** Cluster a's candidates under radius r, by Eq. 4, in index order. */
  private def eq4(i: CentroidInfo, a: Int, r: Double): Seq[Int] =
    (0 until i.k).filter(b => b == a || i.cc(a)(b) * 0.5 <= r)

  test("Pami20 candidate sets always contain the own cluster and respect Eq. 4") {
    val cand = new Pami20Candidates(ci, Array.fill(cs.length)(0.05))
    cs.indices.foreach { a =>
      assert(cand(a).contains(a))
      assert(cand(a).toSeq == eq4(ci, a, 0.05), s"row $a")
    }
    assert(cs.indices.exists(a => cand(a).length < cs.length), "no candidate set is cut by Eq. 4")
  }

  test("infinite radii keep every candidate") {
    val cand = new Pami20Candidates(ci, Array.fill(cs.length)(Double.PositiveInfinity))
    cs.indices.foreach(a => assert(cand(a).toSeq == cs.indices))
  }

  /** An info at iteration 2 over k centroids in 57 dimensions, and radii
    * that cut some candidate sets and keep more than the own cluster in
    * others: each cluster's distance to its nearest other centroid.
    */
  private def cut(k: Int, seed: Long): (CentroidInfo, Array[Double]) = {
    val c1 = TestData.mixture(k, 57, 20, 0.05, seed)
    val i = CentroidInfo.compute(2, c1.map(_.map(_ + 0.001)), c1, null)
    (i, Array.tabulate(k)(i.nearestOther))
  }

  test("concurrent first reads of the candidate rows give one-thread rows and one object per row") {
    val k = 300
    val (i, radii) = cut(k, 306L)
    val want = Array.tabulate(k)(a => eq4(i, a, radii(a)))
    assert(want.exists(_.length < k) && want.exists(_.length > 1))
    val shared = new Pami20Candidates(i, radii)
    val tasks = (0 until 16).map { t =>
      java.util.concurrent.ForkJoinPool.commonPool.submit(new java.util.concurrent.Callable[Map[Int, Array[Int]]] {
        def call(): Map[Int, Array[Int]] =
          new scala.util.Random(t).shuffle((0 until k).toVector).map(a => a -> shared(a)).toMap
      })
    }
    val got = tasks.map(_.get)
    for (a <- 0 until k; g <- got) {
      assert(g(a).toSeq == want(a), s"row $a differs from Eq. 4")
      assert(g(a) eq got.head(a), s"row $a is two objects")
    }
  }

  test("reading every candidate row leaves the info's bytes unchanged; a copy rebuilds each row") {
    def bytesOf(v: AnyRef): Array[Byte] = {
      val bytes = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(v); out.close()
      bytes.toByteArray
    }
    val (i, radii) = cut(40, 307L)
    val untouched = bytesOf(i)
    val cand = new Pami20Candidates(i, radii)
    val rows = Array.tabulate(i.k)(cand(_))
    assert(bytesOf(i).sameElements(untouched), "reading the candidate rows changed the info's bytes")
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(untouched))
    val copy = new Pami20Candidates(in.readObject().asInstanceOf[CentroidInfo], radii)
    for (a <- 0 until i.k) assert(copy(a).sameElements(rows(a)), s"row $a is rebuilt otherwise")
  }

  private def stepsOver(s: Strategy, parts: Seq[Array[Array[Double]]], k: Int,
                        init: Array[Array[Double]]): Seq[Step] = {
    val states = parts.map(s.newState(_, k, 0L))
    val steps = Seq.newBuilder[Step]
    var last = states.map(_ => 0L)
    Runner.fitStates(s, states, ps => { (info: CentroidInfo) =>
      val before = ps.map(_.assignments)
      val partials = ps.map(_.step(info))
      val cum = partials.map(_.metrics.dist)
      steps += Step(info, before, ps.map(_.assignments), cum.zip(last).map { case (c, l) => c - l })
      last = cum
      partials.reduce(_ merge _)
    }, k, init, 30, 0L)
    steps.result()
  }

  // Eq. 4 needs only the radii of the points being assigned, so each state
  // cuts its candidates by its own points' radii: its distance count in a
  // step is the size of those candidate sets, never that of the radii over
  // all points. Radii are taken within 1e-9 (relative) either way, as the
  // test measures them with `Geometry.dist`.
  test("two Pami20 states each use their own radii and assign as Lloyd every iteration") {
    val pts = TestData.mixture(3000, 8, 30, 0.05, 61L)
    val k = 40
    val init = Init.kmeansPlusPlus(pts, k, 62L)
    val halves = pts.grouped(pts.length / 2).toSeq
    val lloyd = stepsOver(LloydKernel, halves, k, init)
    val pami = stepsOver(Pami20Kernel, halves, k, init)
    assert(pami.length == lloyd.length && pami.length > 3)
    for ((p, l) <- pami.zip(lloyd))
      assert(p.after.map(_.toSeq) == l.after.map(_.toSeq), s"step ${p.info.iter} differs from Lloyd")

    var ownCut = false
    for (Seq(prev, cur) <- pami.sliding(2)) {
      val info = cur.info
      // radius(h)(a): the largest distance of state h's points in cluster a
      // to a's previous centroid, padded by a's drift
      val radius = halves.indices.map { h =>
        val r = new Array[Double](k)
        for ((x, a) <- halves(h).zip(cur.before(h)))
          r(a) = math.max(r(a), Geometry.dist(x, prev.info.centroids(a)))
        Array.tabulate(k)(a => r(a) + info.drifts(a))
      }
      val all = Array.tabulate(k)(a => radius.map(_(a)).max)
      def count(h: Int, r: Array[Double], f: Double) =
        cur.before(h).map(a => eq4(info, a, r(a) * f).length.toLong).sum
      for (h <- halves.indices) {
        val d = cur.dist(h)
        assert(count(h, radius(h), 1 - 1e-9) <= d && d <= count(h, radius(h), 1 + 1e-9),
          s"state $h, step ${info.iter}: $d distances")
        if (count(h, all, 1 - 1e-9) > d) ownCut = true
      }
    }
    assert(ownCut, "no step cuts a candidate set by a state's own radii")
  }
}

object Pami20Spec {

  /** One step of a fit over several states: the info, each state's
    * assignments before and after it, and each state's distances in it.
    */
  final case class Step(info: CentroidInfo, before: Seq[Array[Int]],
                        after: Seq[Array[Int]], dist: Seq[Long])
}
