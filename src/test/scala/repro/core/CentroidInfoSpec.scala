package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The centroid-side shared structures every kernel's correctness rests on. */
class CentroidInfoSpec extends AnyFunSuite {

  private val cs = TestData.mixture(40, 3, 8, 0.05, 101L)
  private val prev = cs.map(_.map(_ - 0.01))

  private def at2(): CentroidInfo = CentroidInfo.compute(2, cs, prev, null)

  test("cc matrix is symmetric with zero diagonal; sc is half the min-other") {
    val i = at2()
    for (a <- cs.indices; b <- cs.indices) {
      assert(math.abs(i.cc(a)(b) - i.cc(b)(a)) < 1e-12)
      if (a == b) assert(i.cc(a)(b) == 0.0)
    }
    cs.indices.foreach { a =>
      val minOther = cs.indices.filter(_ != a).map(i.cc(a)).min
      assert(math.abs(i.sc(a) - 0.5 * minOther) < 1e-12)
      assert(math.abs(i.nearestOther(a) - minOther) < 1e-12)
    }
  }

  test("drifts are exact distances to the previous centroids; top-2 tracked") {
    val i = at2()
    cs.indices.foreach(j => assert(math.abs(i.drifts(j) - Geometry.dist(cs(j), prev(j))) < 1e-12))
    assert(i.maxDrift == i.drifts.max)
    val second = i.drifts.sorted.reverse(1)
    assert(math.abs(i.maxDrift2 - second) < 1e-12)
    cs.indices.foreach { j =>
      val expect = cs.indices.filter(_ != j).map(i.drifts).max
      assert(math.abs(i.maxDriftOther(j) - expect) < 1e-12)
    }
  }

  test("iteration 1 has zero drifts") {
    val i = CentroidInfo.compute(1, cs, null, null)
    assert(i.drifts.forall(_ == 0.0))
    assert(i.maxDrift == 0.0)
  }

  // Annuli leave each rank shell [2^s, 2^(s+1)) unsorted inside, so the list is
  // sorted by centroid distance once every shell is sorted on its own.
  test("neighbors lists start with self and are sorted by centroid distance") {
    val i = at2()
    cs.indices.foreach { a =>
      val nb = i.neighbors(a)
      assert(nb(0) == a)
      assert(nb.sorted.toSeq == cs.indices)
      val ds = nb.map(i.cc(a))
      val bySh = (ds.take(1) +: Iterator.iterate(1)(_ * 2).takeWhile(_ < ds.length)
        .map(lo => ds.slice(lo, 2 * lo).sorted).toSeq).flatten
      assert(bySh == ds.sorted.toSeq)
    }
  }

  // Exponion's annuli: a permutation of all centroids with self first and the
  // others in rank shells [2^s, 2^(s+1)), each no closer than the ones before.
  // Every third centroid duplicates its predecessor, so cc = 0 ties occur.
  for (k <- Seq(1, 2, 3, 4, 5, 64, 65, 1000)) {
    test(s"neighbors are Exponion annuli: self first, then ordered rank-doubling shells (k=$k)") {
      val base = TestData.mixture(k, 3, 6, 0.05, 200L + k)
      val cents = Array.tabulate(k)(j => if (j % 3 == 1) base(j - 1).clone else base(j))
      val i = CentroidInfo.compute(1, cents, null, null)
      for (a <- 0 until k) {
        val nb = i.neighbors(a)
        assert(nb.sorted.toSeq == (0 until k), s"row $a is not a permutation")
        assert(nb(0) == a, s"row $a does not start with itself")
        var lo = 1
        while (2 * lo < k) {
          val shell = (lo until 2 * lo).map(z => i.cc(a)(nb(z)))
          val next = (2 * lo until math.min(4 * lo, k)).map(z => i.cc(a)(nb(z)))
          assert(shell.max <= next.min, s"row $a: shell at $lo reaches past the next one")
          lo *= 2
        }
      }
    }
  }

  test("parallel cc rows and nearestOther are bit-identical to a sequential triangle") {
    val cents = TestData.mixture(300, 57, 20, 0.05, 303L)
    val k = cents.length
    val cc = Array.ofDim[Double](k, k)
    val no = Array.fill(k)(Double.PositiveInfinity)
    for (a <- 0 until k; b <- a + 1 until k) {
      val d = Geometry.dist(cents(a), cents(b))
      cc(a)(b) = d; cc(b)(a) = d
      no(a) = math.min(no(a), d); no(b) = math.min(no(b), d)
    }
    val i = CentroidInfo.compute(1, cents, null, null)
    for (a <- 0 until k) {
      assert(i.nearestOther(a) == no(a), s"nearestOther($a)")
      for (b <- 0 until k) assert(i.cc(a)(b) == cc(a)(b), s"cc($a)($b)")
    }
  }

  // Each row is centroid a against the panel, with no mirrored writes: cc must
  // still equal the triangle's cells bit for bit and be bit-symmetric.
  for (k <- Seq(1, 2, 3, 5, 300)) {
    test(s"panel cc rows are bit-identical to a sequential triangle and bit-symmetric (k=$k)") {
      val cents = TestData.mixture(k, 57, math.min(k, 20), 0.05, 304L + k)
      val want = Array.ofDim[Double](k, k)
      val no = Array.fill(k)(Double.PositiveInfinity)
      for (a <- 0 until k; b <- a + 1 until k) {
        val d = Geometry.dist(cents(a), cents(b))
        want(a)(b) = d; want(b)(a) = d
        no(a) = math.min(no(a), d); no(b) = math.min(no(b), d)
      }
      def bits(v: Double) = java.lang.Double.doubleToRawLongBits(v)
      val i = CentroidInfo.compute(1, cents, null, null)
      for (a <- 0 until k) {
        assert(bits(i.nearestOther(a)) == bits(no(a)), s"nearestOther($a)")
        assert(bits(i.sc(a)) == bits(no(a) * 0.5), s"sc($a)")
        for (b <- 0 until k) {
          assert(bits(i.cc(a)(b)) == bits(want(a)(b)), s"cc($a)($b)")
          assert(bits(i.cc(a)(b)) == bits(i.cc(b)(a)), s"cc($a)($b) vs cc($b)($a)")
        }
      }
    }
  }

  private def javaRoundTrip(v: AnyRef): (Array[Byte], AnyRef) = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(v); out.close()
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
    (bytes.toByteArray, in.readObject())
  }

  test("the centroid panel is never serialized and is rebuilt with the same bits") {
    val cents = TestData.mixture(30, 7, 5, 0.05, 305L)
    val transients = classOf[CentroidInfo].getDeclaredFields.toSeq
      .filter(f => java.lang.reflect.Modifier.isTransient(f.getModifiers))
    transients.foreach(_.setAccessible(true))
    // The panel is built on its own, or first by a `cc` row that reads it.
    for (via <- Seq("panel", "cc row")) {
      val i = CentroidInfo.compute(2, cents, cents.map(_.map(_ - 0.01)), null)
      val (untouched, _) = javaRoundTrip(i)
      if (via == "cc row") i.cc(0)
      val panel = i.panel
      assert(transients.exists(f => f.get(i) eq panel), s"$via: the panel is not in a transient field")
      val (bytes, copy0) = javaRoundTrip(i)
      val copy = copy0.asInstanceOf[CentroidInfo]
      assert(bytes.sameElements(untouched), s"$via: building the panel changed the serialized bytes")
      for (f <- transients) {
        val v = f.get(copy)
        assert(v == null || v == false || v == 0.toByte, s"$via: transient ${f.getName} came through as $v")
      }
      assert(!(copy.panel eq panel))
      assert(copy.panel.length == panel.length)
      for ((p, q) <- copy.panel.zip(panel))
        assert(p.map(java.lang.Double.doubleToRawLongBits).sameElements(q.map(java.lang.Double.doubleToRawLongBits)))
    }
  }

  test("index sort orders (key, index) pairs like a stable sort by key") {
    val rnd = new scala.util.Random(5L)
    for (n <- 0 to 70) {
      val keys = Array.fill(n)(rnd.nextInt(8).toDouble) // many ties
      val idx = IndexSort.iota(n)
      val sorted = keys.clone()
      IndexSort.sort(sorted, idx, 0, n - 1)
      assert(idx.toSeq == (0 until n).sortBy(keys(_)), s"n=$n")
      assert(sorted.toSeq == idx.toSeq.map(keys(_)), s"n=$n")
    }
  }

  test("sorted norms are consistent with the norm array") {
    val i = at2()
    assert(i.sortedNormVal.toSeq == i.sortedNormVal.sorted.toSeq)
    i.sortedNormIdx.zip(i.sortedNormVal).foreach { case (j, v) =>
      assert(math.abs(i.norms(j) - v) < 1e-12)
    }
  }

  test("block norms recompose the full norm") {
    val i = at2()
    cs.indices.foreach { j =>
      val n = math.sqrt(i.blockB1(j) * i.blockB1(j) + i.blockB2(j) * i.blockB2(j))
      assert(math.abs(n - i.norms(j)) < 1e-9)
    }
  }

  /** Every field an info derives on read: for each row a its `cc`,
    * `nearestOther`, `sc` and `neighbors`, then the seven whole arrays.
    * `read(i, item)` reads one of them.
    */
  private def derived(k: Int): Int = 4 * k + 7
  private def read(i: CentroidInfo, item: Int): AnyRef =
    if (item < 4 * i.k) {
      val a = item / 4
      item % 4 match {
        case 0 => i.cc(a)
        case 1 => Double.box(i.nearestOther(a))
        case 2 => Double.box(i.sc(a))
        case _ => i.neighbors(a)
      }
    } else (item - 4 * i.k) match {
      case 0 => i.panel
      case 1 => i.norms
      case 2 => i.normSq
      case 3 => i.sortedNormIdx
      case 4 => i.sortedNormVal
      case 5 => i.blockB1
      case _ => i.blockB2
    }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)
  private def sameBits(x: AnyRef, y: AnyRef): Boolean = (x, y) match {
    case (p: Array[Array[Double]], q: Array[Array[Double]]) =>
      p.length == q.length && p.indices.forall(r => sameBits(p(r), q(r)))
    case (p: Array[Double], q: Array[Double]) => p.map(bits).sameElements(q.map(bits))
    case (p: Array[Int], q: Array[Int]) => p.sameElements(q)
    case (p: java.lang.Double, q: java.lang.Double) => bits(p) == bits(q)
    case _ => false
  }

  /** An info at iteration 2 over k centroids in 57 dimensions. */
  private def info2(k: Int, seed: Long): CentroidInfo = {
    val c1 = TestData.mixture(k, 57, 20, 0.05, seed)
    CentroidInfo.compute(2, c1.map(_.map(_ + 0.001)), c1, null)
  }

  test("concurrent first reads of every derived field give one-thread bits and one object per row") {
    val k = 300
    val ref = info2(k, 306L)
    val want = (0 until derived(k)).map(read(ref, _))
    val shared = info2(k, 306L)
    val tasks = (0 until 16).map { t =>
      java.util.concurrent.ForkJoinPool.commonPool.submit(new java.util.concurrent.Callable[Map[Int, AnyRef]] {
        def call(): Map[Int, AnyRef] =
          new scala.util.Random(t).shuffle((0 until derived(k)).toVector).map(j => j -> read(shared, j)).toMap
      })
    }
    val got = tasks.map(_.get)
    for (item <- 0 until derived(k); g <- got) {
      assert(sameBits(g(item), want(item)), s"item $item differs from the one-thread read")
      if (!g(item).isInstanceOf[java.lang.Double]) assert(g(item) eq got.head(item), s"item $item is two objects")
    }
  }

  test("reading every derived field leaves the serialized bytes unchanged; a copy rebuilds each with the same bits") {
    val i = info2(40, 307L)
    val (untouched, _) = javaRoundTrip(i)
    val values = (0 until derived(i.k)).map(read(i, _))
    val (bytes, copy0) = javaRoundTrip(i)
    assert(bytes.sameElements(untouched), "reading the derived fields changed the serialized bytes")
    val copy = copy0.asInstanceOf[CentroidInfo]
    for (item <- values.indices) {
      val v = read(copy, item)
      assert(sameBits(v, values(item)), s"item $item is rebuilt with other bits")
      if (!v.isInstanceOf[java.lang.Double]) assert(!(v eq values(item)), s"item $item was serialized")
    }
  }

  // Spark deserializes a step's info once per task; the tasks of one JVM
  // must share the copy, and so its derived rows, for as long as one runs.
  test("copies of one info deserialized in one JVM are one object, held only while in use") {
    val a = info2(20, 309L)
    val b = info2(20, 310L)
    def copy(i: CentroidInfo): AnyRef = javaRoundTrip(i)._2
    val a1 = copy(a)
    assert(!(a1 eq a) && (copy(a) eq a1))
    val b1 = copy(b)
    assert(!(b1 eq a1) && (copy(b) eq b1))
    assert(!(copy(a) eq a1), "an info deserialized after another replaces it")
    // The JVM keeps no copy alive once no task holds one.
    def weakCopy(i: CentroidInfo) = new java.lang.ref.WeakReference(copy(i))
    val w = weakCopy(b)
    var tries = 0
    while (w.get != null && tries < 50) { System.gc(); Thread.sleep(10); tries += 1 }
    assert(w.get == null, "the last deserialized info outlived its users")
  }

  test("an info at k = 1000, d = 57 serializes to under 1 MB with every derived field read") {
    val prevC = TestData.mixture(1000, 57, 20, 0.05, 308L)
    val gi = new Grouper(1L).update(prevC, 1, regroup = false)
    val i = CentroidInfo.compute(2, prevC.map(_.map(_ + 0.001)), prevC, gi)
    (0 until derived(i.k)).foreach(read(i, _))
    val (bytes, _) = javaRoundTrip(i)
    assert(bytes.length < (1 << 20), s"${bytes.length} bytes")
  }
}
