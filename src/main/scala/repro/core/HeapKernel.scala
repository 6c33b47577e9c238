package repro.core

/** Heap algorithm [Hamerly & Drake '15]: instead of per-point ub/lb arrays,
  * each cluster keeps a min-heap of the gap lu = lb − ub at insertion time,
  * corrected by a per-cluster running offset (own drift + max-other drift
  * accumulated each iteration). Only points whose corrected gap goes
  * negative are re-examined — the most space-frugal sequential method.
  */
object HeapKernel extends Strategy {
  val name = "Heap"
  val req: Req = Req()

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new HeapState(points, k)
}

final class HeapState(points: Array[Array[Double]], k: Int)
    extends SequentialState(points, k) {

  // One binary min-heap per cluster over (key, pointIdx).
  private val heapKey = Array.fill(k)(new scala.collection.mutable.ArrayBuffer[Double])
  private val heapPt = Array.fill(k)(new scala.collection.mutable.ArrayBuffer[Int])
  private val offset = new Array[Double](k)

  // The heaps span points: one block over [0, n).
  override protected def blocked: Boolean = false

  protected type Ctx = Block
  protected def newBlock(): Block = new Block

  override protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    var i = from
    while (i < until) { scanAndPush(i, info.centroids, b); i += 1 }
  }

  /** Walks every cluster's heap, so [from, until) is always [0, n). */
  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Block): Unit = {
    val cs = info.centroids
    var j = 0
    while (j < k) {
      offset(j) += info.drifts(j) + info.maxDriftOther(j)
      j += 1
    }
    j = 0
    while (j < k) {
      // Pop while the corrected gap can be negative (bound violated).
      var go = true
      while (go && heapKey(j).nonEmpty) {
        b.m.boundAccess += 1
        if (heapKey(j)(0) - offset(j) < 0) {
          val i = heapPt(j)(0)
          pop(j)
          scanAndPush(i, cs, b)
        } else go = false
      }
      j += 1
    }
  }

  /** Full scan of point i; push its new gap into its cluster's heap. */
  private def scanAndPush(i: Int, cs: Array[Array[Double]], b: Block): Unit = {
    val best = b.nearest(points(i), cs)
    b.reassign(i, best)
    push(best, (b.d2 - b.d1) + offset(best), i)
    b.m.boundUpdate += 1
  }

  private def push(j: Int, key: Double, pt: Int): Unit = {
    val ks = heapKey(j); val ps = heapPt(j)
    ks += key; ps += pt
    var c = ks.length - 1
    var done = false
    while (c > 0 && !done) {
      val p = (c - 1) >> 1
      if (ks(p) <= ks(c)) done = true
      else {
        val tk = ks(p); ks(p) = ks(c); ks(c) = tk
        val tp = ps(p); ps(p) = ps(c); ps(c) = tp
        c = p
      }
    }
  }

  private def pop(j: Int): Unit = {
    val ks = heapKey(j); val ps = heapPt(j)
    val last = ks.length - 1
    ks(0) = ks(last); ps(0) = ps(last)
    ks.remove(last); ps.remove(last)
    var c = 0
    var done = false
    while (!done) {
      val l = 2 * c + 1; val r = l + 1
      var s = c
      if (l < ks.length && ks(l) < ks(s)) s = l
      if (r < ks.length && ks(r) < ks(s)) s = r
      if (s == c) done = true
      else {
        val tk = ks(s); ks(s) = ks(c); ks(c) = tk
        val tp = ps(s); ps(s) = ps(c); ps(c) = tp
        c = s
      }
    }
  }
}
