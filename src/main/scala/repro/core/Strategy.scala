package repro.core

import scala.collection.mutable.ArrayBuffer

/** One partition's worth of algorithm state: the points, the per-point
  * bound state, and (for index methods) the per-partition tree. Lives for
  * the whole run; `step` is called once per iteration with the broadcast
  * centroid-side state and returns this partition's partial aggregates.
  */
trait PartitionState extends Serializable {
  def step(info: CentroidInfo): Partials

  /** Exact SSE of this partition under the final centroids (untimed,
    * uncounted — a verification pass, not part of the algorithm).
    */
  def finalSse(centroids: Array[Array[Double]]): Double

  /** Current assignment vector (for exactness tests). */
  def assignments: Array[Int]
}

/** Factory for per-partition states; the only thing shipped to executors. */
trait Strategy extends Serializable {
  def name: String
  def req: Req
  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState
}

/** What every partition state holds: its points (checked on construction),
  * their current assignment, from which `finalSse` and `assignments` are
  * read, and the state's counters.
  */
abstract class PointState(val points: Array[Array[Double]], val k: Int)
    extends PartitionState {

  final val n: Int = points.length
  final val d: Int = PointState.checkedDim(points)
  final val assign: Array[Int] = Array.fill(n)(-1)
  final val m = new Metrics

  def finalSse(centroids: Array[Array[Double]]): Double = {
    var s = 0.0
    var i = 0
    while (i < n) { s += Geometry.distSq(points(i), centroids(assign(i))); i += 1 }
    s
  }

  def assignments: Array[Int] = assign.clone()
}

object PointState {

  /** The common dimension of `points` (0 when there are none). Fails with
    * an `IllegalArgumentException` naming the first row that is ragged or
    * holds a NaN or infinite coordinate.
    */
  private def checkedDim(points: Array[Array[Double]]): Int = {
    val d = if (points.isEmpty) 0 else points(0).length
    var i = 0
    while (i < points.length) {
      val x = points(i)
      if (x.length != d)
        throw new IllegalArgumentException(s"point $i has ${x.length} coordinates, expected $d")
      var z = 0
      while (z < d) {
        if (!java.lang.Double.isFinite(x(z)))
          throw new IllegalArgumentException(s"point $i has a non-finite coordinate ${x(z)} at $z")
        z += 1
      }
      i += 1
    }
    d
  }
}

/** Shared scaffolding for the *sequential* (point-at-a-time) kernels:
  * assignment bookkeeping, incremental ("sum vector") or full-rescan
  * refinement, mover tracking, per-phase timing, metric snapshots.
  *
  * A state seeds its bounds on its own first step, whatever the driver's
  * iteration: `step` calls `seedAll` the first time and `assignAll` on
  * every later call, so a state rebuilt mid-run (a recomputed Spark
  * partition) starts from exact bounds. Kernels without bounds keep the
  * default `seedAll = assignAll`. Both call `b.reassign(i, j)` for every
  * point (also when j is unchanged — reassign only records a move when the
  * cluster actually changes).
  *
  * Both run over one contiguous range of points with one `Block`: the
  * range's counters, movers and the kernel's scratch. `step` cuts the
  * points into `Blocks.count(n)` ranges and runs them on the common
  * ForkJoin pool (inside `Blocks.oneThread`, as in `Runner.fitLocal`,
  * there is one); per-point state (`assign`, bounds) is disjoint between
  * ranges, and anything shared is only read. Afterwards the blocks'
  * counters are added into `m` and their movers are refined in block
  * order, which is point order, so sums, counts and counters are
  * bit-identical to one block over [0, n). Sequential work that must
  * precede the blocks (allocation on the first step, Search's range
  * searches) goes in `prelude`.
  */
abstract class SequentialState(points: Array[Array[Double]], k: Int)
    extends PointState(points, k) {

  /** Lloyd sets this false: refinement rescans every point. */
  protected def incrementalRefine: Boolean = true

  /** Pami20/Drift: report per-cluster max distance upper bound. */
  protected def reportRadii: Boolean = false

  /** Heap sets this false: its per-cluster heaps span points, so it runs
    * as one block over [0, n).
    */
  protected def blocked: Boolean = true

  /** Distance upper bound of point i to its assigned centroid (only needed
    * when `reportRadii`; must be valid after `seedAll` and `assignAll`).
    */
  protected def ubOf(i: Int): Double = 0.0

  protected val sums: Array[Array[Double]] = Array.ofDim[Double](k, math.max(d, 1))
  protected val counts: Array[Long] = new Array[Long](k)

  private var seeded = false

  /** One range's counters and movers; a kernel with scratch extends it. */
  protected class Block {
    final val m = new Metrics
    private[SequentialState] val moverIdx = new ArrayBuffer[Int]
    private[SequentialState] val moverFrom = new ArrayBuffer[Int]

    /** Counted distance from a data point to a centroid. */
    @inline final def cdist(x: Array[Double], c: Array[Double]): Double = {
      m.dist += 1; m.pointAccess += 1
      Geometry.dist(x, c)
    }

    @inline final def reassign(i: Int, j: Int): Unit = {
      val old = assign(i)
      if (old != j) { moverIdx += i; moverFrom += old; assign(i) = j }
    }
  }

  /** The kernel's block type and a fresh one (called once per block and step). */
  protected type Ctx <: Block
  protected def newBlock(): Ctx

  /** Sequential work before the blocks of every step. Returns the block
    * its counters and movers went to, if any; its movers come first.
    */
  protected def prelude(info: CentroidInfo): Option[Ctx] = None

  /** Assignment of points [from, until) on the state's first step: no
    * bound is stored yet.
    */
  protected def seedAll(info: CentroidInfo, from: Int, until: Int, b: Ctx): Unit =
    assignAll(info, from, until, b)

  /** Assignment of points [from, until) on every later step, from the
    * bounds stored so far.
    */
  protected def assignAll(info: CentroidInfo, from: Int, until: Int, b: Ctx): Unit

  def step(info: CentroidInfo): Partials = {
    val t0 = System.nanoTime()
    val seeding = !seeded
    val lead: Option[Block] = prelude(info)
    val blocks = lead ++: Blocks.map[Block](n, if (blocked) Blocks.count(n) else 1) { (from, until) =>
      val b = newBlock()
      if (seeding) seedAll(info, from, until, b) else assignAll(info, from, until, b)
      b
    }
    seeded = true
    blocks.foreach(b => m.add(b.m))
    val t1 = System.nanoTime()
    refine(blocks)
    val t2 = System.nanoTime()
    val maxUb =
      if (!reportRadii) null
      else {
        val r = new Array[Double](k)
        var i = 0
        while (i < n) {
          val a = assign(i)
          if (ubOf(i) > r(a)) r(a) = ubOf(i)
          i += 1
        }
        r
      }
    new Partials(Geometry.copy2(sums), counts.clone(), maxUb, blocks.map(_.moverIdx.length.toLong).sum,
      n.toLong, m.snapshot(), t1 - t0, t2 - t1)
  }

  /** Refinement = maintaining the per-cluster sum vectors. Incremental mode
    * touches movers only (Section 5.1.2), block by block; full mode rescans
    * the partition (classic Lloyd refinement, n data accesses).
    */
  private def refine(blocks: Array[Block]): Unit = {
    if (!incrementalRefine) {
      var j = 0
      while (j < k) { java.util.Arrays.fill(sums(j), 0.0); counts(j) = 0; j += 1 }
      var i = 0
      while (i < n) {
        Geometry.addTo(sums(assign(i)), points(i)); counts(assign(i)) += 1
        i += 1
      }
      m.pointAccess += n
    } else {
      for (b <- blocks) {
        var z = 0
        while (z < b.moverIdx.length) {
          val i = b.moverIdx(z); val from = b.moverFrom(z)
          val x = points(i)
          if (from >= 0) { Geometry.subFrom(sums(from), x); counts(from) -= 1 }
          Geometry.addTo(sums(assign(i)), x); counts(assign(i)) += 1
          m.pointAccess += 1
          z += 1
        }
      }
    }
  }
}
