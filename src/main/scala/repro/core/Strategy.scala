package repro.core

/** One partition's worth of algorithm state: the points, the per-point
  * bound state, and (for index methods) the per-partition tree. Lives for
  * the whole run; `step` is called once per iteration with the driver's
  * centroid-side state (on Spark, carried in the step's task) and returns
  * this partition's partial aggregates.
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

/** Factory for per-partition states; the only thing shipped to executors.
  * `CentroidInfo` builds what its kernel reads on first read; the strategy
  * declares only its `grouping`.
  */
trait Strategy extends Serializable {
  def name: String
  def grouping: Grouping = Grouping.Ungrouped
  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState
}

/** Whether the driver groups the centroids for a strategy (Yinyang's groups,
  * `GroupInfo`): not at all, once and then kept, or anew every iteration.
  */
sealed trait Grouping
object Grouping {
  case object Ungrouped extends Grouping
  case object Fixed extends Grouping
  case object Regrouped extends Grouping
}

/** What every partition state holds: its points (checked on construction),
  * their current assignment, from which `finalSse` and `assignments` are
  * read, the state's counters and its per-cluster sum vectors and counts.
  *
  * `step` is the one step of every state family: it fails with an
  * `IllegalArgumentException` when the centroids' dimension is not the
  * points' (a state over no points accepts any), then runs and times the
  * family's assignment phase, then its refinement phase if it has one, and
  * reports `sums`/`counts` as they are left. A family whose assignment adds
  * every point or node into `sums` itself (INDE, which UniK-multiple runs,
  * and KdTree) has no refinement phase and reports a refinement time of
  * exactly 0. Incremental refinement replays the movers of a `MoveLog`.
  */
abstract class PointState(val points: Array[Array[Double]], val k: Int)
    extends PartitionState {

  final val n: Int = points.length
  final val d: Int = PointState.checkedDim(points)
  final val assign: Array[Int] = Array.fill(n)(-1)
  final val m = new Metrics
  protected final val sums: Array[Array[Double]] = Array.ofDim[Double](k, d)
  protected final val counts: Array[Long] = new Array[Long](k)

  /** Assigns every point to its nearest centroid; returns the number of
    * points that changed cluster.
    */
  protected def assignPhase(info: CentroidInfo): Long

  /** Whether the family has a refinement phase, `refinePhase`. */
  protected def refines: Boolean = false
  protected def refinePhase(): Unit = ()

  final def step(info: CentroidInfo): Partials = {
    // the driver cannot see d on Spark, so each state checks the init's here
    if (n > 0 && info.centroids(0).length != d)
      throw new IllegalArgumentException(
        s"the centroids have ${info.centroids(0).length} coordinates, the points have $d")
    val t0 = System.nanoTime()
    val moved = assignPhase(info)
    val t1 = System.nanoTime()
    val t2 = if (refines) { refinePhase(); System.nanoTime() } else t1
    new Partials(Geometry.copy2(sums), counts.clone(), moved, n.toLong, m.snapshot(),
      t1 - t0, t2 - t1)
  }

  /** Empties `sums` and `counts`, for an assignment that rebuilds them. */
  protected final def clearSums(): Unit = {
    var j = 0
    while (j < k) { java.util.Arrays.fill(sums(j), 0.0); counts(j) = 0; j += 1 }
  }

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
    * an `IllegalArgumentException` naming the first row that is ragged,
    * holds a NaN or infinite coordinate or one out of range
    * (`requireInRange`), and when the points have no coordinates at all.
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
      requireInRange(x, s"point $i")
      i += 1
    }
    requireCoordinates(points)
    d
  }

  /** Fails with an `IllegalArgumentException` naming `row` when a coordinate
    * of `x` has a magnitude M with 4·d·M² > `Double.MaxValue`: a squared
    * distance between two such rows, a sum of d terms up to (2M)², could
    * overflow to +Inf.
    */
  def requireInRange(x: Array[Double], row: => String): Unit = {
    val limit = math.sqrt(Double.MaxValue / (4.0 * x.length))
    var z = 0
    while (z < x.length) {
      if (math.abs(x(z)) > limit)
        throw new IllegalArgumentException(
          s"$row has a coordinate ${x(z)} at $z beyond ±$limit, where squared distances overflow")
      z += 1
    }
  }

  /** Fails with an `IllegalArgumentException` when `points` is not empty and
    * its first point has no coordinates: k-means over d = 0 has nothing to
    * sum. No points at all (an empty Spark partition) is accepted.
    */
  def requireCoordinates(points: Array[Array[Double]]): Unit =
    if (points.nonEmpty && points(0).isEmpty)
      throw new IllegalArgumentException(s"${points.length} points have no coordinates (d = 0)")
}

/** Shared scaffolding for the *sequential* (point-at-a-time) kernels:
  * assignment bookkeeping and incremental ("sum vector") or full-rescan
  * refinement.
  *
  * A state seeds its bounds on its own first step, whatever the driver's
  * iteration: the assignment phase calls `seedAll` the first time and
  * `assignAll` on every later call, so a state rebuilt mid-run (a
  * recomputed Spark partition) starts from exact bounds. Kernels without
  * bounds keep the default `seedAll = assignAll`. Both call
  * `b.reassign(i, j)` for every point (also when j is unchanged — reassign
  * only logs a move when the cluster actually changes).
  *
  * Both run over one contiguous range of points with one `Block`: the
  * range's counters, move log and the kernel's scratch. The assignment
  * phase cuts the points into `Blocks.count(n)` ranges and runs them on the
  * common ForkJoin pool (inside `Blocks.oneThread`, as in `Runner.fitLocal`,
  * there is one); per-point state (`assign`, bounds) is disjoint between
  * ranges, and anything shared is only read. Afterwards the blocks'
  * counters are added into `m`, and the refinement phase applies their move
  * logs in block order, which is point order, so sums, counts and counters
  * are bit-identical to one block over [0, n). Sequential work that must
  * precede the blocks (Search's range searches, Pami20's radii) goes in
  * `prelude`.
  */
abstract class SequentialState(points: Array[Array[Double]], k: Int)
    extends PointState(points, k) {

  /** Lloyd sets this false: refinement rescans every point. */
  protected def incrementalRefine: Boolean = true

  /** Heap sets this false: its per-cluster heaps span points, so it runs
    * as one block over [0, n).
    */
  protected def blocked: Boolean = true

  private var seeded = false
  private var stepped: Array[Block] = null // the blocks between a step's two phases

  /** One range's counters and movers; a kernel with scratch extends it. */
  protected class Block {
    final val m = new Metrics
    private[SequentialState] val log = if (incrementalRefine) new MoveLog(m) else null
    private[SequentialState] var moved = 0L

    /** Scratch of the batched scans: distances in `dBuf`, and candidate
      * centroids for a scan that gathers them first in `iBuf`. `distSqs`
      * and `distSqsAll` leave squared distances in `dBuf`; `nearest`
      * leaves their square roots.
      */
    final val dBuf = new Array[Double](k)
    final val iBuf = new Array[Int](k)

    /** Counted distance from a data point to a centroid. */
    @inline final def cdist(x: Array[Double], c: Array[Double]): Double = {
      m.dist += 1; m.pointAccess += 1
      Geometry.dist(x, c)
    }

    /** Counted squared distances from a data point to the `cnt` centroids
      * `idx` names (`Geometry.distSqMany`), returned in `dBuf`.
      */
    final def distSqs(x: Array[Double], cs: Array[Array[Double]], idx: Array[Int],
                      cnt: Int): Array[Double] = {
      m.dist += cnt; m.pointAccess += cnt
      Geometry.distSqMany(x, cs, idx, cnt, dBuf)
      dBuf
    }

    /** Counted squared distances from a data point to all k centroids, in
      * index order, through the centroid panel (`Geometry.distSqPanel`),
      * returned in `dBuf`.
      */
    final def distSqsAll(x: Array[Double], info: CentroidInfo): Array[Double] = {
      m.dist += k; m.pointAccess += k
      Geometry.distSqPanel(x, info.panel, k, dBuf)
      dBuf
    }

    /** The last `nearest` scan's nearest and second-nearest distance, and
      * the first second-nearest centroid (-1 when k = 1).
      */
    var d1 = 0.0
    var d2 = 0.0
    var second = -1

    /** Counted scan of all k centroids in index order; returns the first
      * nearest one. Leaves the k distances (not squared) in `dBuf`.
      */
    final def nearest(x: Array[Double], info: CentroidInfo): Int = {
      val dd = distSqsAll(x, info)
      var j = 0
      while (j < k) { dd(j) = math.sqrt(dd(j)); j += 1 }
      var best = 0; var sec = -1
      var n1 = dd(0); var n2 = Double.PositiveInfinity
      j = 1
      while (j < k) {
        val dj = dd(j)
        if (dj < n1) { n2 = n1; sec = best; n1 = dj; best = j }
        else if (dj < n2) { n2 = dj; sec = j }
        j += 1
      }
      d1 = n1; d2 = n2; second = sec
      best
    }

    @inline final def reassign(i: Int, j: Int): Unit = {
      val old = assign(i)
      if (old != j) {
        assign(i) = j; moved += 1
        if (log != null) log.point(points(i), old, j)
      }
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

  protected final def assignPhase(info: CentroidInfo): Long = {
    val seeding = !seeded
    val lead: Option[Block] = prelude(info)
    stepped = lead ++: Blocks.map[Block](n, if (blocked) Blocks.count(n) else 1) { (from, until) =>
      val b = newBlock()
      if (seeding) seedAll(info, from, until, b) else assignAll(info, from, until, b)
      b
    }
    seeded = true
    stepped.foreach(b => m.add(b.m))
    stepped.map(_.moved).sum
  }

  /** Refinement = maintaining the per-cluster sum vectors. Incremental mode
    * applies the blocks' move logs in block order (Section 5.1.2); full mode
    * rescans the partition (classic Lloyd refinement, n data accesses).
    */
  override protected final def refines: Boolean = true
  override protected final def refinePhase(): Unit = {
    if (incrementalRefine) stepped.foreach(_.log.applyTo(sums, counts))
    else {
      clearSums()
      var i = 0
      while (i < n) {
        Geometry.addTo(sums(assign(i)), points(i)); counts(assign(i)) += 1
        i += 1
      }
      m.pointAccess += n
    }
    stepped = null
  }
}
