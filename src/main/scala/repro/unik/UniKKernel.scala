package repro.unik

import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.index.{BallKMeansState, BallNode, BallTree, CandidateFilter}

/** UniK (Section 5): index nodes and points flow through ONE pruning
  * pipeline. An object o (node with radius r, or point with r = 0) carries
  * an upper bound on d(pivot, assigned centroid) and Yinyang-style group
  * lower bounds; the global/group/local tests add a ±r margin (Eqs. 10–11),
  * whole nodes are assigned when the two-nearest gap ≥ 2r (Eq. 9), split
  * nodes hand their bounds to children via the parent-child pivot distance
  * ψ (Eq. 12), and refinement is incremental over cluster sum vectors
  * (Section 5.1.2).
  *
  * Traversal knobs (Section 5.3): `Multiple` re-enters the tree from the root
  * every iteration and carries nothing between them, so it runs INDE's state
  * (`BallKMeansState`): no bounds, no groups. `Single` keeps the surviving
  * objects in their clusters and drift-updates their bounds; `Adaptive` times
  * its first step (root) against its second (clusters) and keeps the winner.
  * Root passes, seeding or not, fork their subtrees onto the ForkJoin pool
  * (`CandidateFilter`); the cluster pass runs on the calling thread. So each
  * timed step runs with the threading of the traversal it stands for.
  */
sealed trait UniKMode
object UniKMode {
  case object Adaptive extends UniKMode
  case object Single extends UniKMode
  case object Multiple extends UniKMode
}

final class UniKStrategy(mode: UniKMode = UniKMode.Adaptive) extends Strategy {
  val name: String = mode match {
    case UniKMode.Adaptive => "UniK"
    case UniKMode.Single   => "UniK-single"
    case UniKMode.Multiple => "UniK-multiple"
  }
  override val grouping: Grouping = if (mode == UniKMode.Multiple) Grouping.Ungrouped else Grouping.Fixed

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    if (mode == UniKMode.Multiple) new BallKMeansState(points, k, BallTree.Ball, seed)
    else new UniKState(points, k, mode, seed)
}

/** One partition's UniK state. It counts its own steps: the first is a root
  * pass that seeds the bounds and object lists, whatever the driver's
  * iteration, so a state rebuilt mid-run (a recomputed Spark partition)
  * starts from exact bounds; later steps are cluster passes under `Single`,
  * and `Adaptive` times the assignment phase of the state's own first two
  * steps. A root pass adds every node and point into the sums as it places
  * them; a cluster pass logs each mover, a node through its sum vector or a
  * point, in one `MoveLog`, which the refinement phase applies in order.
  * The group-bound arrays hold t = `Grouper.nGroupsFor(k)` bounds per node
  * and point, the group count of every `GroupInfo` over k centroids.
  */
final class UniKState(points: Array[Array[Double]], k: Int, mode: UniKMode, seed: Long)
    extends PointState(points, k) {
  require(mode != UniKMode.Multiple, "UniK-multiple runs a BallKMeansState")

  private[unik] val tree = BallTree.build(points, seed = seed)
  // per point: the distance to its leaf's pivot; only UniK keeps this array
  private[unik] val pointPsi: Array[Double] = tree.pointPsi()
  private val filter = new CandidateFilter(points, k, tree, assign, m)

  private val t = Grouper.nGroupsFor(k)
  // Persistent bounds, indexed by node id / point index.
  private val nodeUb = new Array[Double](tree.nodeCount)
  private val nodeGlb = new Array[Double](tree.nodeCount * t)
  private val ptUb = new Array[Double](n)
  private val ptGlb = new Array[Double](n * t)

  // Cluster object lists: value v > 0 encodes node id v-1; v < 0 point ~v.
  private var lists = Array.fill(k)(new ArrayBuffer[Int])

  // The cluster pass's movers, applied by the refinement phase.
  private val log = new MoveLog(m)
  private var moved = 0L

  private var steps = 0 // steps taken by this state
  private var step1Nanos = -1L
  private var chosenSingle = true

  protected def assignPhase(info: CentroidInfo): Long = {
    moved = 0
    steps += 1
    val useRoot = steps == 1 || (mode == UniKMode.Adaptive && steps > 2 && !chosenSingle)

    val t0 = System.nanoTime()
    if (useRoot) rootTraversal(info) else clusterPass(info)
    if (steps == 1) step1Nanos = System.nanoTime() - t0
    if (steps == 2) chosenSingle = System.nanoTime() - t0 <= step1Nanos
    moved
  }

  override protected def refines: Boolean = true
  override protected def refinePhase(): Unit = log.applyTo(sums, counts)

  // ------------------------------------------------------------------
  // Root pass: the shared candidate-filtering traversal, seeding bounds and
  // object lists on the state's first step (only a cluster pass reads them).
  // Subtrees seed their own nodes' and points' bounds concurrently; the
  // object lists are filled after the join, in depth-first order.
  // ------------------------------------------------------------------
  private def rootTraversal(info: CentroidInfo): Unit = {
    val seeding = steps == 1
    clearSums()
    if (seeding) lists.foreach(_.clear())
    moved += filter.run(info.centroids, sums, counts,
      if (seeding && tree.root != null) new Seeding(info.groups) else null)
  }

  /** Seeds nodeUb/ptUb, the group lower bounds and the object lists from the
    * root pass. Before a node is filtered, its `nodeGlb` slots hold its
    * carry: per group, the least pivot distance of a candidate an ancestor
    * dropped, degraded by ψ on the way down (Eq. 12). Nodes that are split
    * never become tracked objects, so their slots are free for this.
    */
  private final class Seeding(gi: GroupInfo) extends CandidateFilter.Seeder {
    java.util.Arrays.fill(nodeGlb, tree.root.id * t, tree.root.id * t + t, Double.PositiveInfinity)

    def node(nd: BallNode, cand: Array[Int], dist: Array[Double], best: Int, d1: Double,
             m: Metrics): Unit = {
      nodeUb(nd.id) = d1
      var c = 0
      while (c < cand.length) {
        if (cand(c) != best) lower(nodeGlb, nd.id * t, cand(c), dist(c))
        c += 1
      }
      m.boundUpdate += t
    }

    def split(nd: BallNode, cand: Array[Int], dist: Array[Double], thr: Double): Unit = {
      var c = 0
      while (c < cand.length) {
        if (dist(c) > thr) lower(nodeGlb, nd.id * t, cand(c), dist(c))
        c += 1
      }
      if (!nd.isLeaf) { carry(nd, nd.left); carry(nd, nd.right) }
    }

    private def carry(nd: BallNode, child: BallNode): Unit = {
      var g = 0
      while (g < t) { nodeGlb(child.id * t + g) = nodeGlb(nd.id * t + g) - child.psi; g += 1 }
    }

    def point(i: Int, leaf: BallNode, kept: Array[Int], distSq: Array[Double], b: Int,
              m: Metrics): Unit = {
      // the leaf's carry degrades to the point by its own ψ (Eq. 12, r = 0)
      var g = 0
      while (g < t) { ptGlb(i * t + g) = nodeGlb(leaf.id * t + g) - pointPsi(i); g += 1 }
      var c = 0
      while (c < kept.length) {
        if (c != b) lower(ptGlb, i * t, kept(c), math.sqrt(distSq(c)))
        c += 1
      }
      ptUb(i) = math.sqrt(distSq(b))
      m.boundUpdate += t
    }

    def placed(nd: BallNode, to: Int): Unit =
      if (to >= 0) lists(to) += (nd.id + 1)
      else {
        var z = nd.start
        while (z < nd.end) { val i = tree.perm(z); lists(assign(i)) += -(i + 1); z += 1 }
      }

    private def lower(store: Array[Double], base: Int, j: Int, v: Double): Unit = {
      val at = base + gi.of(j)
      if (v < store(at)) store(at) = v
    }
  }

  // ------------------------------------------------------------------
  // Cluster pass (index-single): drift-update bounds, test, split, move.
  // ------------------------------------------------------------------
  private def clusterPass(info: CentroidInfo): Unit = {
    val newLists = Array.fill(k)(new ArrayBuffer[Int])
    val stack = new ArrayBuffer[Int]
    val gs = new GroupScan(t, k)

    var cl = 0
    while (cl < k) {
      val objs = lists(cl)
      var z = 0
      while (z < objs.length) {
        stack += objs(z)
        z += 1
      }
      while (stack.nonEmpty) {
        val obj = stack.remove(stack.length - 1)
        processObject(obj, cl, info, gs, newLists, stack)
      }
      cl += 1
    }
    lists = newLists
  }

  private def processObject(obj: Int, cl: Int, info: CentroidInfo, gs: GroupScan,
                            newLists: Array[ArrayBuffer[Int]],
                            stack: ArrayBuffer[Int]): Unit = {
    val cs = info.centroids
    val gi = info.groups
    val isNode = obj > 0
    val nd = if (isNode) tree.nodes(obj - 1) else null
    val pi = if (isNode) -1 else -obj - 1
    val r = if (isNode) nd.radius else 0.0
    val base = if (isNode) nd.id * t else pi * t
    val bounds = if (isNode) nodeGlb else ptGlb
    val pivot = if (isNode) nd.pivot else points(pi)

    // drift-update
    var ub = (if (isNode) nodeUb(nd.id) else ptUb(pi)) + info.drifts(cl)
    val minGlb = GroupScan.drift(bounds, base, gi, m)
    m.boundUpdate += 1; m.boundAccess += 1 // the upper bound

    // Eq. 10 global test with radius margin
    if (minGlb - r > ub + r) {
      if (isNode) { nodeUb(nd.id) = ub; newLists(cl) += obj }
      else { ptUb(pi) = ub; newLists(cl) += obj }
      return
    }

    // tighten: exact distance pivot → current centroid
    m.dist += 1
    if (isNode) m.nodeAccess += 1 else m.pointAccess += 1
    val dOld = Geometry.dist(pivot, cs(cl))
    ub = dOld
    if (minGlb - r > ub + r) {
      if (isNode) { nodeUb(nd.id) = ub; newLists(cl) += obj }
      else { ptUb(pi) = ub; newLists(cl) += obj }
      return
    }

    // group scan with margin (Eq. 11)
    val best = gs.scan(pivot, cs, gi, bounds, base, cl, dOld, r, m)
    if (!isNode) m.pointAccess += gs.dists
    val d1 = gs.d1

    if (isNode && gs.d2 - d1 < 2.0 * r) {
      // Eq. 9 failed: split the node, children inherit bounds via ψ (Eq. 12)
      log.add(nd.sv, nd.num, cl, -1) // remove node sv from cl
      if (nd.isLeaf) {
        var z = nd.start
        while (z < nd.end) {
          val i = tree.perm(z)
          ptUb(i) = ub + pointPsi(i)
          var g3 = 0
          while (g3 < t) { ptGlb(i * t + g3) = bounds(base + g3) - pointPsi(i); g3 += 1 }
          m.boundUpdate += t + 1
          // point keeps cluster cl until its own test says otherwise; its
          // vector must re-enter cl's sums (the node sv covered it before)
          log.point(points(i), -1, cl)
          stack += -(i + 1)
          z += 1
        }
      } else {
        def inherit(child: BallNode): Unit = {
          nodeUb(child.id) = ub + child.psi
          var g3 = 0
          while (g3 < t) { nodeGlb(child.id * t + g3) = bounds(base + g3) - child.psi; g3 += 1 }
          m.boundUpdate += t + 1
          log.add(child.sv, child.num, -1, cl)
          stack += (child.id + 1)
        }
        inherit(nd.left)
        inherit(nd.right)
      }
      return
    }

    // assigned (node with enough gap, or point)
    if (best != cl) {
      if (isNode) {
        log.add(nd.sv, nd.num, cl, best)
        moved += CandidateFilter.assignNode(tree, assign, nd, best)
      } else {
        log.point(points(pi), cl, best)
        if (assign(pi) != best) { assign(pi) = best; moved += 1 }
      }
    }
    gs.refresh(bounds, base, gi, cl, dOld, best, m)
    if (isNode) { nodeUb(nd.id) = d1 } else { ptUb(pi) = d1 }
    m.boundUpdate += 1
    newLists(best) += obj
  }
}
