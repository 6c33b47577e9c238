package repro.unik

import repro.core._
import repro.index.{BallNode, BallTree, CandidateFilter}

/** UniK (Section 5): index nodes and points flow through ONE pruning
  * pipeline. An object o (node with radius r, or point with r = 0) carries
  * an upper bound on d(pivot, assigned centroid) and Yinyang-style group
  * lower bounds; the global/group/local tests add a ±r margin (Eqs. 10–11),
  * whole nodes are assigned when the two-nearest gap ≥ 2r (Eq. 9), split
  * nodes hand their bounds to children via the parent-child pivot distance
  * ψ (Eq. 12), and refinement is incremental over cluster sum vectors
  * (Section 5.1.2).
  *
  * Traversal knobs (Section 5.3): `Multiple` re-enters the tree from the
  * root every iteration; `Single` keeps the surviving objects in their
  * clusters and drift-updates their bounds; `Adaptive` times its first
  * step (root) against its second (clusters) and keeps the winner. Root
  * passes, seeding or not, fork their subtrees onto the ForkJoin pool
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
  val req: Req = Req(groups = true)

  def newState(points: Array[Array[Double]], k: Int, seed: Long): PartitionState =
    new UniKState(points, k, mode, seed)
}

object UniKStrategy {
  val default = new UniKStrategy()
}

/** One partition's UniK state. It counts its own steps: the first is a root
  * pass that seeds the bounds and object lists, whatever the driver's
  * iteration, so a state rebuilt mid-run (a recomputed Spark partition)
  * starts from exact bounds; the traversal of later steps follows `mode`,
  * and `Adaptive` times the state's own first two steps.
  */
final class UniKState(points: Array[Array[Double]], k: Int, mode: UniKMode, seed: Long)
    extends PointState(points, k) {

  private val tree = BallTree.build(points, seed = seed)
  private val filter = new CandidateFilter(points, k, tree, assign, m)

  private var t = 0 // #groups, fixed by the first step
  // Persistent bounds, indexed by node id / point index.
  private var nodeUb: Array[Double] = null
  private var nodeGlb: Array[Double] = null  // nodeCount × t
  private var ptUb: Array[Double] = null
  private var ptGlb: Array[Double] = null    // n × t
  private val nodesById = new Array[BallNode](math.max(1, tree.nodeCount))
  locally {
    def walk(nd: BallNode): Unit = {
      if (nd != null) { nodesById(nd.id) = nd; if (!nd.isLeaf) { walk(nd.left); walk(nd.right) } }
    }
    if (tree.root != null) walk(tree.root)
  }

  // Cluster object lists: value v > 0 encodes node id v-1; v < 0 point ~v.
  private var lists: Array[scala.collection.mutable.ArrayBuffer[Int]] = null

  // Incremental refinement state.
  private val sums = Array.ofDim[Double](k, d)
  private val counts = new Array[Long](k)
  private var moved = 0L
  // pending sum-vector ops applied in the refine phase
  private val opVec = new scala.collection.mutable.ArrayBuffer[Array[Double]]
  private val opNum = new scala.collection.mutable.ArrayBuffer[Long]
  private val opFrom = new scala.collection.mutable.ArrayBuffer[Int]
  private val opTo = new scala.collection.mutable.ArrayBuffer[Int]
  private val opPoint = new scala.collection.mutable.ArrayBuffer[Boolean]

  private var steps = 0 // steps taken by this state
  private var step1Nanos = -1L
  private var chosenSingle = true

  def step(info: CentroidInfo): Partials = {
    if (t == 0) {
      t = info.groups.nGroups
      nodeUb = new Array[Double](tree.nodeCount)
      nodeGlb = new Array[Double](tree.nodeCount * t)
      ptUb = new Array[Double](n)
      ptGlb = new Array[Double](n * t)
      lists = Array.fill(k)(new scala.collection.mutable.ArrayBuffer[Int])
    }
    moved = 0
    opVec.clear(); opNum.clear(); opFrom.clear(); opTo.clear(); opPoint.clear()

    steps += 1
    val useRoot = steps == 1 || (mode match {
      case UniKMode.Multiple => true
      case UniKMode.Single   => false
      case UniKMode.Adaptive => steps > 2 && !chosenSingle
    })

    val t0 = System.nanoTime()
    if (useRoot) rootTraversal(info) else clusterPass(info)
    val t1 = System.nanoTime()
    if (!useRoot) applyOps() // incremental refinement
    val t2 = System.nanoTime()

    if (steps == 1) step1Nanos = t1 - t0
    if (steps == 2) chosenSingle = t1 - t0 <= step1Nanos

    new Partials(Geometry.copy2(sums), counts.clone(), null, moved, n.toLong,
      m.snapshot(), t1 - t0, t2 - t1)
  }

  // ------------------------------------------------------------------
  // Root pass: the shared candidate-filtering traversal, seeding bounds and
  // object lists on the state's first step (only a cluster pass reads them).
  // Subtrees seed their own nodes' and points' bounds concurrently; the
  // object lists are filled after the join, in depth-first order.
  // ------------------------------------------------------------------
  private def rootTraversal(info: CentroidInfo): Unit = {
    val seeding = steps == 1
    var j = 0
    while (j < k) {
      java.util.Arrays.fill(sums(j), 0.0); counts(j) = 0
      if (seeding) lists(j).clear()
      j += 1
    }
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
      while (g < t) { ptGlb(i * t + g) = nodeGlb(leaf.id * t + g) - tree.pointPsi(i); g += 1 }
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
    val newLists = Array.fill(k)(new scala.collection.mutable.ArrayBuffer[Int])
    val stack = new scala.collection.mutable.ArrayBuffer[Int]
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
                            newLists: Array[scala.collection.mutable.ArrayBuffer[Int]],
                            stack: scala.collection.mutable.ArrayBuffer[Int]): Unit = {
    val cs = info.centroids
    val gi = info.groups
    val isNode = obj > 0
    val nd = if (isNode) nodesById(obj - 1) else null
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
      pushOp(nd.sv, nd.num, cl, -1, isPoint = false) // remove node sv from cl
      if (nd.isLeaf) {
        var z = nd.start
        while (z < nd.end) {
          val i = tree.perm(z)
          ptUb(i) = ub + tree.pointPsi(i)
          var g3 = 0
          while (g3 < t) { ptGlb(i * t + g3) = bounds(base + g3) - tree.pointPsi(i); g3 += 1 }
          m.boundUpdate += t + 1
          // point keeps cluster cl until its own test says otherwise; its
          // vector must re-enter cl's sums (the node sv covered it before)
          pushOp(points(i), 1, -1, cl, isPoint = true)
          stack += -(i + 1)
          z += 1
        }
      } else {
        def inherit(child: BallNode): Unit = {
          nodeUb(child.id) = ub + child.psi
          var g3 = 0
          while (g3 < t) { nodeGlb(child.id * t + g3) = bounds(base + g3) - child.psi; g3 += 1 }
          m.boundUpdate += t + 1
          pushOp(child.sv, child.num, -1, cl, isPoint = false)
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
        pushOp(nd.sv, nd.num, cl, best, isPoint = false)
        moved += CandidateFilter.assignNode(tree, assign, nd, best)
      } else {
        pushOp(points(pi), 1, cl, best, isPoint = true)
        if (assign(pi) != best) { assign(pi) = best; moved += 1 }
      }
    }
    gs.refresh(bounds, base, gi, cl, dOld, best, m)
    if (isNode) { nodeUb(nd.id) = d1 } else { ptUb(pi) = d1 }
    m.boundUpdate += 1
    newLists(best) += obj
  }

  private def pushOp(vec: Array[Double], num: Long, from: Int, to: Int, isPoint: Boolean): Unit = {
    opVec += vec; opNum += num; opFrom += from; opTo += to; opPoint += isPoint
  }

  private def applyOps(): Unit = {
    var z = 0
    while (z < opVec.length) {
      val v = opVec(z)
      if (opFrom(z) >= 0) { Geometry.subFrom(sums(opFrom(z)), v); counts(opFrom(z)) -= opNum(z) }
      if (opTo(z) >= 0) { Geometry.addTo(sums(opTo(z)), v); counts(opTo(z)) += opNum(z) }
      if (opPoint(z)) m.pointAccess += 1
      z += 1
    }
  }
}
