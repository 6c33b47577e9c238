package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Geometry, Metrics, TestData}

/** Structural invariants of Definition 1 for all four ball-cover builders. */
class BallTreeSpec extends AnyFunSuite {

  private val kinds = Seq(BallTree.Ball, BallTree.HKT, BallTree.MTree, BallTree.Cover)
  private val datasets = Seq(
    ("clustered", TestData.mixture(500, 4, 10, 0.03, 41L)),
    ("uniform", TestData.uniform(300, 6, 42L)),
    ("high-d", TestData.mixture(200, 32, 5, 0.1, 43L))
  )

  for (kind <- kinds; (dsName, pts) <- datasets) {
    val tree = BallTree.build(pts, capacity = 16, seed = 3L, kind = kind)

    test(s"${kind.label}/$dsName: every node's radius covers its points") {
      def check(nd: BallNode): Unit = {
        var z = nd.start
        while (z < nd.end) {
          val d = Geometry.dist(nd.pivot, pts(tree.perm(z)))
          assert(d <= nd.radius + 1e-9, s"point outside ball: $d > ${nd.radius}")
          z += 1
        }
        if (!nd.isLeaf) { check(nd.left); check(nd.right) }
      }
      check(tree.root)
    }

    test(s"${kind.label}/$dsName: sum vectors and counts are exact") {
      def check(nd: BallNode): Unit = {
        val sv = new Array[Double](pts(0).length)
        var z = nd.start
        while (z < nd.end) { Geometry.addTo(sv, pts(tree.perm(z))); z += 1 }
        sv.indices.foreach(i => assert(math.abs(sv(i) - nd.sv(i)) < 1e-9))
        assert(nd.num == nd.end - nd.start)
        if (!nd.isLeaf) {
          assert(nd.left.num + nd.right.num == nd.num)
          check(nd.left); check(nd.right)
        }
      }
      check(tree.root)
    }

    test(s"${kind.label}/$dsName: children partition the parent range") {
      def check(nd: BallNode): Unit = if (!nd.isLeaf) {
        assert(nd.left.start == nd.start && nd.right.end == nd.end)
        assert(nd.left.end == nd.right.start)
        check(nd.left); check(nd.right)
      }
      check(tree.root)
    }

    test(s"${kind.label}/$dsName: ψ is the distance to the parent pivot") {
      def check(nd: BallNode): Unit = if (!nd.isLeaf) {
        assert(math.abs(nd.left.psi - Geometry.dist(nd.left.pivot, nd.pivot)) < 1e-9)
        assert(math.abs(nd.right.psi - Geometry.dist(nd.right.pivot, nd.pivot)) < 1e-9)
        check(nd.left); check(nd.right)
      }
      check(tree.root)
      assert(tree.root.psi == 0.0)
    }

    test(s"${kind.label}/$dsName: perm is a permutation; pointPsi matches leaves") {
      assert(tree.perm.sorted.toSeq == (0 until pts.length))
      val pointPsi = tree.pointPsi()
      tree.leaves.foreach { leaf =>
        var z = leaf.start
        while (z < leaf.end) {
          val i = tree.perm(z)
          assert(math.abs(pointPsi(i) - Geometry.dist(leaf.pivot, pts(i))) < 1e-9)
          z += 1
        }
      }
    }

    test(s"${kind.label}/$dsName: node counts are consistent") {
      var nodes = 0; var leaves = 0
      def count(nd: BallNode): Unit = {
        nodes += 1
        if (nd.isLeaf) { leaves += 1; assert(nd.num <= 16 || nd.radius == 0.0) }
        else { count(nd.left); count(nd.right) }
      }
      count(tree.root)
      assert(nodes == tree.nodeCount && leaves == tree.leafCount)
    }
  }

  test("rangeSearch matches brute force") {
    val pts = TestData.mixture(400, 3, 8, 0.05, 44L)
    val tree = BallTree.build(pts, capacity = 8)
    val rnd = new scala.util.Random(45L)
    for (_ <- 0 until 20) {
      val q = Array.fill(3)(rnd.nextDouble())
      val r = 0.05 + rnd.nextDouble() * 0.3
      val got = tree.rangeSearch(q, r, new Metrics).toSet
      val want = pts.indices.filter(i => Geometry.dist(q, pts(i)) < r).toSet
      assert(got == want)
    }
  }

  test("empty input builds an empty tree") {
    val tree = BallTree.build(Array.empty[Array[Double]])
    assert(tree.root == null && tree.nodeCount == 0)
  }

  test("capacity controls node count (larger capacity, fewer nodes)") {
    val pts = TestData.mixture(1000, 4, 10, 0.03, 46L)
    val small = BallTree.build(pts, capacity = 10)
    val large = BallTree.build(pts, capacity = 100)
    assert(large.nodeCount < small.nodeCount)
  }
}
