package repro.unik

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Geometry, TestData}

/** UniK's per-point ψ (Eq. 12 with r = 0), which its state derives from its
  * own ball-tree's leaves.
  */
class UniKStateSpec extends AnyFunSuite {

  for ((dsName, pts) <- Seq(
         ("clustered", TestData.mixture(500, 4, 10, 0.03, 41L)),
         ("uniform", TestData.uniform(300, 6, 42L)),
         ("high-d", TestData.mixture(200, 32, 5, 0.1, 43L))))
    test(s"$dsName: each point's ψ is its distance to its leaf's pivot, with the leaf radius's bits") {
      val state = new UniKState(pts, 8, UniKMode.Single, 3L)
      val tree = state.tree
      assert(tree.leaves.map(_.num).sum == pts.length)
      for (leaf <- tree.leaves) {
        val psi = (leaf.start until leaf.end).map(z => state.pointPsi(tree.perm(z)))
        for ((z, v) <- (leaf.start until leaf.end).zip(psi))
          assert(v == math.sqrt(Geometry.distSq(leaf.pivot, pts(tree.perm(z)))))
        assert(psi.max == leaf.radius)
      }
    }
}
