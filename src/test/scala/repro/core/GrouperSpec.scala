package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GrouperSpec extends AnyFunSuite {

  private val centroids = TestData.mixture(50, 3, 6, 0.05, 91L)

  test("groups partition the centroids into ⌈k/10⌉ groups") {
    val g = new Grouper(1L)
    val gi = g.update(centroids, 1, regroup = false)
    assert(gi.nGroups == 5)
    assert(gi.of.length == 50)
    assert(gi.members.map(_.length).sum == 50)
    gi.members.zipWithIndex.foreach { case (mem, idx) =>
      mem.foreach(c => assert(gi.of(c) == idx))
    }
  }

  test("fixed grouping is stable across iterations (Yinyang)") {
    val g = new Grouper(1L)
    val a = g.update(centroids, 1, regroup = false)
    val b = g.update(centroids.map(_.map(_ + 0.1)), 2, regroup = false)
    assert(a.of.toSeq == b.of.toSeq)
    assert(b.remapFrom == null)
  }

  test("regroup refreshes membership and reports the old→new overlap") {
    val g = new Grouper(1L)
    val a = g.update(centroids, 1, regroup = true)
    // move centroids around so the grouping actually changes
    val moved = centroids.zipWithIndex.map { case (c, i) => c.map(_ + (i % 7) * 0.3) }
    val b = g.update(moved, 2, regroup = true)
    assert(b.remapFrom != null)
    // every new group's remap must cover the old groups of all its members
    b.members.zipWithIndex.foreach { case (mem, gNew) =>
      mem.foreach { c =>
        assert(b.remapFrom(gNew).contains(a.of(c)),
          s"centroid $c old group ${a.of(c)} missing from remap of new group $gNew")
      }
    }
  }

  test("k ≤ 10 yields a single group (Yinyang degenerates to Hame)") {
    val g = new Grouper(1L)
    val gi = g.update(centroids.take(8), 1, regroup = false)
    assert(gi.nGroups == 1)
  }

  test("maxDrift is filled per group by CentroidInfo.compute") {
    val g = new Grouper(1L)
    val gi = g.update(centroids, 1, regroup = false)
    val moved = centroids.map(_.map(_ + 0.05))
    CentroidInfo.compute(2, moved, centroids, gi, null)
    assert(gi.maxDrift.forall(_ > 0.0))
  }
}
