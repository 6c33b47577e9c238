package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Table 4 — the multi-criteria rating of every method. The paper fills it
  * with dot-ratings by hand; we compute each column from measured data:
  * leaderboard rank (full-running sweep), space (analytic bound footprint),
  * and the access/distance counters averaged over three representative
  * datasets at k = 100.
  */
class Table4Bench extends AnyFunSuite {

  /** Analytic per-point bound-storage footprint (floats), Section A.2 style. */
  private def footprint(name: String, n: Long, k: Long, d: Long): Long = {
    val t = math.max(1L, k / 10)
    val b = math.max(1L, k / 4)
    name match {
      case "Elka" | "Drift"  => n * k + n
      case "Full"            => n * k + n * t + n
      case "Hame" | "Expo"   => 2 * n
      case "Annu"            => 3 * n
      case "Drak"            => n * (b + 2)
      case "Yinyang" | "Regroup" => n * (t + 1)
      case "Heap"            => n                      // one gap per point
      case "Vector"          => 2 * n + 3 * n          // bounds + block norms
      case "Pami20"          => n                      // exact dist per point
      case "Search"          => n + (n / 30) * (2 * d + 4) // ball-tree
      case "Index"           => (n / 30) * (2 * d + 4)
      case "UniK"            => (n / 30) * (2 * d + 4) + n * (t + 1)
      case _                 => n * k
    }
  }

  test("Table 4: computed multi-criteria summary of all methods") {
    BenchEnv.warm()
    val probes = Seq(("BigCross", 100), ("NYC", 100), ("Kegg", 100))
    val methods: Seq[Strategy] =
      Strategies.sequential ++ Seq(Strategies.index, Strategies.unik, Strategies.full)

    val measured = methods.map { s =>
      val runs = probes.map { case (ds, k) =>
        Runner.fitLocal(s, BenchEnv.points(ds), k, BenchEnv.init(ds, k, 17L), maxIters = 5)
      }
      val n = probes.map(p => BenchEnv.points(p._1).length.toLong).sum
      (s.name,
        runs.map(_.totalSeconds).sum,
        runs.map(_.metrics.pointAccess).sum.toDouble / n,
        runs.map(_.metrics.boundAccess).sum.toDouble / n,
        runs.map(_.metrics.dist).sum.toDouble / n)
    }

    val records = BenchEnv.full.records
    def top3Count(m: String): Int =
      records.count { r =>
        r.seqTimes.contains(m) &&
          r.seqTimes.toSeq.sortBy(_._2).take(3).exists(_._1 == m)
      }

    val rows = measured.map { case (name, secs, pa, ba, dist) =>
      val n = 8000L
      Seq(name,
        top3Count(name).toString,
        footprint(name, n, 100, 57).toString,
        f"$pa%.1f", f"$ba%.1f", f"$dist%.1f", BenchEnv.fmt(secs))
    }
    val md = "## Table 4 — computed method summary (3 probe datasets, k=100)\n\n" +
      BenchEnv.markdownTable(
        Seq("Method", "Top-3 count", "Bound floats (n=8k,k=100)",
          "Point acc./pt", "Bound acc./pt", "Dist/pt", "Probe time (s)"), rows) +
      "\nPaper's qualitative ratings: Heap most space-frugal sequential; Elka/Full " +
      "heaviest; Ball-tree footprint k-independent; UniK best on accesses.\n"
    BenchEnv.emit("table4.md", md)

    val byName = measured.map(m => (m._1, m)).toMap
    // Heap is the most space-frugal sequential method (paper: "save the most")
    assert(footprint("Heap", 8000, 100, 57) <= footprint("Hame", 8000, 100, 57))
    assert(footprint("Elka", 8000, 100, 57) > footprint("Yinyang", 8000, 100, 57))
    // Full prunes the most distances yet is not the fastest (Figure 1's lesson)
    val fullDist = byName("Full")._5
    assert(methods.filter(_.name != "Full").forall(m => byName(m.name)._5 >= fullDist * 0.5))
    val fastest = measured.minBy(_._2)._1
    assert(fastest != "Full", "Full must not be the fastest despite max pruning")
  }
}
