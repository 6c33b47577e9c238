package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.Datasets
import repro.index.BallTree
import repro.tune.{Features, UTune}

/** Table 6 (overall speedup over Lloyd + pruned %), Table 8 (assignment
  * speedup) and Table 9 (refinement speedup) for SEQU (Yinyang), INDE
  * (Ball-tree), UniK (adaptive) and UTune (leave-one-dataset-out DT
  * prediction) across all 15 dataset analogs × k ∈ {10, 100, 1000}.
  */
class Table6Bench extends AnyFunSuite {

  private val ks = Seq(10, 100, 1000)

  private final case class Cell(lloyd: FitResult, others: Seq[(String, FitResult)]) {
    def speedup(r: FitResult): Double = lloyd.totalSeconds / math.max(r.totalSeconds, 1e-9)
    def assignSpeedup(r: FitResult): Double =
      lloyd.assignSeconds / math.max(r.assignSeconds, 1e-9)
    def refineSpeedup(r: FitResult): Double =
      lloyd.refineSeconds / math.max(r.refineSeconds, 1e-9)
  }

  test("Tables 6, 8, 9: speedups over Lloyd across datasets and k") {
    BenchEnv.warm()
    val looBase = BenchEnv.selective.records

    val cells: Seq[(String, Int, Cell)] =
      for (spec <- Datasets.all; k <- ks) yield {
        val name = spec.name
        val lloyd = BenchEnv.timed(LloydKernel, name, k)
        val utuneStrategy = {
          val train = looBase.filterNot(_.dsName == name)
          val pts = BenchEnv.points(name)
          val feats = Features.extract(pts.length, k, spec.d, BallTree.build(pts))
          UTune.predictStrategy(train, feats)
        }
        val others = Seq(
          "SEQU" -> BenchEnv.timed(Strategies.sequ, name, k),
          "INDE" -> BenchEnv.timed(Strategies.index, name, k),
          "UniK" -> BenchEnv.timed(Strategies.unik, name, k),
          "UTune" -> BenchEnv.timed(utuneStrategy, name, k))
        (name, k, Cell(lloyd, others))
      }

    def table(title: String, file: String, speed: (Cell, FitResult) => Double,
              freeWhen: FitResult => Boolean = _ => false): Unit = {
      val header = Seq("Data") ++ ks.flatMap(k =>
        Seq(s"Lloyd k=$k (s)", "SEQU", "INDE", "UniK", "UTune"))
      val rows = Datasets.all.map { spec =>
        val rowCells = ks.map(k => cells.find(c => c._1 == spec.name && c._2 == k).get._3)
        Seq(spec.name) ++ rowCells.flatMap { c =>
          Seq(BenchEnv.fmt(c.lloyd.totalSeconds)) ++
            c.others.map { case (_, r) =>
              if (freeWhen(r)) "free" else BenchEnv.fmt(speed(c, r)) + "x"
            }
        }
      }
      val prunedRows = Datasets.all.map { spec =>
        val rowCells = ks.map(k => cells.find(c => c._1 == spec.name && c._2 == k).get._3)
        Seq(spec.name + " (pruned)") ++ rowCells.flatMap { c =>
          Seq("0%") ++ c.others.map { case (_, r) => BenchEnv.pct(r.prunedRatio) }
        }
      }
      val md = s"## $title\n\n" + BenchEnv.markdownTable(header, rows) +
        "\n### Pruned distance computations\n\n" +
        BenchEnv.markdownTable(header, prunedRows)
      BenchEnv.emit(file, md)
    }

    table("Table 6 — overall speedup over Lloyd", "table6.md", (c, r) => c.speedup(r))
    table("Table 8 — assignment speedup over Lloyd", "table8.md",
      (c, r) => c.assignSpeedup(r))
    // The pure index method aggregates sum vectors during traversal, so its
    // refinement phase is literally free — shown as such instead of a
    // nonsense division by ~0.
    table("Table 9 — refinement speedup over Lloyd", "table9.md",
      (c, r) => c.refineSpeedup(r), freeWhen = _.refineSeconds < 1e-6)

    // ---- shape assertions (kept deliberately loose: wall-clock) ----
    def cellOf(name: String, k: Int): Cell =
      cells.find(c => c._1 == name && c._2 == k).get._3
    def sp(name: String, k: Int, m: String): Double = {
      val c = cellOf(name, k)
      c.speedup(c.others.find(_._1 == m).get._2)
    }

    // 1. On the tight low-d spatial set, the index method dominates the
    //    sequential one by a large factor (paper: 389x vs 1.4x on NYC k=10).
    assert(sp("NYC", 10, "INDE") > sp("NYC", 10, "SEQU"),
      "Ball-tree must beat Yinyang on tightly clustered 2-d data")

    // 2. Sequential pruning gives real speedups at k=100 on mid/high-d data.
    assert(sp("BigCross", 100, "SEQU") > 1.2)

    // 3. UTune is never catastrophically worse than the best fixed choice
    //    (it should track the winner; paper: best on average).
    val ratios = for (spec <- Datasets.all; k <- ks) yield {
      val c = cellOf(spec.name, k)
      val best = c.others.filter(_._1 != "UTune").map(o => c.speedup(o._2)).max
      c.speedup(c.others.find(_._1 == "UTune").get._2) / best
    }
    val meanRatio = ratios.sum / ratios.size
    assert(meanRatio > 0.6, f"UTune tracks the best method on average ($meanRatio%.2f)")

    // 4. Refinement via sum vectors beats Lloyd's rescan almost everywhere
    //    (paper Table 9: 5-15x typical).
    val refineWins = (for (spec <- Datasets.all; k <- Seq(100)) yield {
      val c = cellOf(spec.name, k)
      c.refineSpeedup(c.others.find(_._1 == "SEQU").get._2)
    }).count(_ > 1.0)
    assert(refineWins >= Datasets.all.size / 2)

    // 5. Pruning ratios of SEQU/UniK at k=100 are high on assembled datasets.
    val bc = cellOf("BigCross", 100)
    assert(bc.others.find(_._1 == "UniK").get._2.prunedRatio > 0.5)
  }
}
