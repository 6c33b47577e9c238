package repro.tune

import repro.core._
import repro.data.{DatasetSpec, Datasets}
import repro.index.BallTree

/** One evaluation record = one clustering task (dataset variant × k) with
  * its meta-features and the measured time of every configuration that was
  * run — the raw material for the UTune ground-truth files g₁ (bound
  * ranking) and g₂ (index ranking) of Algorithm 2.
  */
final case class EvalRecord(
    dsName: String,
    holdout: Boolean,
    n: Int,
    d: Int,
    k: Int,
    features: Array[Double],
    seqTimes: Map[String, Double],   // sequential-method name → seconds
    indexTimes: Map[Int, Double]     // index label (1..4) → seconds; partial under selective running
) {
  /** g₁: pool methods ranked fastest-first (only those measured). */
  def boundRank: Seq[String] =
    EvalHarness.poolNames.filter(seqTimes.contains).sortBy(seqTimes)

  /** g₂: index labels 1..4 ranked fastest-first; unmeasured labels last. */
  def indexRank: Seq[Int] = {
    val measured = indexTimes.keys.toSeq.sortBy(indexTimes)
    measured ++ Seq(1, 2, 3, 4).filterNot(indexTimes.contains)
  }

  def bestBound: String = boundRank.head
  def bestIndexLabel: Int = indexRank.head
}

/** Runs clustering tasks and produces EvalRecords. Index labels follow
  * Algorithm 2: 1 = no index (best sequential), 2 = pure index traversal,
  * 3 = UniK index-single, 4 = UniK index-multiple. Labels 2 and 4 time the
  * same state (UniK-multiple is INDE's), so they differ only by timing noise.
  */
object EvalHarness {

  val poolNames: Seq[String] = Strategies.pool.map(_.name)

  /** Warm up the JIT so the first timed cell isn't penalized. */
  lazy val warm: Unit = {
    val pts = Datasets.generate(Datasets.byName("Skin"), frac = 0.3, seed = 1L)
    val init = Init.kmeansPlusPlus(pts, 20, 3L)
    (Strategies.lloyd +: Strategies.pool :+ Strategies.index :+ Strategies.unik).foreach { s =>
      Runner.fitLocal(s, pts, 20, init, maxIters = 3)
    }
  }

  /** Selective running (Algorithm 2): pool methods at a reduced t_max, the
    * index methods only when the pure index beats the best sequential.
    */
  def runSelective(spec: DatasetSpec, frac: Double, dKeep: Int, k: Int,
                   tmax: Int = 5, seed: Long = 11L): EvalRecord =
    evaluate(spec, frac, dKeep, k, tmax, seed) { seconds =>
      val seqTimes = Strategies.pool.map(s => s.name -> seconds(s)).toMap
      val mo = seqTimes.values.min
      val pureT = seconds(Strategies.index)
      val unikTimes =
        if (pureT < mo) Map(3 -> seconds(Strategies.unikSingle), 4 -> seconds(Strategies.unikMultiple))
        else Map.empty[Int, Double]
      (seqTimes, Map(1 -> mo, 2 -> pureT) ++ unikTimes)
    }

  /** Full running: every sequential method (plus Lloyd for speedup context)
    * and all four index configurations.
    */
  def runFull(spec: DatasetSpec, frac: Double, dKeep: Int, k: Int,
              tmax: Int = 5, seed: Long = 11L): EvalRecord =
    evaluate(spec, frac, dKeep, k, tmax, seed) { seconds =>
      val seqTimes = (Strategies.lloyd +: Strategies.sequential :+ Strategies.full)
        .map(s => s.name -> seconds(s)).toMap
      (seqTimes, Map(
        1 -> poolNames.map(seqTimes).min,
        2 -> seconds(Strategies.index),
        3 -> seconds(Strategies.unikSingle),
        4 -> seconds(Strategies.unikMultiple)))
    }

  /** One task's record: its points, k-means++ init and meta-features, and
    * the sequential and index times `times` measures with `seconds`, the
    * time of a one-thread `Runner.fitLocal` at `tmax`.
    */
  private def evaluate(spec: DatasetSpec, frac: Double, dKeep: Int, k: Int, tmax: Int, seed: Long)(
      times: (Strategy => Double) => (Map[String, Double], Map[Int, Double])): EvalRecord = {
    warm
    val pts = Datasets.generate(spec, frac, dKeep, seed = seed)
    val init = Init.kmeansPlusPlus(pts, k, seed ^ k)
    val features = Features.extract(pts.length, k, if (pts.isEmpty) 0 else pts(0).length, BallTree.build(pts))
    val (seqTimes, indexTimes) = times(s => Runner.fitLocal(s, pts, k, init, maxIters = tmax).totalSeconds)
    EvalRecord(spec.name, spec.holdout, pts.length, pts(0).length, k, features, seqTimes, indexTimes)
  }
}
