package repro.core

import repro.index.{BallKMeansStrategy, KdKMeans, SearchKernel}
import repro.unik.{UniKMode, UniKStrategy}

/** Central registry of every algorithm under evaluation, keyed by the name
  * used throughout the paper's tables.
  */
object Strategies {

  val lloyd: Strategy = LloydKernel

  /** The 12 sequential methods of Sections 3.2–4.3 (Search is sequential
    * with an index assist, as the paper notes).
    */
  val sequential: Seq[Strategy] = Seq(
    ElkaKernel, HameKernel, DrakKernel, YinyangKernel, RegroupKernel,
    HeapKernel, AnnuKernel, ExpoKernel, DriftKernel, VectorKernel,
    Pami20Kernel, SearchKernel)

  /** The five high-rank sequential methods (Fig. 12) — UTune's selection pool. */
  val pool: Seq[Strategy] = Seq(HameKernel, DrakKernel, HeapKernel, YinyangKernel, RegroupKernel)

  val index: Strategy = new BallKMeansStrategy()          // "INDE" (Ball-tree)
  val unik: Strategy = new UniKStrategy(UniKMode.Adaptive) // adaptive
  val unikSingle: Strategy = new UniKStrategy(UniKMode.Single)
  val unikMultiple: Strategy = new UniKStrategy(UniKMode.Multiple)
  val full: Strategy = FullKernel

  val sequ: Strategy = YinyangKernel // paper's representative "SEQU"

  val byName: Map[String, Strategy] =
    (Seq(lloyd, index, KdKMeans, unik, unikSingle, unikMultiple, full) ++ sequential)
      .map(s => s.name -> s).toMap

  def apply(name: String): Strategy =
    byName.getOrElse(name, sys.error(s"unknown strategy '$name' (have: ${byName.keys.toSeq.sorted.mkString(", ")})"))
}
