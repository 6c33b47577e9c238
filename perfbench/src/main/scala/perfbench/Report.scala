package perfbench

import scala.collection.immutable.VectorMap

/** Turns a run's fits into the end-to-end and per-layer metrics.
  *
  * `fit_s` is, per cell, the median wall time over the undisturbed timed
  * passes, summed over cells. Per-layer times come from each cell's traced timed
  * fit with the median wall time, so that cell's layer self times add up
  * to one real fit; aggregates sum the cells.
  */
final class Report(w: Workload, fits: Seq[Fit], stateBytes: Map[String, Long], passes: Int) {
  import Report._

  private def timed(cell: String, traced: Boolean): Seq[Fit] =
    fits.filter(f => f.phase == "timed" && f.cell == cell && f.traced == traced)

  /** The timed fits of `cell` during which the hypervisor stole at most
    * `Steal.quietShare` of the vCPU time; if fewer than half were, the
    * least-stolen half. Where steal is not reported, every fit.
    */
  private def undisturbed(cell: String, traced: Boolean): Seq[Fit] = {
    val xs = timed(cell, traced)
    val quiet = xs.filter(_.stealShare <= Steal.quietShare)
    if (2 * quiet.size >= xs.size) quiet else xs.sortBy(_.stealShare).take((xs.size + 1) / 2)
  }

  private def cellFitS(cell: String, traced: Boolean): Double =
    median(undisturbed(cell, traced).map(_.wallNs / 1e9))

  def fitS(traced: Boolean): Double = w.cells.map(cellFitS(_, traced)).sum

  /** How many untraced timed fits `fitS` set aside for steal. */
  def setAside: String = {
    val all = w.cells.map(timed(_, traced = false).size).sum
    s"${all - w.cells.map(undisturbed(_, traced = false).size).sum} of $all timed fits set aside"
  }

  /** Highest percentile of `fit_s` with at least ten samples beyond it. */
  def tail: String = {
    val n = w.cells.map(timed(_, traced = false).size).min
    Seq(99.9, 99.0, 95.0, 90.0, 75.0, 50.0).find(p => math.floor(n * (100 - p) / 100 + 1e-9) >= 10) match {
      case Some(p) =>
        val v = w.cells.map { c =>
          val xs = timed(c, traced = false).map(_.wallNs / 1e9).sorted
          xs(math.min(xs.size - 1, math.ceil(p / 100 * xs.size).toInt - 1))
        }.sum
        s"p$p = $v s over $n passes"
      case None => s"none qualifies ($n passes per cell; p50 needs at least 20)"
    }
  }

  /** The traced timed fit of `cell` whose wall time is the lower median. */
  private def representative(cell: String): Option[Fit] = {
    val xs = timed(cell, traced = true).filter(_.result != null).sortBy(_.wallNs)
    xs.lift((xs.size - 1) / 2)
  }

  private def cellLayers(f: Fit): Map[String, Double] = {
    val r = f.result
    def self(span: String) = f.selfNs.getOrElse(span, 0L) / 1e9
    val assign = r.assignNanos.sum / 1e9
    val refine = r.refineNanos.sum / 1e9
    val times =
      if (w.spark) Map(
        "spark.stage_s" -> (self("spark.fit") - r.totalSeconds),
        "spark.overhead_s" -> (r.totalSeconds - assign - refine))
      else Map(
        "index.newstate_s" -> self("index.newstate"),
        "core.step_s" -> self("core.step"),
        "core.driver_s" -> self("core.driver"))
    times ++ Map(
      "core.assign_s" -> assign, "core.refine_s" -> refine,
      "trace.unaccounted_s" -> self("fit"),
      "core.dist" -> r.metrics.dist.toDouble,
      "core.point_access" -> r.metrics.pointAccess.toDouble,
      "core.node_access" -> r.metrics.nodeAccess.toDouble,
      "core.bound_access" -> r.metrics.boundAccess.toDouble,
      "core.bound_update" -> r.metrics.boundUpdate.toDouble,
      "core.iters" -> r.iterations.toDouble,
      "lloyd_dist" -> r.n.toDouble * r.k * r.iterations)
  }

  private lazy val layersByCell: Map[String, Map[String, Double]] =
    w.cells.flatMap(c => representative(c).map(f => c -> cellLayers(f))).toMap

  /** Every per-layer metric named in `Report.perLayerNames`; metrics of
    * layers or cells this workload does not run read 0.
    */
  def perLayer(extra: Map[String, Double]): VectorMap[String, Double] = {
    val summed = layersByCell.values.flatten.groupMapReduce(_._1)(_._2)(_ + _)
    val perCell = for {
      (c, layers) <- layersByCell.toSeq
      (k, v) <- layers if perCellLocal.contains(k) || perCellSpark.contains(k)
    } yield s"$k.$c" -> v
    val traced = fitS(traced = true)
    val plain = fitS(traced = false)
    val values = extra ++ summed ++ perCell ++
      w.cells.map(c => s"fit_s.$c" -> cellFitS(c, traced = false)) ++
      stateBytes.map { case (c, b) => s"state_mb.$c" -> b / 1e6 } ++
      Map(
        "core.pruned_frac" -> (1.0 - summed.getOrElse("core.dist", 0.0) / summed.getOrElse("lloyd_dist", 1.0)),
        "trace.fit_s" -> traced,
        "trace.untraced_fit_s" -> plain,
        "trace.overhead_s" -> (traced - plain),
        "fit.passes" -> passes.toDouble)
    VectorMap.from(perLayerNames.map(n => n -> values.getOrElse(n, 0.0)))
  }

  /** How each cell's median traced fit splits into layer self times. */
  def accounting: Seq[String] = w.cells.flatMap { c =>
    layersByCell.get(c).map { l =>
      val parts = (if (w.spark) Seq("spark.stage_s", "spark.overhead_s", "core.assign_s", "core.refine_s")
                   else Seq("index.newstate_s", "core.driver_s", "core.step_s")) :+ "trace.unaccounted_s"
      val total = parts.map(l).sum
      f"$c: traced fit $total%.4f s = " + parts.map(p => f"$p ${l(p)}%.4f (${100 * l(p) / total}%.0f%%)").mkString(" + ")
    }
  } :+ f"tracing overhead: traced fit_s ${fitS(traced = true)}%.4f s - untraced ${fitS(traced = false)}%.4f s"
}

object Report {
  private def cellsOf(spark: Boolean): Seq[String] =
    Workloads.all.filter(_.spark == spark).flatMap(_.cells).distinct

  val perCellLocal: Seq[String] = Seq("fit_s", "index.newstate_s", "core.step_s", "core.driver_s",
    "core.assign_s", "core.refine_s", "core.dist", "state_mb")
  val perCellSpark: Seq[String] = Seq("fit_s", "spark.stage_s", "spark.overhead_s",
    "core.assign_s", "core.refine_s", "core.dist", "state_mb")

  /** The per-layer metrics every traced run reports, in order (none shares
    * a name with an end-to-end metric; `state_mb` is split per cell here).
    */
  val perLayerNames: Seq[String] = (Seq(
    "data.generate_s", "core.init_s", "spark.input_s", "spark.session_s",
    "index.newstate_s", "core.step_s", "core.assign_s", "core.refine_s", "core.driver_s",
    "spark.stage_s", "spark.overhead_s",
    "core.dist", "core.point_access", "core.node_access", "core.bound_access", "core.bound_update",
    "core.iters", "core.pruned_frac",
    "ref.lloyd_fit_s", "ref.mllib_fit_s", "warmup_s",
    "trace.fit_s", "trace.untraced_fit_s", "trace.overhead_s", "trace.unaccounted_s", "fit.passes") ++
    cellsOf(spark = false).flatMap(c => perCellLocal.map(m => s"$m.$c")) ++
    cellsOf(spark = true).flatMap(c => perCellSpark.map(m => s"$m.$c"))).distinct

  def unitOf(name: String): String =
    if (name.startsWith("state_mb")) "MB"
    else if (name == "core.pruned_frac" || name == "fits_passed") "fraction"
    else if (name.endsWith("_s") || name.contains("_s.")) "s"
    else "count"

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}
