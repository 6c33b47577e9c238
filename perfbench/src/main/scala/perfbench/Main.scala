package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.lang.ref.Reference
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.{Executors, TimeUnit}
import scala.collection.immutable.VectorMap
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.mllib.clustering.{KMeans => MLlibKMeans, KMeansModel}
import org.apache.spark.mllib.linalg.Vectors
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.spark.SparkKMeans

final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path)

/** One whole fit of one cell. `selfNs` is the traced self time per span
  * name (empty when untraced); `result` is null when the fit threw;
  * `stealShare` is the share of vCPU time the hypervisor stole meanwhile.
  */
final case class Fit(cell: String, phase: String, traced: Boolean, wallNs: Long,
                     result: FitResult, selfNs: Map[String, Long], error: Option[String],
                     stealShare: Double = 0.0)

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>`.
  * Prints a summary and, as the last stdout line, the result JSON.
  */
object Main {
  val defaultSeed = 42L

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
        def arg(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
        val a = Args(arg("workload"), arg("seed").toLong, arg("seconds").toInt,
          arg("trace") == "1", Paths.get(arg("out")))
        require(a.seconds >= 1, "--seconds must be at least 1")
        new Run(a, Workloads(a.workload)).apply()
        0
      } catch {
        case NonFatal(e) => e.printStackTrace(); 2
      }
    System.exit(code) // Spark leaves non-daemon threads behind
  }
}

final class Run(a: Args, w: Workload) {
  import Report.median
  import Workloads.{sparkPartitions, sparkThreads, tmax}

  private val nproc = Runtime.getRuntime.availableProcessors
  private val tracer = new Tracer(a.trace)
  private val untraced = new Tracer(false)
  private val fits = ArrayBuffer.empty[Fit]
  private val strategies = w.cells.map(Strategies(_))

  private var spark: SparkSession = _
  private var points: Array[Array[Double]] = _
  private var init: Array[Array[Double]] = _
  private var input: RDD[Array[Double]] = _
  private var ref: FitResult = _

  def apply(): Unit = {
    val started = System.nanoTime()
    val phaseEnds = ArrayBuffer.empty[(String, Double)]
    def phaseDone(name: String): Unit = phaseEnds += name -> (System.nanoTime() - started) / 1e9
    val sessionS = if (w.spark) seconds(tracer.span("spark.session")(startSpark())) else 0.0

    // Set-up, repeated; the last repetition's outputs are used.
    val setups = (1 to w.setupReps).map(_ => setup())
    val setupS = median(setups.map(_.values.sum))
    phaseDone("setup")

    // Untimed references: Lloyd on the same input and init (partitioned
    // over nproc threads), and on Spark stock spark.mllib KMeans as an
    // oracle for the Lloyd reference itself.
    val pool = Executors.newFixedThreadPool(nproc)
    val ec = ExecutionContext.fromExecutorService(pool)
    val refS = seconds { ref = tracer.span("ref.lloyd")(fitPartitioned(Strategies.lloyd, ec)._1) }
    val selfTest = Gate.selfTest(ref)
    phaseDone("reference")

    // Heap the fitted partition states retain, measured before any Spark
    // job runs so that Spark's own clean-up does not land between the two
    // readings. Locally the measured fit is the warm-up pass.
    val stateBytes = VectorMap.from(strategies.map { s =>
      val (fit, held) = heldAfter(if (w.spark) replayFit(s, ec) else runFit(s, "warmup", tracer))
      fits += fit
      s.name -> (held - heapAfterGc())
    })
    ec.shutdown(); ec.awaitTermination(1, TimeUnit.MINUTES)
    phaseDone("state_memory")

    var mllibS = 0.0
    var oracleError = 0.0
    if (w.spark) mllibS = seconds {
      oracleError = Gate.maxCentroidError(ref.centroids, tracer.span("ref.mllib")(mllib()))
    }
    val oracleOk = oracleError <= Gate.centroidTol

    // Untimed warm-up passes; locally the first one was the pass above.
    for (_ <- 1 to (if (w.spark) w.warmupPasses else w.warmupPasses - 1); s <- strategies)
      fits += runFit(s, "warmup", tracer)._1
    phaseDone("warmup")

    // Timed passes. A traced run alternates traced and untraced passes so
    // the gap between them is the tracing overhead.
    val minPasses = if (a.trace) 2 else 1
    val t0 = System.nanoTime()
    var passes = 0
    while (passes < minPasses || System.nanoTime() - t0 < a.seconds * 1000000000L) {
      val t = if (a.trace && passes % 2 == 0) tracer else untraced
      strategies.foreach(s => fits += runFit(s, "timed", t)._1)
      passes += 1
    }
    phaseDone("timed")

    val report = new Report(w, fits.toSeq, stateBytes, passes)
    val failed = fits.count(_.error.isDefined)
    val correct = failed == 0 && selfTest.isEmpty && oracleOk
    val endToEnd = VectorMap(
      "fit_s" -> report.fitS(traced = false),
      "setup_s" -> setupS,
      "state_mb" -> stateBytes.values.sum / 1e6,
      "fits_passed" -> (1.0 - failed.toDouble / fits.size))
    val perLayer = report.perLayer(VectorMap(
      "data.generate_s" -> median(setups.map(_("data.generate"))),
      "core.init_s" -> median(setups.map(_("core.init"))),
      "spark.input_s" -> median(setups.map(_.getOrElse("spark.input", 0.0))),
      "spark.session_s" -> sessionS,
      "ref.lloyd_fit_s" -> refS,
      "ref.mllib_fit_s" -> mllibS,
      "warmup_s" -> fits.filter(_.phase == "warmup").map(_.wallNs / 1e9).sum))
    val metrics = if (a.trace) perLayer else endToEnd
    val envInfo = env()
    if (spark != null) spark.stop()

    Files.createDirectories(a.out.toAbsolutePath.getParent)
    if (a.trace) tracer.write(Paths.get(a.out.toString.stripSuffix(".json") + ".spans.jsonl"))
    val detail = VectorMap(
      "workload" -> w.name, "seed" -> a.seed, "default_seed" -> Main.defaultSeed,
      "seed_note" -> "data and init both come from this seed; recheck any claim on a second seed",
      "trace" -> a.trace, "seconds" -> a.seconds, "passes" -> passes,
      "fit_s_tail" -> report.tail,
      "fit_s_steal" -> report.setAside,
      "phase_end_s" -> VectorMap.from(phaseEnds),
      "env" -> envInfo,
      "gate" -> VectorMap("self_test_failures" -> selfTest, "oracle_mllib_max_error" -> oracleError,
        "failed_fits" -> fits.filter(_.error.isDefined).map(f => s"${f.cell} (${f.phase}): ${f.error.get}")),
      "reference" -> VectorMap("iterations" -> ref.iterations, "converged" -> ref.converged, "sse" -> ref.sse),
      "end_to_end" -> endToEnd, "per_layer" -> perLayer,
      "fits" -> fits.map(f => VectorMap("cell" -> f.cell, "phase" -> f.phase, "traced" -> f.traced,
        "wall_s" -> f.wallNs / 1e9, "steal_share" -> f.stealShare, "error" -> f.error)))
    Files.write(a.out, Json(detail).getBytes("UTF-8"))

    println(s"perfbench ${w.name}: seed ${a.seed} (default ${Main.defaultSeed}; recheck any claim on a second seed), " +
      s"trace ${if (a.trace) 1 else 0}, ${a.seconds} s, $passes passes of ${w.cells.mkString(", ")}")
    println(s"  env: ${envInfo.map { case (k, v) => s"$k=$v" }.mkString(" ")}")
    println(s"  gate: self-test ${if (selfTest.isEmpty) "ok" else selfTest.mkString("; ")}, " +
      s"fits_failed $failed/${fits.size}" +
      (if (w.spark) s", mllib oracle max centroid error $oracleError" else ""))
    println(s"  fit_s tail: ${report.tail}")
    println(s"  fit_s steal: ${report.setAside} (steal share > ${Steal.quietShare})")
    metrics.foreach { case (k, v) => println(f"  $k%-28s $v%.6f ${Report.unitOf(k)}") }
    if (a.trace) report.accounting.foreach(line => println("  " + line))
    println(s"  results: ${a.out}")
    println(Json(VectorMap("correct" -> correct, "attempted" -> fits.size, "failed" -> failed,
      "metrics" -> metrics.map { case (k, v) => k -> VectorMap("value" -> v, "unit" -> Report.unitOf(k)) })))
  }

  /** One set-up repetition; returns its parts' times in seconds. */
  private def setup(): Map[String, Double] = {
    if (input != null) input.unpersist(blocking = true)
    val gen = seconds { points = tracer.span("data.generate")(
      Datasets.generate(Datasets.byName(Workloads.dataset), seed = a.seed)) }
    val ini = seconds { init = tracer.span("core.init")(Init.kmeansPlusPlus(points, w.k, a.seed)) }
    val parts = Map("data.generate" -> gen, "core.init" -> ini)
    if (!w.spark) parts
    else parts + ("spark.input" -> seconds {
      input = tracer.span("spark.input") {
        val r = spark.sparkContext.parallelize(points.toSeq, sparkPartitions).cache()
        r.count()
        r
      }
    })
  }

  /** Whole fit of one cell, gated against the reference. On the local path
    * this is `Strategy.newState` plus `Runner.fitStates`; on Spark it is
    * `SparkKMeans.fit`. Also returns the local fit's partition state.
    */
  private def runFit(s: Strategy, phase: String, t: Tracer): (Fit, Seq[PartitionState]) = {
    val from = t.mark
    val stolen = Steal.nanos()
    val t0 = System.nanoTime()
    try {
      val (r, states) = t.span("fit", s.name) {
        if (w.spark)
          (t.span("spark.fit", s.name)(
            SparkKMeans.fit(spark, input, s, w.k, init, tmax, sparkPartitions, a.seed)), Nil)
        else {
          val state = t.span("index.newstate", s.name)(s.newState(points, w.k, a.seed))
          val step: Seq[PartitionState] => CentroidInfo => Partials =
            ps => info => t.span("core.step", s.name)(ps.head.step(info))
          // The span's self time (minus its steps) is the driver layer:
          // CentroidInfo.compute, Grouper, centroid update, final SSE.
          (t.span("core.driver", s.name)(
            Runner.fitStates(s, Seq(state), step, w.k, init, tmax, a.seed)), Seq(state))
        }
      }
      val wall = System.nanoTime() - t0
      (Fit(s.name, phase, t.on, wall, r, if (t.on) t.selfNanosSince(from) else Map.empty,
        Gate.check(ref, r), Steal.shareSince(stolen, wall)), states)
    } catch {
      case NonFatal(e) =>
        (Fit(s.name, phase, t.on, System.nanoTime() - t0, null, Map.empty, Some(e.toString)), Nil)
    }
  }

  /** `Runner.fitStates` over the input split into `sparkPartitions`
    * contiguous chunks, stepping the partitions in parallel and merging
    * their `Partials` — the Spark path's state layout without Spark.
    */
  private def fitPartitioned(s: Strategy, ec: ExecutionContext): (FitResult, Seq[PartitionState]) = {
    val chunk = (points.length + sparkPartitions - 1) / sparkPartitions
    val states = points.grouped(chunk).zipWithIndex.map { case (p, i) => s.newState(p, w.k, a.seed ^ i) }.toSeq
    val step: Seq[PartitionState] => CentroidInfo => Partials = ps => info =>
      ps.map(st => Future(st.step(info))(ec)).map(Await.result(_, Duration.Inf)).reduce(_ merge _)
    (Runner.fitStates(s, states, step, w.k, init, tmax, a.seed), states)
  }

  /** On Spark the fitted states live inside the cached RDD and are dropped
    * by `fit`; their heap is measured on the same strategy's states built
    * over the same number of partitions in this JVM.
    */
  private def replayFit(s: Strategy, ec: ExecutionContext): (Fit, Seq[PartitionState]) = {
    val t0 = System.nanoTime()
    val (r, states) = fitPartitioned(s, ec)
    (Fit(s.name, "state-replay", traced = false, System.nanoTime() - t0, r, Map.empty,
      Gate.check(ref, r)), states)
  }

  /** Runs `fit` and returns it with the heap in use after full GC while
    * its partition states are still reachable. Only numbers leave this
    * frame, so the states are unreachable once it returns.
    */
  private def heldAfter(fit: => (Fit, Seq[PartitionState])): (Fit, Long) = {
    val (f, states) = fit
    val held = heapAfterGc()
    Reference.reachabilityFence(states)
    (f, held)
  }

  /** Heap in use right after a full GC, read from each pool's usage as the
    * collector left it, so allocation by other threads (and the TLABs they
    * take) after the collection does not count.
    */
  private def heapAfterGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && p.getCollectionUsage != null)
      .map(_.getCollectionUsage.getUsed).sum
  }

  private def mllib(): Array[Array[Double]] = {
    val vectors = input.map(p => Vectors.dense(p)).cache()
    val model = new MLlibKMeans().setK(w.k).setMaxIterations(tmax).setEpsilon(0.0).setSeed(a.seed)
      .setInitialModel(new KMeansModel(init.map(c => Vectors.dense(c))))
      .run(vectors)
    vectors.unpersist(blocking = true)
    model.clusterCenters.map(_.toArray)
  }

  private def startSpark(): Unit = {
    val work = sys.props.getOrElse("perfbench.work", ".bench_build")
    spark = SparkSession.builder
      .master(s"local[$sparkThreads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", Paths.get(work, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(work, "spark-warehouse").toAbsolutePath.toString)
      // the kernels' states are java.io.Serializable, not Kryo-friendly
      .config("spark.serializer", "org.apache.spark.serializer.JavaSerializer")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
  }

  private def env(): VectorMap[String, Any] = {
    val rt = ManagementFactory.getRuntimeMXBean
    VectorMap(
      "nproc" -> nproc,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "xmx_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "jvm_args" -> rt.getInputArguments.toArray.map(_.toString).filter(_.startsWith("-X")).mkString(" "),
      "spark_master" -> (if (spark != null) spark.sparkContext.master else "none (local path)"),
      "spark_partitions" -> (if (w.spark) sparkPartitions else 0),
      "llc" -> sys.props.getOrElse("perfbench.llc", "unknown"),
      "git_commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.source", "unknown"))
  }

  private def seconds(body: => Unit): Double = {
    val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e9
  }
}
