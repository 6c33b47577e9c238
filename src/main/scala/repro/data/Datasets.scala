package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** Synthetic analogs of the paper's 15 evaluation datasets (Table 2 plus
  * the three unseen sets of Section 7.3.2). The container has no network
  * access, so each UCI/real set is replaced by a deterministic Gaussian
  * mixture with the same dimensionality (Mnist capped at 256) and a scaled
  * n, with cluster count/tightness chosen to match the paper's qualitative
  * behaviour — see DESIGN.md "Substitutions".
  *
  * `assembled` ≈ how strongly the data clusters ("assembling distribution"
  * in the paper): tight spatial sets (NYC, Europe, Road) give the index its
  * wins; diffuse sets (Power, Mnist, MSD) defeat batch pruning.
  */
final case class DatasetSpec(
    name: String,
    n: Int,
    d: Int,
    latentClusters: Int,
    noiseSd: Double,
    paperN: String,
    paperD: Int,
    holdout: Boolean // the three sets never seen by UTune training
)

object Datasets {

  val all: Seq[DatasetSpec] = Seq(
    DatasetSpec("BigCross",    20000, 57,  60, 0.04,  "1.16M", 57,  holdout = false),
    DatasetSpec("Conflong",    20000, 3,   40, 0.02,  "165k",  3,   holdout = false),
    DatasetSpec("Covtype",     20000, 55,  30, 0.08,  "581k",  55,  holdout = false),
    DatasetSpec("Europe",      30000, 2,   80, 0.01,  "169k",  2,   holdout = false),
    DatasetSpec("KeggD",       12000, 24,  30, 0.03,  "53.4k", 24,  holdout = false),
    DatasetSpec("Kegg",        15000, 29,  30, 0.03,  "65.5k", 29,  holdout = false),
    DatasetSpec("NYC",         40000, 2,  150, 0.004, "3.5M",  2,   holdout = false),
    DatasetSpec("Skin",        20000, 4,   25, 0.03,  "245k",  4,   holdout = false),
    DatasetSpec("Power",       24000, 9,   15, 0.25,  "2.07M", 9,   holdout = false),
    DatasetSpec("Road",        24000, 4,  100, 0.01,  "434k",  4,   holdout = false),
    DatasetSpec("Census",      16000, 68,  40, 0.06,  "2.45M", 68,  holdout = false),
    DatasetSpec("Mnist",        4000, 256, 10, 0.5,   "60k",   784, holdout = false),
    DatasetSpec("Spam",         8000, 57,  15, 0.1,   "4.6k",  57,  holdout = true),
    DatasetSpec("Shuttle",     15000, 9,    7, 0.05,  "58k",   9,   holdout = true),
    DatasetSpec("MSD",         12000, 90,  25, 0.3,   "515k",  90,  holdout = true)
  )

  val byName: Map[String, DatasetSpec] = all.map(s => s.name -> s).toMap

  /** Global scale knob for smoke runs (REPRO_SCALE=0.2 shrinks every n 5×). */
  lazy val scale: Double =
    sys.env.get("REPRO_SCALE").map(_.toDouble).filter(_ > 0).getOrElse(1.0)

  /** Deterministic Gaussian-mixture sample for a spec. `frac` subsamples n
    * and `dKeep` projects to the first dKeep dimensions (the n/d variants
    * used for UTune ground-truth generation, mirroring the paper's grid).
    */
  def generate(spec: DatasetSpec, frac: Double = 1.0, dKeep: Int = -1,
               seed: Long = 42L): Array[Array[Double]] = {
    val rnd = new Random(seed ^ spec.name.hashCode.toLong)
    val n = math.max(32, (spec.n * scale * frac).toInt)
    val d = if (dKeep > 0) math.min(dKeep, spec.d) else spec.d
    val g = spec.latentClusters
    val centers = Array.fill(g, d)(rnd.nextDouble())
    // real data is never uniform: skewed cluster sizes, heterogeneous
    // spreads, and a background-noise fraction (outliers inflate cluster
    // radii, which is what defeats naive batch pruning in practice)
    val weights = Array.fill(g)(0.2 + rnd.nextDouble())
    val spreads = Array.fill(g)(0.5 + rnd.nextDouble() * 1.5)
    val cum = weights.scanLeft(0.0)(_ + _).tail
    val total = cum.last
    val noiseFrac = 0.04
    Array.fill(n) {
      if (rnd.nextDouble() < noiseFrac) Array.fill(d)(rnd.nextDouble())
      else {
        val u = rnd.nextDouble() * total
        var c = 0
        while (c < g - 1 && cum(c) < u) c += 1
        val base = centers(c)
        val sd = spec.noiseSd * spreads(c)
        Array.tabulate(d)(i => base(i) + rnd.nextGaussian() * sd)
      }
    }
  }

  /** Points as a DataFrame with an `id` and a `features` array column. */
  def toDF(spark: SparkSession, points: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    points.zipWithIndex.map { case (p, i) => (i.toLong, p.toSeq) }.toSeq
      .toDF("id", "features")
  }
}
