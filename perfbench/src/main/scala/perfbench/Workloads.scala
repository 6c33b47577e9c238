package perfbench

/** One benchmark workload: a closed loop of sequential whole fits, one per
  * cell (strategy) per pass, on the generated BigCross analog. `setupReps` is how
  * many times set-up (generate + init, and on Spark the cached input RDD)
  * is repeated so `setup_s` can be a median; `warmupPasses` untimed passes
  * precede the timed ones.
  */
final case class Workload(name: String, k: Int, cells: Seq[String], spark: Boolean,
                          setupReps: Int, warmupPasses: Int)

/** Each workload is chosen so that one layer dominates its fits:
  *
  *  - `local-k1000-d57` (BigCross analog, n=20000, d=57, k=1000): the
  *    O(k²d) driver-side `CentroidInfo.compute` (plus Expo's neighbour
  *    sort) and n·k bound storage larger than the last-level cache; the
  *    Index cell adds a Ball-tree build and traversal. Hame and Drak are
  *    left out: each is slower than the kept cells together, so one cell
  *    would mask the rest.
  *  - `spark-k100` (BigCross analog, k=100): `SparkKMeans.fit` over a cached
  *    input RDD with 2 partitions, where per-iteration broadcast, task
  *    launch, `reduceByKey` and collect outweigh the kernels, and the
  *    driver work of k=100 is small. Its fits keep speeding up for about
  *    five passes (on a 4-vCPU host, Lloyd fell from 2.1–2.6 s in the first
  *    to 1.0–1.1 s in the fifth), so it warms up with four.
  *
  * A low-d index workload (NYC analog ×10, n=400000, d=2) was dropped: its
  * pointer-chasing tree build ran up to 1.7× slower when the shared host
  * was busy, and its spread across ten runs (0.22–0.25 of the median)
  * reached the largest bound allowed. KdTree and adaptive UniK are left
  * out: the Ball-tree cells cover the index layer, and adaptive UniK picks
  * its traversal from wall-clock timings, so its time does not repeat.
  * UTune is not a cell: its selection is driven by timings and its predict
  * cost is microseconds.
  */
object Workloads {
  val dataset = "BigCross" // n=20000, d=57
  val tmax = 10
  // Spark runs local[2] over 2 partitions, one task per executor thread.
  // With local[4] over 4 partitions on a shared 4-vCPU host, each stage
  // waited for its slowest task. In interleaved runs on the same seeds,
  // fit_s spread 0.31 of the median with local[4] and 0.085 with local[2].
  val sparkThreads = 2
  val sparkPartitions = 2

  val all: Seq[Workload] = Seq(
    Workload("local-k1000-d57", 1000, Seq("Elka", "Expo", "Yinyang", "Index"), spark = false,
      setupReps = 3, warmupPasses = 1),
    Workload("spark-k100", 100, Seq("Lloyd", "Yinyang", "UniK-multiple"), spark = true,
      setupReps = 3, warmupPasses = 4))

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (have: ${all.map(_.name).mkString(", ")})"))
}
