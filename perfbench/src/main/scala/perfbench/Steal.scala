package perfbench

import java.nio.file.{Files, Paths}
import scala.util.control.NonFatal

/** Time the hypervisor took from this VM's vCPUs to run other guests: the
  * `steal` column of /proc/stat. On a shared host, fit times rise with it,
  * and by more than the stolen share: a latency-bound Spark fit ran 1.4×
  * as long while 4% of the vCPU time was stolen.
  */
object Steal {
  /** A fit counts as undisturbed when at most this share was stolen. */
  val quietShare = 0.01

  private val stat = Paths.get("/proc/stat")
  private val nproc = Runtime.getRuntime.availableProcessors
  private val tickNs = 1e7 // /proc/stat counts in USER_HZ = 100 ticks per second

  /** Stolen time summed over all vCPUs since boot, in ns; 0 where not reported. */
  def nanos(): Double =
    try {
      val f = Files.readAllLines(stat).get(0).trim.split("\\s+")
      if (f(0) == "cpu" && f.length > 8) f(8).toLong * tickNs else 0.0
    } catch { case NonFatal(_) => 0.0 }

  /** Share of all vCPU time stolen during a span of `wallNs` that began
    * when `nanos()` read `from`.
    */
  def shareSince(from: Double, wallNs: Long): Double =
    (nanos() - from) / (wallNs.toDouble * nproc)
}
