package perfbench

import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer: `parent` is the span open when it started
  * (-1 for a root); every span of one fit shares the root's id as `trace`.
  */
final case class Span(id: Int, parent: Int, trace: Int, name: String, cell: String,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Spans recorded from the benchmark's own code around calls into the
  * repo's public functions. Single-threaded: every span is opened and
  * closed on the benchmark's main thread. Spans stay in memory until
  * `write` at the end of the run. When off, `span` only runs its body.
  */
final class Tracer(val on: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[(Int, Int)] = Nil // (id, trace) of the open spans, innermost first

  def span[A](name: String, cell: String = "")(body: => A): A =
    if (!on) body
    else {
      val id = spans.length
      val (parent, trace) = open.headOption.getOrElse((-1, id))
      spans += null
      open = (id, trace) :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, trace, name, cell, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Id the next span will get; spans opened from here on have ids ≥ it. */
  def mark: Int = spans.length

  /** Self time (duration minus the time its children cover) of every span
    * opened since `from`, summed by span name.
    */
  def selfNanosSince(from: Int): Map[String, Long] = {
    val self = Array.tabulate(spans.length - from)(i => spans(from + i).durNs)
    for (i <- from until spans.length; p = spans(i).parent if p >= from)
      self(p - from) -= spans(i).durNs
    (from until spans.length).groupMapReduce(i => spans(i).name)(i => self(i - from))(_ + _)
  }

  def write(path: Path): Unit = {
    val lines = spans.iterator.map { s =>
      Json(collection.immutable.VectorMap(
        "id" -> s.id, "parent" -> s.parent, "trace" -> s.trace, "name" -> s.name,
        "cell" -> s.cell, "start_ns" -> s.startNs, "end_ns" -> s.endNs))
    }
    Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}
