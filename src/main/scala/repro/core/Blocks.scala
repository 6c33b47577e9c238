package repro.core

import java.util.concurrent.{Callable, ForkJoinPool, ForkJoinTask}
import java.util.stream.IntStream

import scala.reflect.ClassTag
import scala.util.Try

/** Contiguous point blocks run on the common ForkJoin pool, or inside
  * `oneThread` on one worker. A partition of n points
  * is cut into `count(n)` blocks of about n / count(n) points; each block's
  * result comes back at its own index, so a caller that merges the results
  * in index order gets the same answer whatever the number of blocks.
  */
object Blocks {

  /** Fewest points a block holds: a partition under two blocks' worth runs
    * as one block on the calling thread.
    */
  final val MinSize = 1024

  /** Number of blocks for n points: at most four per thread that steps them
    * (the common pool's workers plus the caller), at least `MinSize` points
    * each, and never fewer than one; one inside `oneThread`.
    */
  def count(n: Int): Int =
    if (ForkJoinTask.getPool eq single) 1
    else math.max(1, math.min(n / MinSize, 4 * (ForkJoinPool.getCommonPoolParallelism + 1)))

  /** Runs `f(from, until)` over `count` contiguous blocks covering [0, n),
    * concurrently when there is more than one, and returns the results in
    * block order.
    */
  def map[B: ClassTag](n: Int, count: Int)(f: (Int, Int) => B): Array[B] = {
    val out = new Array[B](count)
    def run(b: Int): Unit = out(b) = f(bound(n, count, b), bound(n, count, b + 1))
    if (count == 1) run(0) else IntStream.range(0, count).parallel().forEach(b => run(b))
    out
  }

  /** The one worker `oneThread` runs on. */
  private lazy val single = new ForkJoinPool(1)

  /** Runs `body` on one thread: on a one-worker ForkJoin pool, where
    * `count` is 1 and any explicit `map` runs its blocks one after another
    * (forks and parallel streams run in the pool of the worker that starts
    * them). Results are the same bits as on the common pool.
    */
  def oneThread[A](body: => A): A =
    if (ForkJoinTask.getPool eq single) body
    else single.submit(new Callable[Try[A]] { def call(): Try[A] = Try(body) }).get.get

  private def bound(n: Int, count: Int, b: Int): Int = (n.toLong * b / count).toInt
}
