package org.apache.spark

/** Waits until every event posted so far has reached every listener. Spark
  * delivers listener events on its own threads, and the wait is private to
  * Spark's package, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
