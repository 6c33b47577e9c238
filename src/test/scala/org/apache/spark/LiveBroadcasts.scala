package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** The ids of the broadcasts whose values this JVM's block manager holds,
  * other than task binaries: the byte arrays the scheduler broadcasts for
  * every stage, which the context cleaner drops only once they are garbage.
  * The block manager is private to Spark's package, hence this file's
  * package.
  */
object LiveBroadcasts {
  def apply(sc: SparkContext): Set[Long] = {
    val store = sc.env.blockManager.memoryStore
    sc.env.blockManager.getMatchingBlockIds {
      case BroadcastBlockId(_, "") => true
      case _ => false
    }.collect {
      case b: BroadcastBlockId if !store.getValues(b).exists(_.next().isInstanceOf[Array[Byte]]) => b.broadcastId
    }.toSet
  }
}
