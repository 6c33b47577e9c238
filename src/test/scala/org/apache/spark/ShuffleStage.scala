package org.apache.spark

import org.apache.spark.scheduler.StageInfo

/** Whether a stage is a shuffle map stage, one that writes shuffle output.
  * A stage's shuffle id is private to Spark's package, hence this file's
  * package.
  */
object ShuffleStage {
  def apply(stage: StageInfo): Boolean = stage.shuffleDepId.isDefined
}
