package repro.tune

import repro.core.{Strategies, Strategy}

/** UTune (Section 6): learn, from evaluation records, (a) the best bound
  * configuration among the five pool methods and (b) the best index
  * configuration among {no-index, pure, index-single, index-multiple};
  * combine the two predictions into a runnable strategy.
  */
object UTune {

  /** Mean reciprocal rank (Eq. 13) of predictions against ranked truth. */
  def mrr(predicted: Seq[Int], truthRanks: Seq[Seq[Int]]): Double = {
    require(predicted.length == truthRanks.length)
    if (predicted.isEmpty) 0.0
    else predicted.zip(truthRanks).map { case (p, ranking) =>
      val r = ranking.indexOf(p)
      if (r < 0) 0.0 else 1.0 / (r + 1)
    }.sum / predicted.length
  }

  final case class TaskData(x: Array[Array[Double]], y: Array[Int], ranks: Seq[Seq[Int]],
                            nClasses: Int)

  /** Bound task: classes = indices into EvalHarness.poolNames. */
  def boundTask(records: Seq[EvalRecord], slice: Range): TaskData = {
    val pool = EvalHarness.poolNames
    val x = records.map(r => slice.map(r.features).toArray).toArray
    val y = records.map(r => pool.indexOf(r.bestBound)).toArray
    val ranks = records.map(_.boundRank.map(pool.indexOf))
    TaskData(x, y, ranks, pool.length)
  }

  /** Index task: classes = labels 1..4 shifted to 0..3. */
  def indexTask(records: Seq[EvalRecord], slice: Range): TaskData = {
    val x = records.map(r => slice.map(r.features).toArray).toArray
    val y = records.map(_.bestIndexLabel - 1).toArray
    val ranks = records.map(_.indexRank.map(_ - 1))
    TaskData(x, y, ranks, 4)
  }

  final case class ModelScore(model: String, mrr: Double, trainMs: Double, predictUs: Double)

  /** 70/30 split, train each model, report MRR + timings (Tables 5 and 7). */
  def evaluateModels(task: TaskData, seed: Long = 23L): Seq[ModelScore] = {
    val (trainI, testI) = split(task, seed)
    val xt = trainI.map(task.x).toArray; val yt = trainI.map(task.y).toArray
    Models.fresh().map { model =>
      val t0 = System.nanoTime()
      model.fit(xt, yt, task.nClasses)
      val t1 = System.nanoTime()
      val preds = testI.map(i => model.predict(task.x(i)))
      val t2 = System.nanoTime()
      val score = mrr(preds, testI.map(task.ranks))
      ModelScore(model.name, score,
        (t1 - t0) / 1e6, (t2 - t1) / 1e3 / math.max(1, testI.length))
    }
  }

  /** Figure-5 BDT baseline, evaluated on the full feature vector (it only
    * reads k and d): index when d < 20, Yinyang for k ≥ 50, else Hame.
    * Feature vector stores log1p(k) and log1p(d) at positions 1 and 2.
    */
  def bdtBound: Model = new BasicDecisionTree(f => {
    val k = math.expm1(f(1))
    val pool = EvalHarness.poolNames
    if (k >= 50) pool.indexOf("Yinyang") else pool.indexOf("Hame")
  })

  def bdtIndex: Model = new BasicDecisionTree(f => {
    val d = math.expm1(f(2))
    if (d < 20) 1 else 0 // label 2 (pure index) vs label 1 (no index), 0-based
  })

  def evaluateBdt(task: TaskData, bdt: Model, seed: Long = 23L): Double = {
    val testI = split(task, seed)._2
    mrr(testI.map(i => bdt.predict(task.x(i))), testI.map(task.ranks))
  }

  /** The seeded 70/30 split of a task's rows: (train, test) row indices. */
  private def split(task: TaskData, seed: Long): (List[Int], List[Int]) = {
    val idx = new scala.util.Random(seed).shuffle(task.x.indices.toList)
    idx.splitAt(math.max(1, (idx.length * 0.7).toInt))
  }

  /** Train DT (the deployed model, Section 7.3.2) on `records` and predict a
    * runnable strategy for the given features: bound choice + index choice.
    */
  def predictStrategy(records: Seq[EvalRecord], features: Array[Double]): Strategy = {
    val slice = Features.leafSlice
    val bTask = boundTask(records, slice)
    val iTask = indexTask(records, slice)
    val bModel = new DecisionTree()
    bModel.fit(bTask.x, bTask.y, bTask.nClasses)
    val iModel = new DecisionTree()
    iModel.fit(iTask.x, iTask.y, iTask.nClasses)
    val f = slice.map(features).toArray
    val bound = EvalHarness.poolNames(bModel.predict(f))
    val indexLabel = iModel.predict(f) + 1
    indexLabel match {
      case 1 => Strategies(bound)
      case 2 => Strategies.index
      case 3 => Strategies.unikSingle
      case 4 => Strategies.unikMultiple
    }
  }
}
