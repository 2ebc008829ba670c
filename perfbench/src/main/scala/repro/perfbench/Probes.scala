package repro.perfbench

import scala.collection.mutable
import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

/** Totals of the Spark counters at one moment; subtract two to get a phase. */
final case class SparkTotals(
    jobs: Long, stages: Long, tasks: Long, taskCpuNs: Long, taskRunMs: Long, planMs: Long, execNs: Long) {
  def -(o: SparkTotals): SparkTotals = SparkTotals(
    jobs - o.jobs, stages - o.stages, tasks - o.tasks, taskCpuNs - o.taskCpuNs,
    taskRunMs - o.taskRunMs, planMs - o.planMs, execNs - o.execNs)
}

/** Spark engine counters attached from outside the program: a
  * `SparkListener` counts jobs, stages, tasks and task time, and a
  * `QueryExecutionListener` sums each action's Catalyst phase time
  * (`QueryExecution.tracker`) and execution time.
  */
final class SparkCounters private (spark: SparkSession) extends SparkListener with QueryExecutionListener {
  private var t = SparkTotals(0, 0, 0, 0, 0, 0, 0)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { t = t.copy(jobs = t.jobs + 1) }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    synchronized { t = t.copy(stages = t.stages + 1) }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    t = t.copy(tasks = t.tasks + 1,
      taskCpuNs = t.taskCpuNs + (if (m == null) 0L else m.executorCpuTime),
      taskRunMs = t.taskRunMs + (if (m == null) 0L else m.executorRunTime))
  }
  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = synchronized {
    t = t.copy(execNs = t.execNs + durationNs, planMs = t.planMs + qe.tracker.phases.values.map(_.durationMs).sum)
  }
  // A failed action throws in the caller, which counts it as a failed op.
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  /** Totals after every event posted so far has been delivered. */
  def totals(): SparkTotals = {
    ListenerBusAccess.drain(spark.sparkContext)
    synchronized(t)
  }
}

object SparkCounters {
  def attach(spark: SparkSession): SparkCounters = {
    val c = new SparkCounters(spark)
    spark.sparkContext.addSparkListener(c)
    spark.listenerManager.register(c)
    c
  }
}

/** The feature store handed to `Evaluator` in the traced run: it times
  * every miss (one `FeatureQueryExecutor.featureValues` call) and counts
  * hits and misses, and keeps the values in `underlying`.
  */
final class TimedStore(underlying: mutable.Map[String, Array[Double]])
    extends mutable.AbstractMap[String, Array[Double]] {
  val missMs: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty
  var hits = 0

  override def getOrElseUpdate(key: String, op: => Array[Double]): Array[Double] =
    underlying.get(key) match {
      case Some(v) => hits += 1; v
      case None =>
        val t0 = System.nanoTime()
        val v = op
        missMs += (System.nanoTime() - t0) / 1e6
        underlying.update(key, v)
        v
    }

  def get(key: String): Option[Array[Double]] = underlying.get(key)
  def iterator: Iterator[(String, Array[Double])] = underlying.iterator
  def addOne(kv: (String, Array[Double])): this.type = { underlying.addOne(kv); this }
  def subtractOne(key: String): this.type = { underlying.subtractOne(key); this }
  override def size: Int = underlying.size
  override def knownSize: Int = underlying.size
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, secondsSince(t0))
  }
}
