package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts. Waiting until the
  * listener bus has delivered every event needs Spark's package-private
  * listener bus, hence this package.
  */
object JobCounter {
  def count[T](sc: SparkContext)(body: => T): (T, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val result = body
      sc.listenerBus.waitUntilEmpty()
      (result, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
