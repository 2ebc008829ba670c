package org.apache.spark

/** Lets the benchmark wait until Spark has delivered every listener event,
  * so counters read after a phase include all of that phase's work.
  * (The listener bus is package-private to Spark.)
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
