package repro.perfbench

import java.lang.management.ManagementFactory
import java.security.MessageDigest
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.{QuerySpec, SearchSpace}
import repro.data.TaskDef
import repro.exp.Prepared

/** One benchmark run in a fresh JVM:
  *
  *  1. start Spark and generate the workload's dataset (cached frames
  *     materialised);
  *  2. warm-up, repetitions 0 .. [[WarmupReps]]-1: each a fresh `Prepared`
  *     and one entry-point call; repetition 0 runs cold and is followed by
  *     the full correctness gate (DuckDB + finite features);
  *  3. measured repetitions for `--seconds` (at least [[MinReps]]): each
  *     builds a fresh `Prepared` (cold feature store) and calls the entry
  *     point untraced with its own search seed, then checks that the
  *     selected features are finite and takes the heap after a full GC;
  *  4. with `--trace 1`, the dataset and repetition 1 again, with every
  *     layer timed.
  *
  * `setup_s` = Spark start + dataset + warm-up + the median `Prepared` of
  * step 3: JIT and first-run cost land in `setup_s`. `run_s` is the
  * median of the first [[MinReps]] measured calls and `retained_heap_mb`
  * the median heap behind them. The test loss is the median over repetitions
  * 0 .. [[QualityReps]]-1, whose selections and losses also make the run's
  * fingerprint; the traced repetition must match repetition 1 exactly.
  *
  * Prints a `perfbench-record` line with everything measured, then the
  * result line. Exit code 1 when any check failed.
  */
object Main {
  /** Unmeasured repetitions that start a run: the JVM is still compiling
    * hot code for several calls, so the first calls are slower.
    */
  val WarmupReps = 3
  /** Measured repetitions per run, at least. `run_s` and `retained_heap_mb`
    * use only the first [[MinReps]], so they sit at the same point of the
    * JVM's warm-up in every run, whatever `--seconds` allows beyond them.
    */
  val MinReps = 4
  /** The test loss and the run's fingerprint cover repetitions
    * 0 .. [[QualityReps]]-1, a fixed set of searches whatever the run length.
    */
  val QualityReps = 3
  val DefaultSeed = 0L
  /** Seed no tuning used; a claimed gain must also hold on it. */
  val HeldOutSeed = 9L

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, sf: Option[Double])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "sf")
    require(kv.keySet.subsetOf(known), s"unknown options ${kv.keySet -- known}")
    Args(
      workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      seed = kv.get("seed").map(_.toLong).getOrElse(DefaultSeed),
      seconds = kv.get("seconds").map(_.toDouble).getOrElse(10.0),
      trace = kv.get("trace").exists(_ == "1"),
      sf = kv.get("sf").map(_.toDouble))
  }

  final case class Rep(prepS: Double, runS: Double, queries: Int, testLoss: Double, fingerprint: String, heapMb: Double)

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workloads.byName(args.workload)
    val sf = args.sf.getOrElse(w.sf)

    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "4")
      // Spark's status store keeps the latest 1000 executions by default,
      // which would grow the heap with every repetition.
      .config("spark.sql.ui.retainedExecutions", "50")
      .config("spark.ui.retainedJobs", "50")
      .config("spark.ui.retainedStages", "50")
      .getOrCreate()
    val sessionS = Stats.secondsSince(t0)
    val counters = SparkCounters.attach(spark)
    val env = Obj(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "driver_heap_max_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "spark_version" -> spark.version,
      "master" -> spark.sparkContext.master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "aqe_enabled" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "sf" -> sf,
      "budget" -> Workloads.budget.toString,
      "model" -> w.model.name,
      "workload_seed" -> args.seed,
      "data_seed" -> w.dataSeed(args.seed),
      "search_seeds" -> s"${w.searchSeed(args.seed, 0)} + repetition",
      "default_seed" -> DefaultSeed,
      "held_out_seed" -> HeldOutSeed,
    )

    val failures = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    val reps = mutable.ArrayBuffer.empty[Rep] // the first WarmupReps are the warm-up
    val e2e = new Layers
    val layers = new Layers
    var genS = 0.0
    var gateS = 0.0

    def generate(): TaskDef = {
      spark.catalog.clearCache() // drop frames of an earlier generation
      val td = w.data(spark, sf, args.seed)
      td.train.count(); td.relevant.count()
      td
    }

    /** Repetition `i`: a fresh Prepared (cold feature store) and one untraced
      * call; then, untimed, the gate on its selection.
      */
    def rep(td: TaskDef, i: Int, oracle: Boolean): Unit = {
      val (p, prepS) = Stats.timed(new Prepared(w.forRep(td, i), Workloads.budget))
      val (out, runS) = Stats.timed(w.run(p, w.searchSeed(args.seed, i)))
      val tg = System.nanoTime()
      val selected = out.selected()
      attempted += p.featureStore.size
      failures ++= Gate.check(p, selected, oracle)
      gateS += Stats.secondsSince(tg)
      // This repetition's Prepared (feature store) and the cached frames are
      // live here, so state a change keeps across calls shows.
      val heapMb = retainedHeapMb()
      java.lang.ref.Reference.reachabilityFence(p)
      reps += Rep(prepS, runS, p.featureStore.size, out.testLoss, fingerprintOf(selected, out.testLoss), heapMb)
    }

    try {
      val (td, gS) = Stats.timed(generate())
      genS = gS
      (0 until WarmupReps).foreach(i => rep(td, i, oracle = i == 0))

      val tm = System.nanoTime()
      while (failures.isEmpty && (reps.size < WarmupReps + MinReps || Stats.secondsSince(tm) < args.seconds))
        rep(td, reps.size, oracle = false)

      val measured = reps.slice(WarmupReps, WarmupReps + MinReps)
      val warmupS = genS + reps.take(WarmupReps).map(r => r.prepS + r.runS).sum
      if (failures.isEmpty) {
        e2e.put("setup_s", sessionS + warmupS + Stats.median(measured.map(_.prepS).toSeq), "s")
        e2e.put("run_s", Stats.median(measured.map(_.runS).toSeq), "s")
        e2e.put("retained_heap_mb", Stats.median(measured.map(_.heapMb).toSeq), "MB")
      }

      if (args.trace && failures.isEmpty) {
        // Repeats repetition 1 (same data, same search seed) with every layer timed.
        layers.put("setup.session_s", sessionS, "s")
        layers.put("setup.warmup_s", warmupS, "s")
        layers.put("run.reps", reps.size - WarmupReps, "count")
        layers.put("quality.test_loss", Stats.median(reps.take(QualityReps).map(_.testLoss).toSeq), "loss")
        val (td, gS) = Stats.timed(generate())
        layers.put("data.gen_s", gS, "s")
        val (p, prepS) = Stats.timed(new Prepared(w.forRep(td, 1), Workloads.budget))
        layers.put("prepared.init_s", prepS, "s")
        val (_, domS) = Stats.timed(SearchSpace.domains(
          td.relevant, td.predAttrs, Workloads.budget.maxCats, Workloads.budget.numQuantiles))
        layers.put("searchspace.domains_s", domS, "s")
        val seed1 = w.searchSeed(args.seed, 1)
        val (loss, selected) = w.traced(p, seed1, counters, layers)
        attempted += p.featureStore.size
        failures ++= Gate.check(p, selected, oracle = false)
        val fp = fingerprintOf(selected, loss)
        if (fp != reps(1).fingerprint)
          failures += s"traced run selected $fp, the untraced repetition 1 ${reps(1).fingerprint}"
        Tracing.replays(p, w, seed1, selected, layers)
        layers.put("trace.overhead_s", layers.values("trace.run_s")._1 - e2e.values("run_s")._1, "s")
      }
    } catch {
      case e: Throwable =>
        failures += s"${e.getClass.getName}: ${e.getMessage}"
        e.printStackTrace()
    } finally spark.stop()

    def metricsJson(l: Layers) =
      Obj(l.values.toSeq.map { case (k, (v, u)) => k -> Obj("value" -> v, "unit" -> u) }: _*)
    val record = Obj(
      "workload" -> w.name,
      "fingerprint" -> fingerprintOf(reps.take(QualityReps).map(_.fingerprint).toVector),
      "env" -> env,
      "gen_s" -> genS,
      "reps" -> reps.toSeq.map(r =>
        Obj("prepare_s" -> r.prepS, "run_s" -> r.runS, "queries" -> r.queries, "test_loss" -> r.testLoss,
          "heap_mb" -> r.heapMb)),
      "gate_s" -> gateS,
      "session_s" -> sessionS,
      "end_to_end" -> metricsJson(e2e),
      "per_layer" -> metricsJson(layers),
      "failures" -> failures.toSeq,
    )
    println("perfbench-record " + Json(record))
    println(Json(Obj(
      "correct" -> failures.isEmpty,
      "attempted" -> math.max(1, attempted),
      "failed" -> failures.size,
      "metrics" -> metricsJson(if (args.trace) layers else e2e))))
    sys.exit(if (failures.isEmpty) 0 else 1)
  }

  /** Selected `cacheKey`s in order plus the exact test loss, hashed. */
  def fingerprintOf(selected: Vector[QuerySpec], testLoss: Double): String =
    fingerprintOf(selected.map(_.cacheKey) :+ java.lang.Double.toString(testLoss))

  def fingerprintOf(lines: Vector[String]): String =
    MessageDigest.getInstance("SHA-256").digest(lines.mkString("\n").getBytes("UTF-8"))
      .take(8).map("%02x".format(_)).mkString

  /** Heap in use after a full collection, in MiB. */
  def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

/** A JSON object whose keys print in the order given. */
final case class Obj(fields: (String, Any)*)

/** Minimal JSON rendering for the benchmark's own output. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => apply(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case o: Obj => o.fields.map { case (k, x) => quote(k) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Seq[_] => xs.map(apply).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\r' => b ++= "\\r"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.toString
  }
}
