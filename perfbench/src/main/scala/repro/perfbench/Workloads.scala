package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.baselines.{FeatureSelectors, Featuretools}
import repro.core._
import repro.data.{Datasets, TaskDef}
import repro.exp.{Methods, Prepared}
import repro.hpo.TPE
import repro.ml._
import repro.proxy.{Association, MIProxy}

/** Per-layer metrics of one traced run, by name, in report order. */
final class Layers {
  val values: mutable.LinkedHashMap[String, (Double, String)] = mutable.LinkedHashMap.empty
  def put(name: String, value: Double, unit: String): Unit = values.update(name, (value, unit))
}

/** What one call of a workload's entry point produced. `selected` is
  * evaluated after the timed call, so recovering the selection is not timed.
  */
final case class Outcome(testLoss: Double, selected: () => Vector[QuerySpec])

/** One benchmark workload: a dataset generator, a downstream model and one
  * public entry point, run closed-loop (one call at a time) under
  * [[Workloads.budget]].
  */
sealed abstract class Workload(val name: String, val sf: Double, val model: ModelKind, baseDataSeed: Long) {
  /** The generator seed for workload seed `seed`; seed 0 is the generator's
    * default. Steps of 1000 keep the generators' per-column offsets apart.
    */
  def dataSeed(seed: Long): Long = baseDataSeed + 1000L * seed
  /** The dataset for workload seed `seed`. */
  def data(spark: SparkSession, sf: Double, seed: Long): TaskDef
  /** The task repetition `rep` runs on, from the generated one. */
  def forRep(td: TaskDef, rep: Int): TaskDef = td
  /** The seed handed to the program's search in repetition `rep` of a run
    * with workload seed `seed`: each repetition searches afresh.
    */
  def searchSeed(seed: Long, rep: Int): Long = 11L + 1000L * seed + rep
  /** The untraced entry-point call. */
  def run(p: Prepared, searchSeed: Long): Outcome
  /** The same work as [[run]], with each layer timed from outside;
    * returns the test loss and the selected queries.
    */
  def traced(p: Prepared, searchSeed: Long, counters: SparkCounters, out: Layers): (Double, Vector[QuerySpec])
}

object Workloads {
  /** Search budget of every workload: the shape of `Experiments.benchBudget`
    * (proxy warm-up with one TPE proposal, real evaluations, a two-layer QTI
    * beam) scaled down to one template, so that one call takes a few
    * seconds and a run fits several calls.
    */
  val budget: SearchBudget = SearchBudget(
    warmupIters = 6, warmupTopK = 2, genIters = 3, qtiProxyIters = 2,
    beamWidth = 1, beamDepth = 2, nTemplates = 1, queriesPerTemplate = 3,
    maxCats = 8, numQuantiles = 6)

  val all: Vector[Workload] = Vector(SearchTmallXgb, FtPoolStudent)

  def byName(n: String): Workload = all.find(_.name == n).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $n; known: ${all.map(_.name).mkString(", ")}"))

  /** Test-split loss from the test AUC of both (binary) workloads. */
  def loss(auc: Double): Double = 1.0 - auc

  /** FeatAug(Full, MI proxy) with XGB on Tmall-lite through
    * `Methods.runFeatAug`, cold feature store: the product path, with
    * predicate-aware queries on a composite key.
    */
  object SearchTmallXgb extends Workload("search-tmall-xgb", 0.02, XGBModel, 100L) {
    def data(spark: SparkSession, sf: Double, seed: Long): TaskDef =
      Datasets.tmallLite(spark, sf, seed = dataSeed(seed))

    def config(searchSeed: Long): FeatAugConfig = FeatAugConfig(budget = budget, seed = searchSeed)

    def run(p: Prepared, searchSeed: Long): Outcome = {
      val (metric, res) = Methods.runFeatAug(p, model, config(searchSeed))
      Outcome(loss(metric), () => res.queries)
    }

    def traced(p: Prepared, searchSeed: Long, counters: SparkCounters, out: Layers): (Double, Vector[QuerySpec]) = {
      val cfg = config(searchSeed)
      val store = new TimedStore(p.featureStore)
      val ev = new Evaluator(p.executor, p.baseX, p.y, p.td.task, model, p.split, cfg.proxy, cfg.seed,
        fastModels = true, featureStore = store)
      Tracing.entryPoint(p, model, store, counters, out) {
        // QTI first; selectQueries then repeats it from the evaluator's
        // memoized proxy scores, so search.select_s is mostly generation.
        val (qti, qtiS) = Stats.timed(QueryTemplateIdentification.identify(
          p.td.predAttrs, p.codec(_), ev, cfg.budget, usePredictor = true, seed = cfg.seed))
        val qtiQueries = store.missMs.size
        val (res, genS) = Stats.timed(FeatAug.selectQueries(p.td.predAttrs, p.codec(_), ev, cfg))
        out.put("search.candidates_s", qtiS, "s")
        out.put("search.candidates", qti.nodes.size, "count")
        out.put("search.candidate_queries", qtiQueries, "count")
        out.put("search.select_s", genS, "s")
        out.put("evaluator.real_evals", ev.realEvaluations, "count")
        res.queries
      }
    }
  }

  /** The whole Featuretools pool, MI selection and a final LR fit through
    * `Methods.runFTSelector`: every query is known up front, with no TPE,
    * proxy search or QTI.
    */
  object FtPoolStudent extends Workload("ftpool-student", 0.05, LRModel, 300L) {
    private val selector = FeatureSelectors.MISel

    /** The pool has no predicates, so one predicate attribute is kept only
      * to spare `Prepared` the domain extraction of the other nine.
      */
    def data(spark: SparkSession, sf: Double, seed: Long): TaskDef = {
      val td = Datasets.studentLite(spark, sf, seed = dataSeed(seed))
      td.copy(predAttrs = Vector("event_name"))
    }

    /** Repetition r materialises the pool of attribute pair r mod 4: all 15
      * aggregates, holistic ones included, over two attributes (30 queries).
      * Consecutive repetitions thus run different queries, as a fresh pool
      * does, and any four cover Student's whole 120-query pool.
      */
    private val pairs = Vector(
      Vector("elapsed_time", "hover_duration"), Vector("level", "page"),
      Vector("coor_x", "coor_y"), Vector("music", "clicks"))

    override def forRep(td: TaskDef, rep: Int): TaskDef = td.copy(aggAttrs = pairs(rep % pairs.size))

    private def select(p: Prepared): Vector[Int] = FeatureSelectors.select(
      selector, p.baseX, p.ftCandidates, p.y, p.td.task, model, p.split, p.budget.numFeatures)

    def run(p: Prepared, searchSeed: Long): Outcome = {
      val metric = Methods.runFTSelector(p, model, selector).getOrElse(
        throw new IllegalStateException(s"${selector.name} does not apply to ${p.td.task}"))
      Outcome(loss(metric), () => {
        // Selection is deterministic; recomputing it must give the same model.
        val idx = select(p)
        val again = p.finalMetric(model, idx.map(p.ftCandidates(_).values))
        require(again == metric, s"recomputed selection gives test AUC $again, the entry point $metric")
        idx.map(p.ftCandidates(_).spec)
      })
    }

    def traced(p: Prepared, searchSeed: Long, counters: SparkCounters, out: Layers): (Double, Vector[QuerySpec]) = {
      val store = new TimedStore(p.featureStore)
      Tracing.entryPoint(p, model, store, counters, out) {
        // Materialise the pool through the timed store: Prepared.ftCandidates
        // then finds every query in the shared store.
        val (pool, poolS) = Stats.timed {
          Featuretools.candidateSpecs(p.template(Vector.empty))
            .foreach(q => store.getOrElseUpdate(q.cacheKey, p.executor.featureValues(q)))
          p.ftCandidates
        }
        val (idx, selectS) = Stats.timed(select(p))
        out.put("search.candidates_s", poolS, "s")
        out.put("search.candidates", pool.size, "count")
        out.put("search.candidate_queries", store.missMs.size, "count")
        out.put("search.select_s", selectS, "s")
        out.put("evaluator.real_evals", 0, "count")
        idx.map(p.ftCandidates(_).spec)
      }
    }
  }
}

/** Layer timings taken around calls into the program's public functions. */
object Tracing {

  /** Runs `search` (which returns the selected queries), then the final fit,
    * and records executor, Spark, store, search and model metrics.
    */
  def entryPoint(p: Prepared, model: ModelKind, store: TimedStore, counters: SparkCounters, out: Layers)
                (search: => Vector[QuerySpec]): (Double, Vector[QuerySpec]) = {
    val before = counters.totals()
    val t0 = System.nanoTime()
    val (selected, searchS) = Stats.timed(search)
    val (metric, finalS) = Stats.timed(p.finalMetric(model, selected.map(p.feature)))
    val runS = Stats.secondsSince(t0)
    val sp = counters.totals() - before

    val queries = store.missMs.size
    val busyS = store.missMs.sum / 1000
    val sparkS = sp.execNs / 1e9
    out.put("executor.queries", queries, "count")
    out.put("executor.busy_s", busyS, "s")
    out.put("executor.query_ms_p50", Stats.median(store.missMs.toSeq), "ms")
    out.put("executor.query_ms_p95", Stats.quantile(store.missMs.toSeq, 0.95), "ms")
    out.put("executor.plan_s", sp.planMs / 1000.0, "s")
    out.put("executor.spark_s", sparkS, "s")
    out.put("executor.driver_s", busyS - sparkS, "s")
    out.put("spark.jobs", sp.jobs, "count")
    out.put("spark.stages", sp.stages, "count")
    out.put("spark.tasks", sp.tasks, "count")
    out.put("spark.task_cpu_s", sp.taskCpuNs / 1e9, "s")
    out.put("spark.task_run_s", sp.taskRunMs / 1000.0, "s")
    out.put("spark.jobs_per_query", sp.jobs.toDouble / math.max(1, queries), "jobs/query")
    out.put("store.hits", store.hits, "count")
    out.put("store.misses", queries, "count")
    out.put("store.hit_ratio", store.hits.toDouble / math.max(1, store.hits + queries), "ratio")
    out.put("search.s", searchS, "s")
    out.put("search.self_s", searchS - busyS, "s")
    out.put("model.final_fit_s", finalS, "s")
    out.put("trace.run_s", runS, "s")
    (Workloads.loss(metric), selected)
  }

  /** Replays of the small driver-side layers on the selected features. */
  def replays(p: Prepared, w: Workload, seed: Long, selected: Vector[QuerySpec], out: Layers): Unit = {
    val ev = p.evaluator(w.model, MIProxy, seed)
    val feats = selected.map(p.feature)
    val fitMs = feats.map { f =>
      val (_, s) = Stats.timed(Models.splitLoss(w.model, p.td.task, ev.withFeature(f),
        p.split.train, p.split.valid, seed, fast = true))
      s * 1000
    }
    out.put("model.fit_ms_p50", Stats.median(fitMs), "ms")

    val rows = p.split.train ++ p.split.valid
    val ys = rows.map(p.y)
    val miMs = feats.map { f =>
      val xs = rows.map(f)
      val (_, s) = Stats.timed(Association.mutualInformation(xs, ys, p.td.task))
      s * 1000
    }
    out.put("proxy.mi_ms_p50", Stats.median(miMs), "ms")

    val space = p.codec(p.td.predAttrs.take(2)).space
    val history = new TPE(space, seed).minimize(v => v.sum.toDouble, 16).history
    val tpe = new TPE(space, seed)
    val rnd = new scala.util.Random(seed)
    val suggestMs = (1 to 25).map { _ =>
      val (_, s) = Stats.timed(tpe.suggest(history, rnd))
      s * 1000
    }
    out.put("tpe.suggest_ms_p50", Stats.median(suggestMs), "ms")
  }
}
