package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.exp.{Experiments, Prepared}

/** The shared-scan batch path of [[FeatureQueryExecutor]]: a batch gives
  * every query the column its batch of one gives (and DuckDB gives, for
  * oracle-safe functions), and costs one Spark job per key set.
  */
class BatchExecutorSpec extends SparkSpec with MiniData {

  private val catA = Predicate("cat", Some("A"), None, None)
  private val tMid = Predicate("t", None, Some(2.0), Some(7.0))
  private val tLow = Predicate("t", None, None, Some(3.0))
  /** No row has this category: every group of its queries is empty. */
  private val noRows = Predicate("cat", Some("ZZZ"), None, None)
  private val whereClauses: Vector[Vector[Predicate]] =
    Vector(Vector.empty, Vector(catA), Vector(tMid), Vector(catA, tMid), Vector(noRows), Vector(tLow))

  /** Training rows keyed by (uid, cat): the queries below group by `uid`
    * or by `uid, cat`, two key sets over the same relevant table.
    */
  private lazy val pairTrain: DataFrame = relevant.select("uid", "cat").distinct().orderBy("uid", "cat").cache()
  private lazy val pairExecutor = new FeatureQueryExecutor(pairTrain, relevant, Vector("uid", "cat"))

  /** All 15 functions, each over both key sets with different WHERE
    * clauses: predicate-free, categorical, range, both, and unsatisfiable.
    */
  private lazy val mixed: Vector[QuerySpec] = AggFunc.all.zipWithIndex.flatMap { case (agg, i) =>
    Vector(
      QuerySpec(agg, "amt", whereClauses(i % whereClauses.size), Vector("uid")),
      QuerySpec(agg, if (i % 2 == 0) "t" else "amt", whereClauses((i + 3) % whereClauses.size), Vector("uid", "cat")))
  }

  /** DuckDB's result of `q`, aligned to `ex`'s training rows (0.0 where a
    * key has no group, or a NULL or NaN value).
    */
  private def duckAligned(ex: FeatureQueryExecutor, q: QuerySpec): Array[Double] = {
    val (_, rows) = Oracle.query(ex.duckSql(q, "r"), "r" -> relevant)
    val nk = q.keys.size
    val byKey = rows.map { r =>
      val v = Option(r.get(nk)).map(_.asInstanceOf[Number].doubleValue).filterNot(_.isNaN)
      Vector.tabulate(nk)(i => String.valueOf(r.get(i))) -> v.getOrElse(0.0)
    }.toMap
    val keyIdx = q.keys.map(ex.allKeys.indexOf)
    ex.trainKeyRows.map(k => byKey.getOrElse(keyIdx.map(k), 0.0))
  }

  private def assertClose(got: Array[Double], want: Array[Double], what: String): Unit = {
    assert(got.length == want.length, what)
    got.indices.foreach(i => assert(Oracle.close(got(i), want(i)), s"$what: row $i has ${got(i)}, expected ${want(i)}"))
  }

  test("the mixed batch covers every function, WHERE clause and both key sets") {
    assert(mixed.map(_.agg).toSet == AggFunc.all.toSet)
    assert(mixed.map(_.preds).toSet == whereClauses.toSet)
    assert(mixed.map(_.keys).distinct.size == 2)
  }

  test("every column of a mixed batch equals its batch-of-one result") {
    val batch = pairExecutor.featureValuesBatch(mixed)
    assert(batch.size == mixed.size)
    mixed.zip(batch).foreach { case (q, col) =>
      assertClose(col, pairExecutor.featureValuesBatch(Seq(q)).head, q.cacheKey)
    }
  }

  test("every oracle-safe column of a mixed batch matches DuckDB") {
    val batch = pairExecutor.featureValuesBatch(mixed)
    mixed.zip(batch).filter(_._1.agg.oracleSafe).foreach { case (q, col) =>
      assertClose(col, duckAligned(pairExecutor, q), q.cacheKey)
    }
  }

  test("queries with an unsatisfiable WHERE clause give all-zero columns in a batch") {
    val batch = pairExecutor.featureValuesBatch(mixed)
    mixed.zip(batch).filter(_._1.preds == Vector(noRows)).foreach { case (q, col) =>
      assert(col.forall(_ == 0.0), q.cacheKey)
    }
  }

  test("a batch keeps the caller's order, repeated queries included") {
    val qs = Vector(mixed(3), mixed(0), mixed(3))
    val batch = pairExecutor.featureValuesBatch(qs)
    assertClose(batch(0), batch(2), mixed(3).cacheKey)
    assertClose(batch(1), pairExecutor.featureValues(mixed(0)), mixed(0).cacheKey)
  }

  test("a batch rejects keys outside the training key set") {
    intercept[IllegalArgumentException](
      pairExecutor.featureValuesBatch(Seq(mixed(0), mixed(0).copy(keys = Vector("nope")))))
  }

  test("an empty batch runs no Spark job") {
    val (out, jobs) = JobCounter.count(spark.sparkContext)(executor.featureValuesBatch(Seq.empty))
    assert(out.isEmpty && jobs == 0)
  }

  test("a batch runs no more Spark jobs per key set than a single query") {
    pairExecutor.trainKeyRows
    val (_, single) = JobCounter.count(spark.sparkContext)(
      pairExecutor.featureValues(QuerySpec(AggFunc.Median, "amt", Vector(tMid), Vector("uid"))))
    val (_, batch) = JobCounter.count(spark.sparkContext)(pairExecutor.featureValuesBatch(mixed))
    assert(single > 0)
    assert(batch <= 2 * single, s"mixed batch over 2 key sets ran $batch jobs, one query $single")
  }

  test("the whole ftCandidates pool runs no more Spark jobs than one single query") {
    val p = new Prepared(taskDef.copy(aggFuncs = AggFunc.all), Experiments.testBudget)
    val (_, single) = JobCounter.count(spark.sparkContext)(
      p.executor.featureValues(QuerySpec(AggFunc.Median, "amt", Vector(catA), Vector("uid"))))
    val (pool, poolJobs) = JobCounter.count(spark.sparkContext)(p.ftCandidates)
    assert(pool.size == AggFunc.all.size * taskDef.aggAttrs.size)
    assert(single > 0)
    assert(poolJobs <= single, s"pool of ${pool.size} queries ran $poolJobs jobs, one query $single")
  }

  test("ftCandidates materializes only the store misses") {
    val p = new Prepared(taskDef, Experiments.testBudget)
    val q = QuerySpec(AggFunc.Sum, "amt", Vector.empty, Vector("uid"))
    val stored = p.feature(q)
    val pool = p.ftCandidates
    assert(pool.find(_.spec == q).get.values eq stored)
    pool.foreach(c => assertClose(c.values, p.executor.featureValues(c.spec), c.spec.cacheKey))
  }
}
