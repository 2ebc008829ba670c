package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Unit semantics of the custom aggregates and the two functions whose
  * DuckDB counterparts differ (KURTOSIS, MODE) — verified against
  * hand-computed values instead of the oracle.
  */
class AggregatesSpec extends SparkSpec {

  private def aggValue(agg: AggFunc, values: Seq[Double]): Double = {
    Aggregates.register(spark)
    import spark.implicits._
    val df = values.map(v => (1L, v)).toDF("k", "v")
    val r = df.groupBy("k").agg(agg.sparkExpr(col("v")).cast("double").as("f")).collect()(0)
    r.getDouble(1)
  }

  /** `agg` over one group whose NULL inputs come from `when`, as the
    * batched executor produces them for rows a query's predicate rejects.
    */
  private def aggValueNullable(agg: AggFunc, values: Seq[Option[Double]]): Double = {
    Aggregates.register(spark)
    import spark.implicits._
    val df = values.map(v => (1L, v.isDefined, v.getOrElse(-1.0))).toDF("k", "keep", "v")
    val r = df.groupBy("k").agg(agg.sparkExpr(when(col("keep"), col("v"))).cast("double").as("f")).collect()(0)
    r.getDouble(1)
  }

  test("median helper: odd count picks the middle value") {
    assert(Aggregates.median(Array(3.0, 1.0, 2.0)) == 2.0)
  }

  test("median helper: even count interpolates the two middle values") {
    assert(Aggregates.median(Array(1.0, 2.0, 3.0, 10.0)) == 2.5)
  }

  test("median helper rejects empty input") {
    intercept[IllegalArgumentException](Aggregates.median(Array.empty))
  }

  test("ENTROPY of a uniform 4-value group is 2 bits") {
    assert(math.abs(aggValue(AggFunc.Entropy, Seq(1, 2, 3, 4)) - 2.0) < 1e-9)
  }

  test("ENTROPY of a constant group is 0") {
    assert(aggValue(AggFunc.Entropy, Seq(5, 5, 5)) == 0.0)
  }

  test("ENTROPY of a 75/25 split is the expected Shannon value") {
    val expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(2)
    assert(math.abs(aggValue(AggFunc.Entropy, Seq(1, 1, 1, 2)) - expected) < 1e-9)
  }

  test("MAD is the median absolute deviation around the median") {
    // values 1,2,4,8 -> median 3, |dev| = 2,1,1,5 -> median 1.5
    assert(aggValue(AggFunc.Mad, Seq(1, 2, 4, 8)) == 1.5)
  }

  test("MAD of a constant group is 0") {
    assert(aggValue(AggFunc.Mad, Seq(3, 3, 3, 3)) == 0.0)
  }

  test("ENTROPY skips NULL inputs") {
    // NULLs read as 0.0 would add a value 0 seen three times: 1.37 bits.
    assert(aggValueNullable(AggFunc.Entropy, Seq(Some(1), None, Some(2), None, None)) == 1.0)
  }

  test("MAD skips NULL inputs") {
    // NULLs read as 0.0 would give 0,0,0,1,2,4,8: median 1, MAD 1.
    assert(aggValueNullable(AggFunc.Mad, Seq(Some(1), None, Some(2), Some(4), None, Some(8), None)) == 1.5)
    assert(aggValueNullable(AggFunc.Mad, Seq(Some(1), None, Some(3))) == 1.0)
  }

  test("ENTROPY and MAD of an all-NULL group finish at 0.0") {
    assert(aggValueNullable(AggFunc.Entropy, Seq(None, None, None)) == 0.0)
    assert(aggValueNullable(AggFunc.Mad, Seq(None, None)) == 0.0)
  }

  test("MODE skips NULL inputs") {
    assert(aggValueNullable(AggFunc.Mode, Seq(Some(5), None, None, None, Some(5), Some(2))) == 5.0)
  }

  test("KURTOSIS matches the population excess kurtosis formula") {
    val vs = Seq(1.0, 2.0, 3.0, 4.0, 10.0)
    val n = vs.size
    val m = vs.sum / n
    val m2 = vs.map(v => math.pow(v - m, 2)).sum / n
    val m4 = vs.map(v => math.pow(v - m, 4)).sum / n
    val expected = m4 / (m2 * m2) - 3.0
    assert(math.abs(aggValue(AggFunc.Kurtosis, vs) - expected) < 1e-9)
  }

  test("MODE returns the most frequent value when unambiguous") {
    assert(aggValue(AggFunc.Mode, Seq(1, 2, 2, 2, 3)) == 2.0)
  }

  test("MODE breaks a tie towards the smallest value") {
    assert(aggValue(AggFunc.Mode, Seq(3, 1, 3, 1, 2)) == 1.0)
    assert(aggValue(AggFunc.Mode, Seq(9, 7, 8, 9, 7, 8)) == 7.0)
  }

  test("COUNT_DISTINCT counts distinct non-NULL values") {
    assert(aggValue(AggFunc.CountDistinct, Seq(1, 2, 2, 3, 3, 3)) == 3.0)
    assert(aggValueNullable(AggFunc.CountDistinct, Seq(Some(1), None, Some(1), Some(4))) == 2.0)
    assert(aggValueNullable(AggFunc.CountDistinct, Seq(None, None)) == 0.0)
  }

  test("a new session gets its own fa_entropy / fa_mad registration") {
    Aggregates.register(spark)
    val fresh = spark.newSession()
    assert(!fresh.catalog.functionExists("fa_entropy"), "function registries are per session")
    import fresh.implicits._
    val rel = Seq((1L, 1.0), (1L, 2.0), (1L, 4.0)).toDF("k", "v")
    // Building an executor registers the aggregates in its session.
    val ex = new FeatureQueryExecutor(Seq(1L).toDF("k"), rel, Vector("k"))
    assert(fresh.catalog.functionExists("fa_entropy") && fresh.catalog.functionExists("fa_mad"))
    val h = ex.featureValues(QuerySpec(AggFunc.Entropy, "v", Vector.empty, Vector("k")))
    assert(h.length == 1 && math.abs(h(0) - math.log(3) / math.log(2)) < 1e-12)
    assert(ex.featureValues(QuerySpec(AggFunc.Mad, "v", Vector.empty, Vector("k"))).toSeq == Seq(1.0))
  }

  test("registration is idempotent") {
    Aggregates.register(spark)
    Aggregates.register(spark)
    import spark.implicits._
    val df = Seq((1L, 1.0), (1L, 2.0)).toDF("k", "v")
    assert(df.groupBy("k").agg(expr("fa_entropy(v)")).collect()(0).getDouble(1) == 1.0)
  }

  test("AggFunc.byName resolves every function and rejects unknowns") {
    AggFunc.all.foreach(a => assert(AggFunc.byName(a.name) eq a))
    intercept[IllegalArgumentException](AggFunc.byName("NOPE"))
  }

  test("the full function set has the paper's 15 members, basic has 5") {
    assert(AggFunc.all.size == 15)
    assert(AggFunc.basic.size == 5)
    assert(AggFunc.all.map(_.name).distinct.size == 15)
  }
}
