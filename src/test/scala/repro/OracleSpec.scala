package repro

/** The DuckDB oracle's comparison rule: rows matched by key, doubles
  * compared within a relative [[Oracle.RelTol]].
  */
class OracleSpec extends SparkSpec {

  test("floating-point noise at a six-decimal rounding boundary is equal") {
    val s = spark
    import s.implicits._
    // Printed to six decimals these are 178.822463 and 178.822462.
    val df = Seq((1, 178.82246250000002)).toDF("k", "feature")
    Oracle.assertEquivalent(df, "SELECT 1 AS k, CAST(178.82246249999998 AS DOUBLE) AS feature")
  }

  test("rows are matched by key whatever their order") {
    val s = spark
    import s.implicits._
    val t = Seq((2, 4.0), (1, 2.0), (2, 1.0)).toDF("k", "v")
    val df = Seq((2, 5.0), (1, 2.0)).toDF("k", "feature")
    Oracle.assertEquivalent(df,
      "SELECT k, CAST(SUM(CAST(v AS DOUBLE)) AS DOUBLE) AS feature FROM t GROUP BY k ORDER BY k", "t" -> t)
  }

  test("a difference beyond the tolerance is caught") {
    val s = spark
    import s.implicits._
    val df = Seq((1, 1000.00001)).toDF("k", "feature")
    intercept[IllegalArgumentException](
      Oracle.assertEquivalent(df, "SELECT 1 AS k, CAST(1000.0 AS DOUBLE) AS feature"))
  }

  test("a missing key and a NULL value are caught") {
    val s = spark
    import s.implicits._
    val t = Seq((1, "2.0"), (2, null)).toDF("k", "v")
    val sql = "SELECT k, CAST(v AS DOUBLE) AS feature FROM t"
    intercept[IllegalArgumentException](Oracle.assertEquivalent(Seq((1, 2.0)).toDF("k", "feature"), sql, "t" -> t))
    intercept[IllegalArgumentException](
      Oracle.assertEquivalent(Seq((1, 2.0), (2, 0.0)).toDF("k", "feature"), sql, "t" -> t))
  }
}
