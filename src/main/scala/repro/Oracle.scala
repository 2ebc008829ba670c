package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DecimalType, DoubleType, FloatType}

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts its rows match
  * ``sparkDf``. This catches wrong results from a rewritten plan or a
  * custom operator — "it ran" is not "it is correct".
  *
  * Rows are matched by key: the columns that are not floating point in
  * ``sparkDf`` (compared as strings, since the oracle tables are VARCHAR).
  * Floating-point columns are compared numerically within a relative
  * [[RelTol]] (``|a - b| <= RelTol * max(1, |a|, |b|)``); NULL equals only
  * NULL, and NaN only NaN. Rows sharing a key are compared in sorted order.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {
  val RelTol = 1e-9

  /** One row split into its key (strings) and its floating-point values. */
  private final case class Canon(key: Seq[String], values: Seq[Option[Double]])

  private def canon(rows: Seq[Row], cols: Seq[String], keyCols: Seq[String], valueCols: Seq[String]): Seq[Canon] = {
    val lower = cols.map(_.toLowerCase)
    val ki = keyCols.map(c => lower.indexOf(c.toLowerCase))
    val vi = valueCols.map(c => lower.indexOf(c.toLowerCase))
    rows.map { r =>
      Canon(
        ki.map(i => Option(r.get(i)).fold("∅")(_.toString)),
        vi.map(i => Option(r.get(i)).map {
          case n: java.lang.Number => n.doubleValue
          case x => x.toString.toDouble
        }))
    }
  }

  /** Equal within a relative [[RelTol]]; NaN equals only NaN. */
  def close(a: Double, b: Double): Boolean =
    (a.isNaN && b.isNaN) || math.abs(a - b) <= RelTol * math.max(1.0, math.max(math.abs(a), math.abs(b)))

  private def close(a: Option[Double], b: Option[Double]): Boolean = (a, b) match {
    case (None, None) => true
    case (Some(x), Some(y)) => close(x, y)
    case _ => false
  }

  /** Rows of one key, in a fixed order so duplicates pair up. */
  private def sortedValues(rows: Seq[Canon]): Seq[Seq[Option[Double]]] =
    rows.map(_.values).sortBy(_.map(_.fold("∅")(d => f"$d%.6e")).mkString("|"))

  /** Runs `sql` on DuckDB over `tables`, each loaded with every column as
    * VARCHAR; returns DuckDB's column labels and rows.
    */
  def query(sql: String, tables: (String, DataFrame)*): (Seq[String], Seq[Row]) = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val rows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to cols.size).map(r.getObject)))
        .toVector
      (cols, rows)
    } finally conn.close()
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    val (dCols, dRows) = query(sql, tables: _*)
    val sCols = sparkDf.columns.toSeq
    require(
      dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
      s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
    )
    val (valueCols, keyCols) = sparkDf.schema.fields.toSeq.sortBy(_.name.toLowerCase).partition(f =>
      f.dataType match {
        case DoubleType | FloatType | _: DecimalType => true
        case _ => false
      })
    val got = canon(sparkDf.collect().toSeq, sCols, keyCols.map(_.name), valueCols.map(_.name)).groupBy(_.key)
    val exp = canon(dRows, dCols, keyCols.map(_.name), valueCols.map(_.name)).groupBy(_.key)
    val keyDiff = (got.keySet ++ exp.keySet).toSeq.filter(k => got.get(k).map(_.size) != exp.get(k).map(_.size))
    val valueDiff = got.keySet.intersect(exp.keySet).toSeq.filterNot { k =>
      sortedValues(got(k)).zip(sortedValues(exp(k))).forall { case (a, b) =>
        a.zip(b).forall { case (x, y) => close(x, y) }
      }
    }
    require(keyDiff.isEmpty && valueDiff.isEmpty,
      s"result mismatch (${got.values.map(_.size).sum} vs ${exp.values.map(_.size).sum} rows; " +
      s"key columns ${keyCols.map(_.name).mkString(",")}):\n" +
      s"  first keys with different row counts: ${keyDiff.take(3)}\n" +
      s"  first keys with different values: " +
      valueDiff.take(3).map(k => s"$k spark=${got(k).map(_.values)} duckdb=${exp(k).map(_.values)}").mkString("; ")
    )
  }
}
