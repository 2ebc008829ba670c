package repro.perfbench

import java.sql.DriverManager
import scala.collection.mutable
import scala.util.Try
import org.duckdb.DuckDBConnection
import repro.core.QuerySpec
import repro.exp.Prepared

/** Correctness gate, run outside the timed region.
  *
  * Every selected query must give finite feature values. Every oracle-safe
  * one is also recomputed by DuckDB from `FeatureQueryExecutor.duckSql`
  * over the relevant table loaded as VARCHAR (the convention of
  * `repro.Oracle`), and the feature column the program used must equal
  * DuckDB's result aligned to the training rows (0.0 where a key has no
  * group or a NULL value), within a relative 1e-9.
  *
  * `Oracle.assertEquivalent` is not used here: it reloads the table for
  * every query (seconds per query) and compares values printed to six
  * decimals, so a value within floating-point noise of a rounding
  * boundary fails (Spark 178.822463 vs DuckDB 178.822462 for a population
  * variance on Student-lite).
  */
object Gate {
  val RelTol = 1e-9

  /** Problems with one run's selected queries; empty when all pass. */
  def check(p: Prepared, selected: Vector[QuerySpec], oracle: Boolean): Vector[String] = {
    val finite = selected.collect {
      case q if !p.feature(q).forall(v => !v.isNaN && !v.isInfinite) => s"${q.cacheKey}: non-finite feature value"
    }
    val safe = selected.filter(_.agg.oracleSafe)
    finite ++ (if (oracle && safe.nonEmpty) againstDuckDb(p, safe) else Vector.empty)
  }

  private def againstDuckDb(p: Prepared, queries: Vector[QuerySpec]): Vector[String] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").unwrap(classOf[DuckDBConnection])
    try {
      load(conn, p)
      queries.flatMap { q =>
        Try(compare(conn, p, q)).fold(e => Some(s"${q.cacheKey}: DuckDB check threw $e"), identity)
      }
    } finally conn.close()
  }

  private def load(conn: DuckDBConnection, p: Prepared): Unit = {
    val cols = p.td.relevant.columns
    conn.createStatement.execute(s"CREATE TABLE r (${cols.map(c => s"$c VARCHAR").mkString(", ")})")
    val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "r")
    try p.td.relevant.collect().foreach { row =>
      app.beginRow()
      cols.indices.foreach(i => app.append(Option(row.get(i)).map(_.toString).orNull))
      app.endRow()
    } finally app.close()
  }

  /** A mismatch description, or None when Spark, DuckDB and the store agree. */
  private def compare(conn: DuckDBConnection, p: Prepared, q: QuerySpec): Option[String] = {
    val nk = q.keys.size
    val duck = mutable.HashMap.empty[Vector[String], Option[Double]]
    val rs = conn.createStatement.executeQuery(p.executor.duckSql(q, "r"))
    while (rs.next()) {
      val v = rs.getDouble(nk + 1)
      duck(Vector.tabulate(nk)(i => rs.getString(i + 1))) = if (rs.wasNull() || v.isNaN) None else Some(v)
    }
    val spark = p.executor.featureDf(q).collect().map { r =>
      Vector.tabulate(nk)(i => String.valueOf(r.get(i))) -> (if (r.isNullAt(nk)) None else Some(r.getDouble(nk)))
    }.toMap
    val keyIdx = q.keys.map(p.td.keys.indexOf)
    val stored = p.feature(q)
    val groupDiff = (spark.keySet ++ duck.keySet).find(k => !same(spark.get(k).flatten, duck.get(k).flatten) ||
      spark.contains(k) != duck.contains(k))
    val rowDiff = p.keyRows.indices.find { i =>
      val k = keyIdx.map(p.keyRows(i))
      !close(stored(i), duck.get(k).flatten.getOrElse(0.0))
    }
    groupDiff.map(k => s"${q.cacheKey}: group $k Spark ${spark.get(k)} vs DuckDB ${duck.get(k)}")
      .orElse(rowDiff.map(i => s"${q.cacheKey}: training row $i has ${stored(i)}, DuckDB gives " +
        s"${duck.get(keyIdx.map(p.keyRows(i))).flatten.getOrElse(0.0)}"))
  }

  private def same(a: Option[Double], b: Option[Double]): Boolean = (a, b) match {
    case (Some(x), Some(y)) => close(x, y)
    case (None, None) => true
    case _ => false
  }

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= RelTol * math.max(1.0, math.max(math.abs(a), math.abs(b)))
}
