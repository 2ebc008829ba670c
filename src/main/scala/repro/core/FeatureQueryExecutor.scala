package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Executes predicate-aware feature queries against the relevant table via
  * the DataFrame API (Catalyst plans the filter → hash-aggregate →
  * shuffle), and augments the training table per Definition 3.
  *
  * Every query runs through one shared-scan plan (multi-query
  * optimization, Sellis TODS'88; the one-pass Deep Feature Synthesis of
  * Featuretools): [[featureValuesBatch]] groups its queries by key set and
  * runs one Spark job per key set. The relevant table is filtered by the
  * OR of the queries' WHERE clauses, query i becomes
  * `agg_i(when(pred_i, a_i))` in a single `groupBy(keys).agg(...)`, and
  * one collect is aligned to [[trainKeyRows]] for all of them. When every
  * query of a key set has the same WHERE clause (always for a single
  * query), the plan is just `filter(pred)` with plain `agg_i(a_i)`.
  *
  *  - [[featureValues]] is a batch of one: the search path, one query at a
  *    time;
  *  - [[featureDf]] / [[augment]]: q(R) and the paper's LEFT JOIN of D with
  *    q(R), from the same plan — used for final feature materialization
  *    and the DuckDB oracle tests.
  *
  * NULL features (keys with no qualifying rows, or NaN-producing
  * aggregates such as variance of a single row) are imputed with 0.0 on
  * every path, mirroring Featuretools' fillna(0) convention.
  */
final class FeatureQueryExecutor(
    val train: DataFrame,
    val relevant: DataFrame,
    val allKeys: Vector[String],
    precollectedKeys: Option[Array[Vector[String]]] = None,
) {
  Aggregates.register(train.sparkSession)

  /** Train-side key tuples in row order — collected once, or provided by
    * the caller when it already collected the training rows (guarantees
    * row alignment with the caller's feature matrix).
    */
  lazy val trainKeyRows: Array[Vector[String]] = precollectedKeys.getOrElse {
    train.select(allKeys.map(col): _*).collect()
      .map(r => Vector.tabulate(allKeys.size)(i => String.valueOf(r.get(i))))
  }

  private def predColumn(p: Predicate): Option[Column] = {
    if (p.isEmpty) None
    else {
      val c = col(p.attr)
      val parts =
        p.eqValue.map(v => c === lit(v)).toList ++
          p.lo.map(l => c.cast("double") >= lit(l)).toList ++
          p.hi.map(h => c.cast("double") <= lit(h)).toList
      Some(parts.reduce(_ && _))
    }
  }

  /** The WHERE clause of `q`; None when it has no predicate. */
  private def whereColumn(q: QuerySpec): Option[Column] =
    q.preds.flatMap(predColumn).reduceOption(_ && _)

  /** The shared-scan plan of `qs`, which all group by `keys`: the key
    * columns, then one double column `feature<i>` per query (NaN
    * normalized to NULL).
    */
  private def batchDf(keys: Vector[String], qs: Seq[QuerySpec]): DataFrame = {
    val wheres = qs.map(whereColumn)
    val shared = qs.map(_.preds.filterNot(_.isEmpty)).distinct.size == 1
    val scan =
      if (shared) wheres.head.fold(relevant)(w => relevant.filter(w))
      else if (wheres.contains(None)) relevant
      else relevant.filter(wheres.flatten.reduce(_ || _))
    val aggs = qs.zip(wheres).zipWithIndex.map { case ((q, where), i) =>
      val a = col(q.aggAttr)
      val input = if (shared) a else where.fold(a)(when(_, a))
      q.agg.sparkExpr(input).cast("double").as(s"feature$i")
    }
    val features = qs.indices.map { i =>
      val f = col(s"feature$i")
      when(isnan(f), lit(null)).otherwise(f).as(s"feature$i")
    }
    scan.groupBy(keys.map(col): _*).agg(aggs.head, aggs.tail: _*)
      .select(keys.map(col) ++ features: _*)
  }

  /** q(R): keys + `feature` (double; NaN normalized to NULL). */
  def featureDf(q: QuerySpec): DataFrame =
    batchDf(q.keys, Seq(q)).withColumnRenamed("feature0", "feature")

  /** Definition 3: D LEFT JOIN q(R) with the feature named `name`. */
  def augment(q: QuerySpec, name: String): DataFrame = {
    val f = featureDf(q).withColumnRenamed("feature", name)
    train.join(f, q.keys, "left").na.fill(0.0, Seq(name))
  }

  /** The feature column of `q` aligned to [[trainKeyRows]]. */
  def featureValues(q: QuerySpec): Array[Double] = featureValuesBatch(Seq(q)).head

  /** The feature columns of `qs`, in order, each aligned to
    * [[trainKeyRows]]: one Spark job and one collect per distinct key set.
    */
  def featureValuesBatch(qs: Seq[QuerySpec]): Vector[Array[Double]] = {
    val out = new Array[Array[Double]](qs.size)
    for ((keys, idx) <- qs.indices.groupBy(i => qs(i).keys).toSeq.sortBy(_._2.head)) {
      val keyIdx = keys.map(allKeys.indexOf)
      require(keyIdx.forall(_ >= 0), s"query keys $keys not a subset of $allKeys")
      val groups = batchDf(keys, idx.map(qs)).collect().iterator.map { r =>
        Vector.tabulate(keys.size)(i => String.valueOf(r.get(i))) -> r
      }.toMap
      val rows = trainKeyRows.map(full => groups.get(keyIdx.map(full)))
      idx.zipWithIndex.foreach { case (i, j) =>
        val c = keys.size + j
        out(i) = rows.map {
          case Some(r) if !r.isNullAt(c) => r.getDouble(c)
          case _ => 0.0
        }
      }
    }
    out.toVector
  }

  /** DuckDB SQL equivalent of [[featureDf]] over VARCHAR-typed `table`
    * (see [[repro.Oracle]]): used by correctness tests only.
    */
  def duckSql(q: QuerySpec, table: String): String = {
    val where = q.preds.filterNot(_.isEmpty).flatMap { p =>
      p.eqValue.map(v => s"${p.attr} = '${v.replace("'", "''")}'").toList ++
        p.lo.map(l => s"CAST(${p.attr} AS DOUBLE) >= $l").toList ++
        p.hi.map(h => s"CAST(${p.attr} AS DOUBLE) <= $h").toList
    }
    val w = if (where.isEmpty) "" else where.mkString(" WHERE ", " AND ", "")
    val keys = q.keys.mkString(", ")
    s"SELECT $keys, CAST(${q.agg.duckExpr(q.aggAttr)} AS DOUBLE) AS feature FROM $table$w GROUP BY $keys"
  }
}
