"""Graph construction as Spark DataFrame transformations (Fig. 1 pipeline).

The transaction log is a DataFrame ``(src, dst, amount, ts, ...)``;
this module derives the graph artifacts the engine needs:

* ``degrees``      — per-vertex out/in degree;
* ``edge_weights`` — per-edge suspiciousness ``c_ij`` under DG/DW/FD,
  FD weighting each edge by the *final-graph* in-degree of its object
  vertex (``1/log(indeg+5)``), computed with a join against the degree
  table — the exact static-Fraudar semantics;
* ``build_engine`` — bootstrap a ``SpadeEngine`` from the initial 90 %
  of the log, shipping the weighted edge list to the driver via Arrow.

Every function returns a DataFrame with stable column aliases so tests
can oracle-check it against the equivalent DuckDB SQL.
"""
from __future__ import annotations

from typing import Dict, Hashable, Optional

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.engine import SpadeEngine
from repro.core.susp import FD_LOG_C, Metric
from repro.datasets import edge_rows


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex ``(v, out_deg, in_deg)``; absent directions count 0."""
    out_d = edges.groupBy(F.col("src").alias("v")).agg(
        F.count(F.lit(1)).alias("out_deg")
    )
    in_d = edges.groupBy(F.col("dst").alias("v")).agg(
        F.count(F.lit(1)).alias("in_deg")
    )
    return (
        out_d.join(in_d, "v", "full_outer")
        .select(
            "v",
            F.coalesce("out_deg", F.lit(0)).alias("out_deg"),
            F.coalesce("in_deg", F.lit(0)).alias("in_deg"),
        )
    )


def edge_weights(edges: DataFrame, metric_name: str) -> DataFrame:
    """Append the suspiciousness column ``weight`` under a metric.

    DG: 1.0; DW: the transaction amount; FD: ``1/log(in_deg(dst)+5)``
    with the in-degree of the object vertex on the *whole* input — the
    static Fraudar weighting.
    """
    m = metric_name.upper()
    if m == "DG":
        return edges.withColumn("weight", F.lit(1.0))
    if m == "DW":
        return edges.withColumn("weight", F.col("amount").cast("double"))
    if m == "FD":
        in_d = edges.groupBy(F.col("dst").alias("_v")).agg(
            F.count(F.lit(1)).alias("_in_deg")
        )
        return (
            edges.join(in_d, edges["dst"] == in_d["_v"], "left")
            .withColumn(
                "weight", 1.0 / F.log(F.col("_in_deg") + F.lit(FD_LOG_C))
            )
            .drop("_v", "_in_deg")
        )
    raise KeyError(f"unknown metric {metric_name!r}")


def build_engine(
    spark: SparkSession,
    edges: DataFrame,
    metric: Metric,
    priors: Optional[Dict[Hashable, float]] = None,
    use_final_graph_weights: bool = False,
) -> SpadeEngine:
    """Bootstrap a :class:`SpadeEngine` from a Spark edge DataFrame.

    By default the engine evaluates ``esusp`` edge by edge in timestamp
    order (the evolving-graph semantics every later insertion uses).
    With ``use_final_graph_weights`` the Spark-side static weighting of
    :func:`edge_weights` is shipped instead — useful when comparing
    against the standalone static Fraudar baseline.
    """
    cols = ["src", "dst", "amount"]
    order_col = "ts" if "ts" in edges.columns else None
    if use_final_graph_weights:
        wdf = edge_weights(edges, metric.name)
        if order_col:
            wdf = wdf.orderBy(order_col)
        pdf = wdf.select(*cols, "weight").toPandas()
        eng = SpadeEngine(metric)
        eng.bulk_load(
            edge_rows(pdf),
            priors=priors,
            edge_weights=pdf["weight"].to_numpy(),
        )
        return eng
    df = edges.orderBy(order_col) if order_col else edges
    pdf = df.select(*cols).toPandas()
    eng = SpadeEngine(metric)
    eng.bulk_load(edge_rows(pdf), priors=priors)
    return eng
