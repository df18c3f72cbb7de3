"""Graph construction as Spark DataFrame transformations (Fig. 1 pipeline).

The transaction log is a DataFrame ``(src, dst, amount, ts, ...)``;
this module derives the graph artifacts the engine needs:

* ``degrees``      — per-vertex out/in degree;
* ``edge_weights`` — per-edge suspiciousness ``c_ij`` under DG/DW/FD,
  FD weighting each edge by the *final-graph* in-degree of its object
  vertex (``1/log(indeg+5)``), computed with a join against the degree
  table — the exact static-Fraudar semantics;
* ``build_engine`` — bootstrap a ``SpadeEngine`` from the initial 90 %
  of the log, shipping the edge list to the driver via Arrow;
* ``collect_edges`` — the Spark→engine hand-off of ``build_engine`` and
  ``run_stream``: Arrow transfer, then a stable ``ts`` sort on the
  driver instead of a Spark-side sort (no sampling job, no shuffle).

The DataFrame-valued functions keep stable column aliases so tests can
oracle-check them against the equivalent DuckDB SQL.
"""
from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.engine import SpadeEngine
from repro.core.susp import FD_LOG_C, Metric


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


def collect_edges(
    df: DataFrame, *extra: str
) -> Tuple[List[tuple], Dict[str, np.ndarray]]:
    """Ship ``(src, dst, amount)`` rows to the driver in timestamp order.

    Collects ``src, dst, amount``, the ``extra`` columns and ``ts`` (if
    present) with ``DataFrame.toArrow()`` and orders them by a stable
    ``argsort`` of ``ts``: tied timestamps keep partition/file order.
    Returns the row tuples (the values ``edge_rows`` yields) and each
    collected column as a numpy array in the same order.
    """
    names = ["src", "dst", "amount", *extra] + (["ts"] if "ts" in df.columns else [])
    table = df.select(*names).toArrow()
    cols = {c: table.column(c).to_numpy() for c in names}
    if "ts" in cols:
        order = np.argsort(cols["ts"], kind="stable")
        cols = {c: a[order] for c, a in cols.items()}
    rows = list(zip(cols["src"].tolist(), cols["dst"].tolist(), cols["amount"].tolist()))
    return rows, cols


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
    eng = SpadeEngine(metric)
    if use_final_graph_weights:
        rows, cols = collect_edges(edge_weights(edges, metric.name), "weight")
        eng.bulk_load(rows, priors=priors, edge_weights=cols["weight"])
    else:
        eng.bulk_load(collect_edges(edges)[0], priors=priors)
    return eng
