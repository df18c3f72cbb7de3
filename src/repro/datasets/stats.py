"""Table 3 statistics computed with Spark aggregations.

``stats_row`` produces one row per dataset with |V|, |E|, average
degree, the increment count (the 10 % tail) and the fraud-edge count.
The paper's Table 3 reports ``2|E|/|V|`` (each edge contributes to both
endpoints' degree:
Grab1 has 10M/3.991M ≈ 2.5 edges per vertex but an "avg. degree" of
5.011), so the same convention is used here.
Each aggregate is a plain Spark SQL expression so tests can oracle-check
it against DuckDB.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.datasets.generator import GraphData


def vertex_count(edges: DataFrame) -> int:
    """|V|: distinct vertices appearing as source or target."""
    verts = edges.select(F.col("src").alias("v")).union(
        edges.select(F.col("dst").alias("v"))
    )
    return verts.distinct().count()


def stats_row(spark: SparkSession, data: GraphData) -> dict:
    """One Table 3 row for a generated dataset."""
    edges = data.to_spark(spark)
    n_e = edges.count()
    n_v = vertex_count(edges)
    n_inc = len(data.increments)
    return {
        "dataset": data.name,
        "V": n_v,
        "E": n_e,
        "avg_degree": round(2.0 * n_e / n_v, 3),
        "increments": n_inc,
        "fraud_edges": int(data.edges["is_fraud"].sum()),
    }

