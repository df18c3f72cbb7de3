"""Spark graph builder: every derived artifact oracle-checked vs DuckDB."""
import math

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import DW, FD, SpadeEngine
from repro.core.susp import FD_LOG_C
from repro.datasets import edge_rows, load_preset
from repro.oracle import assert_equivalent
from repro.spark import builder
from tests.helpers import edge_weight_map


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=0.03)


@pytest.fixture(scope="module")
def edges(spark, data):
    return data.to_spark(spark).cache()


class TestDegrees:
    def test_matches_duckdb(self, spark, edges):
        got = builder.degrees(edges)
        assert_equivalent(
            got,
            """
            WITH verts AS (SELECT DISTINCT src AS v FROM e
                           UNION SELECT DISTINCT dst AS v FROM e),
            o AS (SELECT src AS v, COUNT(*) AS out_deg FROM e GROUP BY src),
            i AS (SELECT dst AS v, COUNT(*) AS in_deg FROM e GROUP BY dst)
            SELECT verts.v,
                   COALESCE(out_deg, 0) AS out_deg,
                   COALESCE(in_deg, 0) AS in_deg
            FROM verts LEFT JOIN o ON verts.v = o.v LEFT JOIN i ON verts.v = i.v
            """,
            e=edges,
        )

    def test_degree_sum_equals_edges(self, edges):
        deg = builder.degrees(edges)
        total = deg.agg(F.sum("out_deg").alias("s")).collect()[0]["s"]
        assert total == edges.count()


class TestEdgeWeights:
    def test_dg_weight_is_one(self, edges):
        w = builder.edge_weights(edges, "DG")
        assert w.filter(F.col("weight") != 1.0).count() == 0

    def test_dw_weight_matches_duckdb(self, edges):
        got = builder.edge_weights(edges, "DW").select("src", "dst", "ts", "weight")
        assert_equivalent(
            got,
            "SELECT src, dst, ts, CAST(amount AS DOUBLE) AS weight FROM e",
            e=edges,
        )

    def test_fd_weight_matches_duckdb(self, edges):
        got = builder.edge_weights(edges, "FD").select("src", "dst", "ts", "weight")
        assert_equivalent(
            got,
            f"""
            SELECT e.src, e.dst, e.ts, 1.0 / LN(d.in_deg + {FD_LOG_C}) AS weight
            FROM e JOIN (SELECT dst, COUNT(*) AS in_deg FROM e GROUP BY dst) d
                   ON e.dst = d.dst
            """,
            e=edges,
        )

    def test_unknown_metric_raises(self, edges):
        with pytest.raises(KeyError):
            builder.edge_weights(edges, "XX")


class TestBuildEngine:
    def test_engine_matches_pandas_path(self, spark, data, edges):
        """The driver-side ``ts`` sort restores arrival order from any
        partition order, so FD's order-dependent weights match exactly."""
        shuffled = edges.orderBy(F.rand(seed=1))
        assert [r.ts for r in shuffled.select("ts").collect()] != sorted(data.edges["ts"])
        eng_spark = builder.build_engine(spark, shuffled, FD, priors=data.priors)
        eng_pd = SpadeEngine(FD)
        eng_pd.bulk_load(
            edge_rows(data.edges.sort_values("ts", kind="mergesort")), priors=data.priors
        )
        assert eng_spark.n_edges == eng_pd.n_edges
        assert eng_spark.order_external() == eng_pd.order_external()
        assert eng_spark.deltas().tobytes() == eng_pd.deltas().tobytes()
        assert edge_weight_map(eng_spark) == edge_weight_map(eng_pd)
        assert eng_spark.f_total == eng_pd.f_total
        assert eng_spark.best_density == eng_pd.best_density
        assert eng_spark.community_external() == eng_pd.community_external()

    def test_fd_final_graph_weights_total(self, spark, edges):
        """Engine f_total under static FD weighting == DuckDB's sum."""
        import duckdb

        eng = builder.build_engine(
            spark, edges, FD, use_final_graph_weights=True
        )
        pdf = edges.toPandas()
        con = duckdb.connect()
        con.register("e", pdf)
        expected_edges = con.execute(
            f"""
            SELECT SUM(1.0 / LN(d.in_deg + {FD_LOG_C}))
            FROM e JOIN (SELECT dst, COUNT(*) AS in_deg FROM e GROUP BY dst) d
                   ON e.dst = d.dst
            """
        ).fetchone()[0]
        con.close()
        # Default prior 0 => vertex mass 0; f_total is the edge mass.
        assert eng.f_total == pytest.approx(expected_edges)

    def test_fd_insertion_vs_final_weights_diverge_boundedly(self, spark, edges):
        """DESIGN.md: the two FD weightings differ, but within log-factors."""
        e_ins = builder.build_engine(spark, edges, FD)
        e_fin = builder.build_engine(spark, edges, FD, use_final_graph_weights=True)
        ratio = e_ins.f_total / e_fin.f_total
        assert 1.0 <= ratio <= math.log(edges.count() + FD_LOG_C)
