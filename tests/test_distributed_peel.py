"""Distributed 2(1+eps)-approximate peeling over DataFrames."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import DG, SpadeEngine
from repro.core.peel import peel
from repro.datasets import edge_rows, load_preset
from repro.oracle import assert_equivalent
from repro.spark.builder import edge_weights
from repro.spark.distributed_peel import distributed_peel


def _exact_density(edges_pdf, metric=DG):
    eng = SpadeEngine(metric)
    eng.bulk_load(edge_rows(edges_pdf))
    n, adj, a = eng.snapshot_graph()
    return peel(n, adj, a).best_density


@pytest.fixture(scope="module")
def small(spark):
    data = load_preset("grab1_lite", scale=0.03)
    edges = edge_weights(data.to_spark(spark), "DG").cache()
    verts = (
        edges.select(F.col("src").alias("v"))
        .union(edges.select(F.col("dst").alias("v")))
        .distinct()
        .withColumn("a", F.lit(0.0))
        .cache()
    )
    return data, edges, verts


class TestGuarantee:
    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_within_approximation_bound_of_exact(self, spark, small, eps):
        data, edges, verts = small
        res = distributed_peel(spark, edges, verts, eps=eps)
        exact = _exact_density(data.edges)
        # Greedy exact is itself >= g*/2; distributed is >= g*/(2(1+eps)).
        assert res.best_density >= exact / (2.0 * (1.0 + eps)) - 1e-9
        # And it can never beat the true optimum bound from below:
        assert res.best_density <= 2.0 * exact + 1e-9

    def test_terminates_quickly(self, spark, small):
        _, edges, verts = small
        res = distributed_peel(spark, edges, verts, eps=0.5)
        # O(log n / eps) rounds: generous cap for ~10K vertices.
        assert len(res.rounds) <= 60

    def test_round_sizes_strictly_decrease(self, spark, small):
        _, edges, verts = small
        res = distributed_peel(spark, edges, verts, eps=0.3)
        sizes = [n for _, n, _ in res.rounds]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestMembers:
    def test_members_density_matches_reported(self, spark, small):
        """Recompute g(S) of the returned members via DuckDB."""
        import duckdb

        _, edges, verts = small
        res = distributed_peel(spark, edges, verts, eps=0.5)
        members = res.members.toPandas()
        pdf = edges.select("src", "dst", "weight").toPandas()
        con = duckdb.connect()
        con.register("e", pdf)
        con.register("m", members)
        f = con.execute(
            """
            SELECT COALESCE(SUM(weight), 0) FROM e
            WHERE src IN (SELECT v FROM m) AND dst IN (SELECT v FROM m)
            """
        ).fetchone()[0]
        con.close()
        assert len(members) > 0
        assert f / len(members) == pytest.approx(res.best_density, rel=1e-6)

    def test_tiny_graph_exact(self, spark):
        # K4 plus a pendant: best S is the clique at eps→0.
        rows = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
        rows.append((0, 4, 1.0))
        edges = spark.createDataFrame(
            pd.DataFrame(rows, columns=["src", "dst", "weight"])
        )
        verts = spark.createDataFrame(
            pd.DataFrame({"v": list(range(5)), "a": [0.0] * 5})
        )
        res = distributed_peel(spark, edges, verts, eps=0.01)
        got = set(res.members.toPandas()["v"])
        assert got == {0, 1, 2, 3}
        assert res.best_density == pytest.approx(1.5)
