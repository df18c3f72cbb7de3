"""Spark → engine bootstrap: the Spark path builds the pandas path's engine."""
import pytest
from pyspark.sql import functions as F

from repro.core import FD, SpadeEngine
from repro.datasets import edge_rows, load_preset
from repro.spark import builder
from tests.helpers import edge_weight_map


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=0.03)


@pytest.fixture(scope="module")
def edges(spark, data):
    return data.to_spark(spark).cache()


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
