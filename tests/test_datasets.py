"""Synthetic dataset generators and the Table 3 presets."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.datasets import PRESETS, load_preset, transaction_graph
from repro.oracle import assert_equivalent

ALL_PRESETS = sorted(PRESETS)


@pytest.fixture(scope="module")
def small_presets():
    """Every preset materialized once at test scale."""
    return {name: load_preset(name, scale=0.05) for name in ALL_PRESETS}


class TestGenerator:
    def test_deterministic_in_seed(self):
        a = transaction_graph(n_src=300, n_dst=120, n_edges=3000, seed=9,
                              fraud_edges_per_block=100, edges_per_fraudster=50)
        b = transaction_graph(n_src=300, n_dst=120, n_edges=3000, seed=9,
                              fraud_edges_per_block=100, edges_per_fraudster=50)
        pd.testing.assert_frame_equal(a.edges, b.edges)

    def test_seed_changes_output(self):
        a = transaction_graph(n_src=300, n_dst=120, n_edges=3000, seed=1,
                              fraud_edges_per_block=100, edges_per_fraudster=50)
        b = transaction_graph(n_src=300, n_dst=120, n_edges=3000, seed=2,
                              fraud_edges_per_block=100, edges_per_fraudster=50)
        assert not a.edges.equals(b.edges)

    def test_edge_count_exact(self):
        d = transaction_graph(n_src=300, n_dst=120, n_edges=3000, seed=3,
                              fraud_edges_per_block=100, edges_per_fraudster=50)
        assert len(d.edges) == 3000

    def test_schema(self):
        d = transaction_graph(n_src=200, n_dst=100, n_edges=2500, seed=4,
                              fraud_edges_per_block=80, edges_per_fraudster=40)
        assert list(d.edges.columns) == ["src", "dst", "amount", "ts", "is_fraud", "block"]
        assert d.edges["amount"].gt(0).all()
        assert d.edges["ts"].is_monotonic_increasing

    def test_bipartite_separates_pools(self):
        d = transaction_graph(n_src=200, n_dst=100, n_edges=2500, kind="bipartite",
                              seed=5, fraud_edges_per_block=80, edges_per_fraudster=40,
                              n_campaigns=0, n_fraud_blocks=1)
        bg = d.edges[d.edges["block"] == -1]
        assert bg["src"].max() < 200
        assert bg["dst"].min() >= 200 and bg["dst"].max() < 300

    def test_directed_no_self_loops(self):
        d = transaction_graph(n_src=150, n_dst=150, n_edges=2500, kind="directed",
                              seed=6, fraud_edges_per_block=80, edges_per_fraudster=40)
        assert (d.edges["src"] != d.edges["dst"]).all()

    def test_invalid_kind_raises(self):
        with pytest.raises(ValueError, match="bipartite"):
            transaction_graph(n_src=10, n_dst=10, n_edges=2000, kind="weird")

    def test_too_many_fraud_edges_raises(self):
        with pytest.raises(ValueError, match="too small"):
            transaction_graph(n_src=10, n_dst=10, n_edges=100,
                              fraud_edges_per_block=1000)

    def test_established_blocks_in_initial_window(self):
        d = transaction_graph(n_src=300, n_dst=120, n_edges=4000, seed=7,
                              fraud_edges_per_block=150, edges_per_fraudster=60)
        est = d.edges[(d.edges["block"] >= 0) & (d.edges["block"] < 2)]
        # Established bursts live inside [0.15, 0.83] of the stream.
        assert est["ts"].max() <= 0.85 * 86_400.0

    def test_campaigns_in_increment_tail(self):
        d = transaction_graph(n_src=300, n_dst=120, n_edges=4000, seed=7,
                              fraud_edges_per_block=150, edges_per_fraudster=60)
        camp = d.edges[d.edges["block"] >= len(d.established_blocks)]
        assert len(camp) == 2 * 2 * 60
        assert camp["ts"].min() >= 0.9 * 86_400.0

    def test_campaign_fraudsters_are_new_vertices(self):
        d = transaction_graph(n_src=300, n_dst=120, n_edges=4000, seed=8,
                              fraud_edges_per_block=150, edges_per_fraudster=60)
        for members in d.fraud_blocks:
            assert all(v >= 420 for v in members)  # beyond both pools

    def test_campaigns_target_established_merchants(self):
        d = transaction_graph(n_src=300, n_dst=120, n_edges=4000, seed=8,
                              fraud_edges_per_block=150, edges_per_fraudster=60)
        camp = d.edges[d.edges["block"] == len(d.established_blocks)]
        est_dst = {
            v for v in d.established_blocks[0] if v >= 300
        }
        assert set(camp["dst"]) <= est_dst

    def test_priors_cover_all_vertices(self):
        d = transaction_graph(n_src=200, n_dst=100, n_edges=2500, seed=9,
                              fraud_edges_per_block=80, edges_per_fraudster=40)
        verts = set(d.edges["src"]) | set(d.edges["dst"])
        assert verts <= set(d.priors)
        assert all(p > 0 for p in d.priors.values())
        for v in d.fraud_vertices:
            assert d.priors[v] == 1.0

    def test_split_is_90_10(self):
        d = transaction_graph(n_src=200, n_dst=100, n_edges=2500, seed=10,
                              fraud_edges_per_block=80, edges_per_fraudster=40)
        assert d.n_initial == 2250
        assert len(d.initial) + len(d.increments) == 2500
        assert d.initial["ts"].max() <= d.increments["ts"].min()


class TestPresets:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_presets_materialize(self, small_presets, name):
        d = small_presets[name]
        assert len(d.edges) >= 2000
        assert d.edges["amount"].gt(0).all()

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_preset_has_increments_and_fraud(self, small_presets, name):
        d = small_presets[name]
        assert len(d.increments) == len(d.edges) - d.n_initial
        assert len(d.fraud_blocks) >= 1
        assert len(d.established_blocks) >= 1

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_preset_determinism(self, small_presets, name):
        again = load_preset(name, scale=0.05)
        pd.testing.assert_frame_equal(small_presets[name].edges, again.edges)

    def test_full_scale_sizes_match_table3_targets(self):
        """|E| at scale=1 equals the preset target; |V| is in range."""
        d = load_preset("wikivote_lite")
        p = PRESETS["wikivote_lite"]
        assert len(d.edges) == p.n_edges
        n_v = len(set(d.edges["src"]) | set(d.edges["dst"]))
        assert 0.4 * (p.n_src + p.n_dst) <= n_v <= 1.1 * (p.n_src + p.n_dst) + 10

    def test_grab_ladder_is_increasing(self):
        sizes = [PRESETS[f"grab{i}_lite"].n_edges for i in range(1, 5)]
        assert sizes == sorted(sizes)
        assert sizes[-1] / sizes[0] == pytest.approx(2.5)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            load_preset("grab99")


class TestFraudLabels:
    def test_labels_consistent(self, small_presets):
        """``is_fraud`` holds exactly on the planted blocks' edges."""
        for d in small_presets.values():
            assert (d.edges["is_fraud"] == (d.edges["block"] >= 0)).all(), d.name

    def test_fraud_aggregation_matches_duckdb(self, spark, small_presets):
        tx = small_presets["grab1_lite"].to_spark(spark)
        got = tx.groupBy("is_fraud").agg(
            F.count(F.lit(1)).alias("n"),
            F.round(F.sum("amount"), 2).alias("total"),
        )
        assert_equivalent(
            got,
            "SELECT is_fraud, COUNT(*) AS n, ROUND(SUM(amount), 2) AS total "
            "FROM tx GROUP BY is_fraud",
            tx=tx,
        )
