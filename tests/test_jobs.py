"""Smoke tests: each table job produces its rows at tiny scale."""
import json
import sys
from pathlib import Path

import duckdb
import pytest

from repro.datasets import load_preset
from repro.datasets.stats import stats_row

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from jobs import table3_stats, table4_incremental, table5_grouping  # noqa: E402


class TestTable3:
    def test_rows_and_columns(self, spark):
        df = table3_stats.run(spark, scale=0.03, names=["grab1_lite", "amazon_lite"])
        assert len(df) == 2
        for col in ("dataset", "V", "E", "avg_degree", "increments", "paper_V"):
            assert col in df.columns
        assert (df["E"] > 0).all()
        assert (df["V"] > 0).all()
        # avg degree is 2|E|/|V| (paper's Table 3 convention)
        row = df.iloc[0]
        assert row["avg_degree"] == pytest.approx(2 * row["E"] / row["V"], abs=0.01)

    def test_stats_row_matches_duckdb(self, spark):
        data = load_preset("amazon_lite", scale=0.03)
        row = stats_row(spark, data)
        con = duckdb.connect()
        try:
            con.register("e", data.edges)
            want = con.execute(
                """
                SELECT (SELECT COUNT(*) FROM (SELECT src AS v FROM e
                                              UNION SELECT dst FROM e)),
                       COUNT(*), SUM(CAST(is_fraud AS INTEGER))
                FROM e
                """
            ).fetchone()
        finally:
            con.close()
        assert (row["V"], row["E"], row["fraud_edges"]) == want


class TestTable4:
    def test_static_vs_incremental_shape(self):
        df = table4_incremental.run(["grab1_lite"], scale=0.03, max_single=150)
        row = df.iloc[0]
        for m in ("DG", "DW", "FD"):
            assert row[f"{m}_static_s"] > 0
            # Incremental per-edge must beat one static run per edge.
            assert row[f"Inc{m}-1_us"] < row[f"{m}_static_s"] * 1e6
        # Batching reduces (or at least does not blow up) per-edge time.
        assert row["IncDG-10000_us"] <= row["IncDG-1_us"]

    def test_json_appends_rows_and_provenance(self, tmp_path):
        path = tmp_path / "bench.json"
        argv = ["--datasets", "grab1_lite", "--scale", "0.03", "--max-single", "50",
                "--json", str(path)]
        table4_incremental.main(argv)
        table4_incremental.main(argv)
        records = json.loads(path.read_text())
        assert len(records) == 2
        for rec in records:
            assert rec["command"] == ["jobs/table4_incremental.py", *argv]
            assert rec["git_sha"] is None or len(rec["git_sha"]) == 40
            assert isinstance(rec["src_modified"], (bool, type(None)))
            [row] = rec["rows"]
            assert row["dataset"] == "grab1_lite"
            assert row["IncDW-1_us"] > 0 and row["FD_static_s"] > 0
            assert row["IncDW-1_us_iqr"] >= 0  # the spread of the REPEATS runs


class TestTable5:
    def test_metrics_present_and_sane(self):
        df = table5_grouping.run(["grab1_lite"], scale=0.05, batch=100)
        row = df.iloc[0]
        for m in ("DG", "DW", "FD"):
            assert row[f"{m}_static_eps_s"] > 0
            assert row[f"Inc{m}-1K_eps_us"] > 0
            assert 0 <= row[f"Inc{m}-1K_R"] <= 1
            assert 0 <= row[f"Inc{m}G_R"] <= 1
            assert row[f"Inc{m}G_L"] >= 0
            # Edge grouping responds to fraud faster than batching.
            assert row[f"Inc{m}G_L"] <= row[f"Inc{m}-1K_L"] + 1e-9
            assert 0 <= row[f"{m}_urgent_frac"] <= 1

