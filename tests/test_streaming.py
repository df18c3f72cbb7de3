"""Structured Streaming micro-batch ingestion and the replay harness."""
import pytest

from repro.core import DW, SpadeEngine
from repro.datasets import edge_rows, load_preset
from repro.spark.streaming import (
    replay,
    replay_grouped,
    run_stream,
    write_increment_files,
)
from tests.helpers import assert_engine_valid


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=0.03)


def _fresh_engine(data):
    eng = SpadeEngine(DW)
    eng.bulk_load(edge_rows(data.initial), priors=data.priors)
    return eng


class TestFiles:
    def test_write_increment_files_partitions_in_order(self, data, tmp_path):
        paths = write_increment_files(data.increments, str(tmp_path), 5)
        assert len(paths) == 5
        assert [p.name for p in paths] == sorted(p.name for p in paths)
        import pandas as pd

        total = sum(len(pd.read_parquet(p)) for p in paths)
        assert total == len(data.increments)


class TestStructuredStreaming:
    def test_stream_matches_replay_and_scratch(self, spark, data, tmp_path):
        n_files = 4
        write_increment_files(data.increments, str(tmp_path / "in"), n_files)

        eng_stream = _fresh_engine(data)
        result = run_stream(
            spark, eng_stream, str(tmp_path / "in"), str(tmp_path / "ckpt")
        )
        assert len(result.detections) == n_files
        assert [d.batch_id for d in result.detections] == sorted(
            d.batch_id for d in result.detections
        )
        assert result.total_edges == len(data.increments)

        # Same batches as the in-process replay (the increments have
        # unique timestamps, so equal-size batches match the files)...
        assert len(data.increments) % n_files == 0
        eng_replay = _fresh_engine(data)
        replayed = replay(
            eng_replay, data.increments, batch_size=len(data.increments) // n_files
        )
        assert len(replayed.detections) == n_files
        for got, want in zip(result.detections, replayed.detections):
            assert got.n_edges == want.n_edges
            assert got.last_ts == want.last_ts
            assert got.new_fraudsters == want.new_fraudsters
            assert got.density == want.density
        assert eng_stream.n_edges == eng_replay.n_edges
        assert eng_stream.f_total == pytest.approx(eng_replay.f_total)

        # ...and as a from-scratch build over the full edge log.
        eng_scratch = SpadeEngine(DW)
        eng_scratch.bulk_load(edge_rows(data.edges), priors=data.priors)
        assert eng_stream.best_density == pytest.approx(eng_scratch.best_density)
        assert eng_stream.community_external() == eng_scratch.community_external()
        assert_engine_valid(eng_stream)


class TestReplay:
    def test_replay_covers_all_edges(self, data):
        eng = _fresh_engine(data)
        res = replay(eng, data.increments, batch_size=97)
        assert res.total_edges == len(data.increments)
        assert res.per_edge_us > 0
        assert res.total_elapsed_s > 0

    def test_replay_batches_have_monotone_timestamps(self, data):
        eng = _fresh_engine(data)
        res = replay(eng, data.increments, batch_size=200)
        ts = [d.last_ts for d in res.detections]
        assert ts == sorted(ts)

    def test_replay_grouped_flags_and_flushes(self, data):
        eng = _fresh_engine(data)
        res, urgent = replay_grouped(eng, data.increments, max_buffer=500)
        assert len(urgent) == len(data.increments)
        assert res.total_edges == len(data.increments)
        assert eng.buffered_edges == 0
        assert_engine_valid(eng)
