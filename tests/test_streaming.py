"""Structured Streaming micro-batch ingestion and the replay harness."""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import StreamingQueryException

from repro.core import DW, FD, SpadeEngine
from repro.datasets import edge_rows, load_preset
from repro.spark.streaming import (
    CHECKPOINT_MANAGER_KEY,
    FS_CHECKPOINT_MANAGER,
    ReplayResult,
    replay,
    replay_grouped,
    run_stream,
    write_increment_files,
)
from tests.helpers import assert_engine_valid, edge_weight_map


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=0.03)


def _fresh_engine(data, metric=DW):
    eng = SpadeEngine(metric)
    eng.bulk_load(edge_rows(data.initial), priors=data.priors)
    return eng


def _assert_same_batches(streamed, replayed):
    for got, want in zip(streamed.detections, replayed.detections, strict=True):
        assert got.n_edges == want.n_edges
        assert got.last_ts == want.last_ts
        assert got.new_fraudsters == want.new_fraudsters
        assert got.density == want.density


class TestFiles:
    def test_write_increment_files_partitions_in_order(self, data, tmp_path):
        paths = write_increment_files(data.increments, str(tmp_path), 5)
        assert len(paths) == 5
        assert [p.name for p in paths] == sorted(p.name for p in paths)
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
        assert all(d.collect_s > 0 for d in result.detections)

        # Same batches as the in-process replay (the increments have
        # unique timestamps, so equal-size batches match the files)...
        assert len(data.increments) % n_files == 0
        eng_replay = _fresh_engine(data)
        replayed = replay(
            eng_replay, data.increments, batch_size=len(data.increments) // n_files
        )
        assert len(replayed.detections) == n_files
        _assert_same_batches(result, replayed)
        assert eng_stream.n_edges == eng_replay.n_edges
        assert eng_stream.f_total == pytest.approx(eng_replay.f_total)

        # ...and as a from-scratch build over the full edge log.
        eng_scratch = SpadeEngine(DW)
        eng_scratch.bulk_load(edge_rows(data.edges), priors=data.priors)
        assert eng_stream.best_density == pytest.approx(eng_scratch.best_density)
        assert eng_stream.community_external() == eng_scratch.community_external()
        assert_engine_valid(eng_stream)

    def test_rows_out_of_order_within_a_file(self, spark, data, tmp_path):
        """Only the driver-side sort orders a micro-batch. Under FD an
        edge's weight depends on its object's in-degree when it arrives,
        so any ordering error changes the weights. One tied pair shares
        its object and must keep file order, as ``replay``'s mergesort
        does."""
        n_files = 4
        inc = data.increments.sort_values("ts", kind="mergesort").reset_index(drop=True)
        assert len(inc) % n_files == 0
        size = len(inc) // n_files
        assert inc.at[1, "src"] not in (inc.at[0, "src"], inc.at[0, "dst"])
        inc.at[1, "dst"], inc.at[1, "ts"] = inc.at[0, "dst"], inc.at[0, "ts"]
        rng = np.random.default_rng(0)
        (tmp_path / "in").mkdir()
        files = []
        for i in range(n_files):
            chunk = inc.iloc[i * size : (i + 1) * size]
            files.append(chunk.iloc[rng.permutation(size)])
            assert not files[-1]["ts"].is_monotonic_increasing
            files[-1].to_parquet(tmp_path / "in" / f"batch-{i:06d}.parquet", index=False)
        first = files[0].index.tolist()
        assert first.index(1) < first.index(0)  # the tie is out of id order

        eng_stream = _fresh_engine(data, FD)
        result = run_stream(
            spark, eng_stream, str(tmp_path / "in"), str(tmp_path / "ckpt")
        )
        eng_replay = _fresh_engine(data, FD)
        replayed = replay(eng_replay, pd.concat(files), batch_size=size)
        assert len(result.detections) == len(replayed.detections) == n_files
        _assert_same_batches(result, replayed)
        assert edge_weight_map(eng_stream) == edge_weight_map(eng_replay)
        assert_engine_valid(eng_stream)


FC_CHECKPOINT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing."
    "FileContextBasedCheckpointFileManager"
)


def _log_managers(spark):
    """Checkpoint file manager classes of the active query's offsets WAL,
    commit log and file-source log, read through py4j (the source's log
    is a private field, so it is read by reflection)."""
    (query,) = spark.streams.active
    execution = query._jsq.streamingQuery()
    source = execution.sources().head()
    field = source.getClass().getDeclaredField("metadataLog")
    field.setAccessible(True)
    logs = (execution.offsetLog(), execution.commitLog(), field.get(source))
    return {log.fileManager().getClass().getName() for log in logs}


class TestCheckpointManager:
    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "raises"])
    @pytest.mark.parametrize("preset", [None, FC_CHECKPOINT_MANAGER], ids=["unset", "set"])
    def test_manager_in_effect_while_batches_run_and_restored(
        self, spark, data, tmp_path, preset, fail
    ):
        """Unless the session names a manager, every log of the query is
        written through the FileSystem manager while batches run; either
        way the session's value afterwards is the one it had before, also
        when the handler raises."""
        write_increment_files(data.increments, str(tmp_path / "in"), 4)
        eng = _fresh_engine(data)
        insert_batch = eng.insert_batch
        seen = []

        def spy(rows):
            seen.append((spark.conf.get(CHECKPOINT_MANAGER_KEY, None), _log_managers(spark)))
            if fail:
                raise RuntimeError("handler fails")
            return insert_batch(rows)

        eng.insert_batch = spy
        if preset is not None:
            spark.conf.set(CHECKPOINT_MANAGER_KEY, preset)
        try:
            if fail:
                with pytest.raises(StreamingQueryException):
                    run_stream(spark, eng, str(tmp_path / "in"), str(tmp_path / "ckpt"))
            else:
                run_stream(spark, eng, str(tmp_path / "in"), str(tmp_path / "ckpt"))
            assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) == preset
        finally:
            spark.conf.unset(CHECKPOINT_MANAGER_KEY)
        want = preset or FS_CHECKPOINT_MANAGER
        assert seen == [(want, {want})] * (1 if fail else 4)


class TestRedelivery:
    def test_restart_redelivers_the_uncommitted_batch(self, spark, data, tmp_path):
        """A handler failure in batch 2 leaves it in the offsets WAL but
        not in the commit log, so a second ``run_stream`` on the same
        checkpoint, under the FileSystem manager, delivers exactly batches
        2 and 3, and the engine, which kept its state across the failure,
        ends equal to an uninterrupted run's. A restart that rebuilds the
        engine from a snapshot is still ROADMAP item 2."""
        write_increment_files(data.increments, str(tmp_path / "in"), 4)
        eng = _fresh_engine(data)
        insert_batch = eng.insert_batch
        calls = []

        def fail_third(rows):
            calls.append(len(rows))
            if len(calls) == 3:
                raise RuntimeError("driver dies before batch 2 applies")
            return insert_batch(rows)

        eng.insert_batch = fail_third
        with pytest.raises(StreamingQueryException):
            run_stream(spark, eng, str(tmp_path / "in"), str(tmp_path / "ckpt"))
        assert len(calls) == 3
        del eng.insert_batch
        resumed = run_stream(spark, eng, str(tmp_path / "in"), str(tmp_path / "ckpt"))
        assert [d.batch_id for d in resumed.detections] == [2, 3]

        eng_full = _fresh_engine(data)
        full = run_stream(spark, eng_full, str(tmp_path / "in"), str(tmp_path / "ckpt-full"))
        assert [d.batch_id for d in full.detections] == [0, 1, 2, 3]
        _assert_same_batches(resumed, ReplayResult(full.detections[2:]))
        assert eng.order_external() == eng_full.order_external()
        assert eng.deltas().tolist() == eng_full.deltas().tolist()
        assert eng.f_total == eng_full.f_total
        assert eng.n_edges == eng_full.n_edges
        assert eng.best_density == eng_full.best_density
        assert_engine_valid(eng)


class TestReplay:
    def test_replay_covers_all_edges(self, data):
        eng = _fresh_engine(data)
        res = replay(eng, data.increments, batch_size=97)
        assert res.total_edges == len(data.increments)
        assert res.per_edge_us > 0
        assert res.total_elapsed_s > 0
        assert all(d.collect_s == 0.0 for d in res.detections)

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
        assert all(d.collect_s == 0.0 for d in res.detections)
        assert_engine_valid(eng)
