"""Evolving-graph ingestion: Structured Streaming micro-batches + replay.

Three drivers feed graph updates into a :class:`SpadeEngine`, and every
applied batch goes through one apply-and-record path (``_apply`` times
``engine.insert_batch``; ``_record`` appends the :class:`BatchDetection`):

* :func:`run_stream` — the production-shaped path: the increment log is
  laid out as one parquet file per micro-batch, a file-source stream
  reads it with ``maxFilesPerTrigger=1`` under ``Trigger.AvailableNow``,
  and ``foreachBatch`` ships each micro-batch to the driver through
  Arrow (``builder.collect_edges``), sorts it by timestamp there — tied
  timestamps keep file order — and applies it to the driver-resident
  engine. Deterministic: same files, same batches, same end state.

* :func:`replay` — the measurement path used by the Table 4/5
  harnesses: an in-process timestamp-ordered replay in fixed-size
  batches, free of streaming-source overhead (the paper times the
  engine, not the transport).

* :func:`replay_grouped` — the edge-grouping replay (§4.3): each edge
  goes through ``insert_grouped`` and every buffer flush is recorded.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Set

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.engine import SpadeEngine
from repro.datasets import edge_rows
from repro.spark.builder import collect_edges

STREAM_SCHEMA = (
    "src LONG, dst LONG, amount DOUBLE, ts DOUBLE, is_fraud BOOLEAN, block LONG"
)


@dataclass
class BatchDetection:
    """Outcome of applying one micro-batch/batch to the engine.

    ``elapsed_s`` is engine time only. ``collect_s`` is the time a
    streamed micro-batch took to reach the engine as rows (Spark job,
    Arrow transfer, driver sort, row build); 0 for the replays.
    """

    batch_id: int
    n_edges: int
    elapsed_s: float
    new_fraudsters: Set
    density: float
    last_ts: float
    collect_s: float = 0.0


@dataclass
class ReplayResult:
    """Timing + detections of a full increment replay."""

    detections: List[BatchDetection] = field(default_factory=list)

    @property
    def total_edges(self) -> int:
        return sum(d.n_edges for d in self.detections)

    @property
    def total_elapsed_s(self) -> float:
        return sum(d.elapsed_s for d in self.detections)

    @property
    def per_edge_us(self) -> float:
        """Average elapsed time per inserted edge, in microseconds."""
        e = self.total_edges
        return 1e6 * self.total_elapsed_s / e if e else 0.0


def _record(
    result: ReplayResult,
    engine: SpadeEngine,
    n_edges: int,
    elapsed_s: float,
    fresh: Set,
    last_ts: float,
    batch_id: Optional[int] = None,
    collect_s: float = 0.0,
) -> None:
    """Append the detection after one applied batch.

    ``batch_id`` defaults to the batch's position in ``result``.
    """
    result.detections.append(
        BatchDetection(
            batch_id=len(result.detections) if batch_id is None else int(batch_id),
            n_edges=n_edges,
            elapsed_s=elapsed_s,
            new_fraudsters=fresh,
            density=engine.best_density,
            last_ts=float(last_ts),
            collect_s=collect_s,
        )
    )


def _apply(
    result: ReplayResult,
    engine: SpadeEngine,
    rows: list,
    last_ts: float,
    batch_id: Optional[int] = None,
    collect_s: float = 0.0,
) -> None:
    """Insert ``rows`` as one timed batch and record its detection."""
    t0 = time.perf_counter()
    fresh = engine.insert_batch(rows)
    elapsed_s = time.perf_counter() - t0
    _record(result, engine, len(rows), elapsed_s, fresh, last_ts, batch_id, collect_s)


def write_increment_files(
    increments: pd.DataFrame, directory: str, n_files: int
) -> List[Path]:
    """Split the increment log into ``n_files`` timestamp-ordered parquets.

    File names are zero-padded so the file stream lists them in order.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    inc = increments.sort_values("ts", kind="mergesort").reset_index(drop=True)
    paths: List[Path] = []
    for i, chunk in enumerate(np.array_split(np.arange(len(inc)), n_files)):
        if len(chunk) == 0:
            continue
        p = out / f"batch-{i:06d}.parquet"
        inc.iloc[chunk].to_parquet(p, index=False)
        paths.append(p)
    return paths


def run_stream(
    spark: SparkSession,
    engine: SpadeEngine,
    directory: str,
    checkpoint_dir: str,
) -> ReplayResult:
    """Drive the engine from a Structured Streaming file source.

    Processes every already-written file (``Trigger.AvailableNow``) one
    file per micro-batch, applying each to ``engine`` inside
    ``foreachBatch`` and collecting per-batch detections. Each
    micro-batch reaches the driver through Arrow unsorted and is sorted
    by ``ts`` there; tied timestamps keep their order in the file.
    """
    result = ReplayResult()

    def handle(batch_df, batch_id: int) -> None:
        t0 = time.perf_counter()
        rows, cols = collect_edges(batch_df)
        if not rows:
            return
        _apply(result, engine, rows, cols["ts"][-1], batch_id, time.perf_counter() - t0)

    stream = (
        spark.readStream.schema(STREAM_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(directory)
    )
    query = (
        stream.writeStream.foreachBatch(handle)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination()
    result.detections.sort(key=lambda d: d.batch_id)
    return result


def replay(
    engine: SpadeEngine,
    increments: pd.DataFrame,
    batch_size: int,
) -> ReplayResult:
    """Timestamp-ordered in-process replay with per-batch timing."""
    inc = increments.sort_values("ts", kind="mergesort")
    rows = edge_rows(inc)
    ts = inc["ts"].to_numpy()
    result = ReplayResult()
    for s in range(0, len(rows), batch_size):
        chunk = rows[s : s + batch_size]
        _apply(result, engine, chunk, ts[s + len(chunk) - 1])
    return result


def replay_grouped(
    engine: SpadeEngine,
    increments: pd.DataFrame,
    max_buffer: Optional[int] = None,
) -> tuple:
    """Edge-grouping replay: returns (ReplayResult, urgent-flag array).

    Each urgent edge (Definition 4.1) flushes the benign buffer through
    one batch reorder; benign edges cost only the O(1) classification.
    The per-"batch" detection entries correspond to flushes. The urgent
    flag is computed outside the timed region, so each edge's
    classification is timed once, inside ``insert_grouped``.
    """
    inc = increments.sort_values("ts", kind="mergesort")
    rows = edge_rows(inc)
    ts = inc["ts"].to_numpy()
    result = ReplayResult()
    urgent = np.zeros(len(rows), dtype=bool)
    pending_since = 0
    acc_dt = 0.0  # classification + buffering cost since the last flush
    for i, (src, dst, amount) in enumerate(rows):
        urgent[i] = not engine.is_benign(src, dst, amount)
        t0 = time.perf_counter()
        fresh = engine.insert_grouped(src, dst, amount, max_buffer=max_buffer)
        acc_dt += time.perf_counter() - t0
        # A benign edge always lands in the buffer, so an empty buffer
        # after the call means this step flushed (urgent or cap hit).
        if engine.buffered_edges == 0:
            _record(result, engine, i - pending_since + 1, acc_dt, fresh, ts[i])
            pending_since = i + 1
            acc_dt = 0.0
    if engine.buffered_edges:
        t0 = time.perf_counter()
        fresh = engine.flush_buffer()
        acc_dt += time.perf_counter() - t0
        last_ts = ts[-1] if len(ts) else 0.0
        _record(result, engine, len(rows) - pending_since, acc_dt, fresh, last_ts)
    return result, urgent
