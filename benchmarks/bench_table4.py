"""Benchmarks behind Table 4: static peel vs incremental maintenance.

SF~0.1 of the lite presets keeps each measurement in the hundreds of
milliseconds; the full Table 4 sweep is ``jobs/table4_incremental.py``.
"""
import itertools

import pytest

from repro.core import SpadeEngine, metric_by_name
from repro.core.peel import peel
from repro.datasets import edge_rows, load_preset

SCALE = 0.1


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=SCALE)


@pytest.fixture(scope="module")
def loaded_engines(data):
    """One pre-loaded engine per metric, shared across benchmarks."""
    out = {}
    for m in ("DG", "DW", "FD"):
        eng = SpadeEngine(metric_by_name(m))
        eng.bulk_load(edge_rows(data.initial), priors=data.priors)
        out[m] = eng
    return out


@pytest.mark.parametrize("metric", ["DG", "DW", "FD"])
def test_bench_static_peel(data, loaded_engines, metric, benchmark):
    """The paper's static baseline: one from-scratch detection."""
    n, adj, a = loaded_engines[metric].snapshot_graph()
    benchmark(peel, n, adj, a)


@pytest.mark.parametrize("metric", ["DG", "DW"])
def test_bench_insert_edge(data, loaded_engines, metric, benchmark):
    """|ΔE| = 1: single-edge incremental maintenance (engine mutates)."""
    eng = loaded_engines[metric]
    rows = itertools.cycle(edge_rows(data.increments))
    benchmark(lambda: eng.insert_edge(*next(rows)))


@pytest.mark.parametrize("metric", ["DG", "DW", "FD"])
def test_bench_insert_batch_1k(data, loaded_engines, metric, benchmark):
    """|ΔE| = 1K batch reordering (Algorithm 2)."""
    eng = loaded_engines[metric]
    rows = edge_rows(data.increments)
    chunks = itertools.cycle(
        [rows[i : i + 1000] for i in range(0, len(rows), 1000)]
    )
    benchmark.pedantic(
        lambda: eng.insert_batch(next(chunks)), rounds=5, iterations=1
    )
