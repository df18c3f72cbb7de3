"""Benchmarks behind Table 5: edge grouping vs batch replay."""
import itertools

import pytest

from repro.core import SpadeEngine, metric_by_name
from repro.datasets import edge_rows, load_preset

SCALE = 0.1


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=SCALE)


def _engine(data, metric):
    eng = SpadeEngine(metric_by_name(metric))
    eng.bulk_load(edge_rows(data.initial), priors=data.priors)
    return eng


@pytest.mark.parametrize("metric", ["DG", "DW"])
def test_bench_is_benign_classification(data, metric, benchmark):
    """Definition 4.1 is an O(1) check — the cheap half of edge grouping."""
    eng = _engine(data, metric)
    rows = itertools.cycle(edge_rows(data.increments))
    benchmark(lambda: eng.is_benign(*next(rows)))


@pytest.mark.parametrize("metric", ["DG", "DW"])
def test_bench_grouped_insert(data, metric, benchmark):
    """Grouped insertion: benign edges buffer, urgent edges flush."""
    eng = _engine(data, metric)
    rows = itertools.cycle(edge_rows(data.increments))
    benchmark(lambda: eng.insert_grouped(*next(rows), max_buffer=1000))
