"""Latency / prevention discrete-event simulator (Eq. 4, ℛ)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import DG, SpadeEngine
from repro.core.sim import prevention_ratio, simulate_flushes, simulate_static
from repro.spark.streaming import replay, replay_grouped

# A one-way 6-clique: g(S*) = 15/6. A fresh-pair edge weighs 0 + 1 < 2.5
# at both ends (benign); an edge into the clique is urgent.
_CLIQUE = [(f"b{i}", f"b{j}", 1.0) for i in range(6) for j in range(i + 1, 6)]


def _stream(arrivals, urgent) -> pd.DataFrame:
    rows = [
        (f"u{i}", "b0") if u else (f"x{i}", f"y{i}")
        for i, u in enumerate(urgent)
    ]
    return pd.DataFrame(
        {"src": [r[0] for r in rows], "dst": [r[1] for r in rows],
         "amount": 1.0, "ts": np.asarray(arrivals, dtype=np.float64)}
    )


def _engine() -> SpadeEngine:
    eng = SpadeEngine(DG)
    eng.bulk_load(_CLIQUE)
    return eng


def _grouped(arrivals, urgent, proc_time, max_buffer=None):
    """Simulate the flushes ``replay_grouped`` made over the stream."""
    res, flags = replay_grouped(_engine(), _stream(arrivals, urgent), max_buffer)
    assert flags.tolist() == list(urgent)
    return simulate_flushes(arrivals, [d.n_edges for d in res.detections], proc_time)


def _batched(arrivals, batch_size, proc_time):
    """Simulate the fixed-size batches ``replay`` made over the stream."""
    res = replay(_engine(), _stream(arrivals, [False] * len(arrivals)), batch_size)
    return simulate_flushes(arrivals, [d.n_edges for d in res.detections], proc_time)


class TestStatic:
    def test_edge_waits_for_next_run(self):
        # Runs of length 10 start at 0,10,20...; edge at t=3 is seen by
        # the run starting at 10 and responded to at 20.
        r = simulate_static([3.0], static_time=10.0)
        assert r.response[0] == pytest.approx(20.0)
        assert r.latency[0] == pytest.approx(17.0)

    def test_edge_on_boundary(self):
        r = simulate_static([10.0], static_time=10.0)
        assert r.response[0] == pytest.approx(20.0)

    def test_mean_latency_about_1_5x_period(self):
        # Uniform arrivals: queueing averages p/2, plus the run itself.
        t = np.linspace(0.01, 1000.0, 5000)
        r = simulate_static(t, static_time=10.0)
        assert r.mean_latency == pytest.approx(15.0, rel=0.05)

    def test_total_latency_is_sum(self):
        r = simulate_static([1.0, 2.0], static_time=5.0)
        assert r.total_latency == pytest.approx(r.latency.sum())


class TestBatch:
    def test_batch_responds_at_last_arrival_plus_proc(self):
        r = _batched([1.0, 2.0, 7.0], batch_size=3, proc_time=lambda b: 0.5)
        assert list(r.response) == pytest.approx([7.5] * 3)
        assert r.latency[0] == pytest.approx(6.5)

    def test_partial_trailing_batch_flushes_at_end(self):
        r = _batched([1.0, 2.0, 3.0, 10.0], batch_size=3, proc_time=lambda b: 1.0)
        assert list(r.response[:3]) == pytest.approx([4.0] * 3)
        assert r.response[3] == pytest.approx(11.0)

    def test_larger_batches_increase_queueing(self):
        t = np.arange(1.0, 1001.0)
        small = simulate_flushes(t, [10] * 100, lambda b: 0.0).mean_latency
        large = simulate_flushes(t, [500] * 2, lambda b: 0.0).mean_latency
        assert large > small


class TestGrouping:
    def test_urgent_edge_flushes_immediately(self):
        urgent = [False, False, True]
        r = _grouped([1.0, 2.0, 3.0], urgent, proc_time=lambda b: 0.1)
        assert list(r.response) == pytest.approx([3.1] * 3)

    def test_urgent_latency_is_processing_only(self):
        urgent = [False, True, False, True]
        r = _grouped([1.0, 5.0, 6.0, 9.0], urgent, proc_time=lambda b: 0.2)
        assert r.latency[1] == pytest.approx(0.2)
        assert r.latency[3] == pytest.approx(0.2)

    def test_benign_tail_flushes_at_stream_end(self):
        r = _grouped([1.0, 2.0], [False, False], proc_time=lambda b: 0.3)
        assert list(r.response) == pytest.approx([2.3, 2.3])

    def test_max_buffer_cap(self):
        urgent = [False] * 4
        r = _grouped([1.0, 2.0, 3.0, 4.0], urgent, proc_time=lambda b: 0.0, max_buffer=2)
        assert list(r.response) == pytest.approx([2.0, 2.0, 4.0, 4.0])

    def test_grouping_beats_batch_for_urgent_edges(self):
        """The §4.3 claim: fraud (urgent) edges respond much faster."""
        t = np.arange(0.0, 100.0, 0.1)
        urgent = np.zeros(len(t), dtype=bool)
        urgent[::50] = True  # sparse fraud
        g = _grouped(t, urgent, proc_time=lambda b: 0.01)
        b = _batched(t, 500, proc_time=lambda b: 0.01)
        assert g.latency[urgent].mean() < b.latency[urgent].mean() / 10


class TestPrevention:
    def test_all_after_detection_prevented(self):
        assert prevention_ratio([1.0, 2.0, 3.0, 4.0], 0.5) == 1.0

    def test_none_prevented_when_detected_late(self):
        assert prevention_ratio([1.0, 2.0], 10.0) == 0.0

    def test_partial(self):
        assert prevention_ratio([1.0, 2.0, 3.0, 4.0], 2.5) == 0.5

    def test_never_detected(self):
        assert prevention_ratio([1.0], None) == 0.0
        assert prevention_ratio([1.0], float("inf")) == 0.0

    def test_empty_stream(self):
        assert prevention_ratio([], 1.0) == 0.0
