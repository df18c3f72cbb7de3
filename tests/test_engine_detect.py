"""Incremental Detect and atomic updates.

The engine caches ``f``/``g`` per suffix size and re-accumulates only
the suffixes a reorder rewrote. These tests pin that bookkeeping against a
full recompute on every invalidation path, check that long streams do
not drift from a scratch tail sum of ``Δ``, and check that a rejected
batch leaves every piece of state untouched.
"""
import math

import numpy as np
import pytest

from repro.core import DG, DW, FD, Metric, SpadeEngine, validate_peeling
from repro.core.peel import best_community
from repro.datasets import edge_rows, load_preset
from tests.helpers import assert_engine_valid, engine_state, random_edges


def assert_detect_matches_full(eng: SpadeEngine) -> None:
    """``best_density``, ``S^P`` and every cached suffix density equal a
    full recompute over the maintained sequence.

    The tolerance is the validator's: a stored Δ may sit up to 1e-9 below
    its vertex's true weight (an in-place emission), so ``f`` summed from
    the tail and ``f`` subtracted from ``f_total`` can differ by that much.
    """
    lo, hi = eng._lo, eng._hi
    order = eng._order[lo:hi]
    d = eng._delta[lo:hi]
    i, g = best_community(order, d, eng.f_total)
    f = eng.f_total - np.concatenate(([0.0], np.cumsum(d[:-1])))
    g_all = f / np.arange(hi - lo, 0, -1, dtype=np.float64)
    np.testing.assert_allclose(eng._suffix_densities(), g_all, rtol=1e-9, atol=1e-9)
    assert eng.best_density == pytest.approx(g, rel=1e-9, abs=1e-9)
    assert eng._community == set(map(int, order[i:]))
    assert_engine_valid(eng)


def _spy_spans(eng: SpadeEngine) -> list:
    """Record the slot span each ``_reorder`` call reports."""
    spans = []
    reorder = eng._reorder

    def spy(black):
        spans.append(reorder(black))
        return spans[-1]

    eng._reorder = spy
    return spans


def _loaded(metric=DW, seed=1) -> SpadeEngine:
    eng = SpadeEngine(metric, vertex_prior=0.2)
    eng.bulk_load(random_edges(seed, n=8, m=20, continuous=True))
    return eng


class TestSpanBookkeeping:
    def test_batch_forcing_front_gap_regrow(self):
        eng = _loaded()
        backing, gap = len(eng._order), eng._lo
        batch = [(f"n{i}", f"v{i % 8}", 0.3 + i / 100) for i in range(gap + 5)]
        eng.insert_batch(batch)
        assert len(eng._order) > backing, "the front gap did not regrow"
        assert_detect_matches_full(eng)

    def test_in_place_emission_is_outside_the_span(self):
        """u peeled first, v last: v's weight at its slot excludes u, so v
        is emitted in place and its slot stays out of the rewritten span."""
        eng = _loaded()
        u, v = eng.order_external()[0], eng.order_external()[-1]
        slot_v = eng._pos[eng._vid_of[v]]
        spans = _spy_spans(eng)
        eng.insert_edge(u, v, 0.05)
        first, end = spans[0]
        assert first < end <= slot_v
        assert eng._pos[eng._vid_of[v]] == slot_v
        assert_detect_matches_full(eng)

    @pytest.mark.parametrize("amount", [0.7, 1e-10], ids=["moved", "in-place"])
    def test_head_inserted_new_vertex(self, amount):
        """A new vertex gets a head slot; with a negligible weight it is
        emitted in place, so the reorder reports no span and Detect must
        still cover the new slots."""
        eng = SpadeEngine(DW)
        eng.bulk_load(random_edges(2, n=8, m=20, continuous=True))
        lo = eng._lo
        spans = _spy_spans(eng)
        eng.insert_edge("new1", "new2", amount)
        assert eng._lo == lo - 2
        if amount < 1e-9:
            first, end = spans[0]
            assert first >= end
        assert_detect_matches_full(eng)
        eng.insert_edge("new3", "v1", amount)
        assert_detect_matches_full(eng)

    def test_in_place_new_vertices_rewrite_only_their_slots(self):
        """Two new vertices joined by a negligible edge are emitted in
        place, so Detect is handed their two head slots, not the whole
        sequence."""
        eng = SpadeEngine(DW, vertex_prior=0)
        eng.bulk_load(random_edges(2, n=8, m=20, continuous=True))
        spans = []
        refresh = eng._refresh_detection

        def spy(span):
            spans.append(span)
            return refresh(span)

        eng._refresh_detection = spy
        eng.insert_edge("new1", "new2", 1e-10)
        (first, end), = spans
        assert (first, end) == (eng._lo, eng._lo + 2)
        assert_engine_valid(eng)

    def test_front_gap_regrow_leaves_detect_untouched(self):
        """Detect is indexed by suffix size, so a regrow that moves every
        slot neither reallocates nor rewrites it."""
        eng = _loaded()
        detect = [eng._F, eng._off, eng._bmax, eng._barg]
        before = [x.tobytes() for x in detect]
        g = eng._suffix_densities()
        backing = len(eng._order)
        eng._ensure_front_gap(eng._lo + 1)
        assert len(eng._order) > backing, "the front gap did not regrow"
        after = [eng._F, eng._off, eng._bmax, eng._barg]
        assert all(x is y for x, y in zip(after, detect))
        assert [x.tobytes() for x in after] == before
        np.testing.assert_array_equal(eng._suffix_densities(), g)
        assert_detect_matches_full(eng)

    def test_bulk_load_then_insert_batch(self):
        edges = random_edges(3, n=9, m=40, continuous=True)
        eng = SpadeEngine(FD, vertex_prior=0.3)
        eng.bulk_load(edges[:10])
        eng.insert_batch(edges[10:20])
        assert_detect_matches_full(eng)
        with pytest.raises(ValueError, match="empty engine"):
            eng.bulk_load(edges[20:30])
        assert_detect_matches_full(eng)
        eng.insert_batch(edges[20:30])
        assert_detect_matches_full(eng)
        eng.insert_batch(edges[30:])
        assert_detect_matches_full(eng)

    def test_empty_batch(self):
        eng = _loaded()
        eng.insert_edge("v1", "v2", 3.0)
        assert eng.insert_batch([]) == set()
        assert_detect_matches_full(eng)

    @pytest.mark.parametrize("metric", [DG, DW, FD], ids=lambda m: m.name)
    def test_mixed_stream(self, metric):
        """Singles, batches and new vertices interleaved, checked each step."""
        edges = random_edges(4, n=12, m=60)
        eng = SpadeEngine(metric, vertex_prior=0.1)
        eng.bulk_load(edges[:20])
        for i in range(20, 60, 4):
            eng.insert_edge(*edges[i])
            assert_detect_matches_full(eng)
            eng.insert_batch(edges[i + 1 : i + 4] + [(f"w{i}", "v3", 2.5)])
            assert_detect_matches_full(eng)


class TestAtomicRejection:
    """A rejected batch raises and leaves the engine exactly as it was."""

    @pytest.mark.parametrize(
        "batch, match",
        [
            ([("v1", "v2", 50.0), ("c", "c", 1.0)], "self-loop"),
            ([("v1", "v2", 5.0), ("new", "v4", -2.0)], "> 0"),
            ([("v1", "v2", 5.0), ("new", "v4", math.nan)], "finite"),
            ([("v1", "v2", 5.0), ("new", "v4", math.inf)], "finite"),
            ([("v1", "v2", 5.0), (None, "v4", 1.0)], "None or NaN"),
            ([("v1", "v2", 5.0), ("v3", None, 1.0)], "None or NaN"),
            ([("v1", "v2", 5.0), (math.nan, "v4", 1.0)], "None or NaN"),
            ([("v1", "v2", 5.0), ("v3", np.float64("nan"), 1.0)], "None or NaN"),
            ([(None, None, 1.0)], "None or NaN"),
            ([(math.nan, math.nan, 1.0)], "None or NaN"),
        ],
        ids=["self-loop", "negative", "nan", "inf", "none-src", "none-dst",
             "nan-src", "nan-dst", "none-both", "nan-both"],
    )
    def test_insert_batch(self, batch, match):
        eng = _loaded(DW)
        before = engine_state(eng)
        with pytest.raises(ValueError, match=match):
            eng.insert_batch(batch)
        assert engine_state(eng) == before
        assert_engine_valid(eng)

    @pytest.mark.parametrize("metric", [DG, FD], ids=lambda m: m.name)
    @pytest.mark.parametrize("amount", [math.nan, math.inf])
    def test_nonfinite_amount_rejected_by_every_metric(self, metric, amount):
        eng = _loaded(metric)
        before = engine_state(eng)
        with pytest.raises(ValueError, match="finite"):
            eng.insert_edge("v1", "v2", amount)
        assert engine_state(eng) == before

    @pytest.mark.parametrize("prior", [-1.0, math.nan])
    def test_bad_prior_of_new_vertex(self, prior):
        eng = _loaded(FD)
        before = engine_state(eng)
        with pytest.raises(ValueError, match="vertex suspiciousness"):
            eng.insert_batch([("v1", "v2", 1.0), ("fresh", "v1", 1.0)],
                             priors={"fresh": prior})
        assert engine_state(eng) == before

    @pytest.mark.parametrize("prior", [-1.0, math.nan])
    def test_bad_default_prior(self, prior):
        """A bad default prior fails at construction, not on first use;
        DG and DW ignore the prior, so they accept any value."""
        with pytest.raises(ValueError, match="vertex suspiciousness"):
            SpadeEngine(FD, vertex_prior=prior)
        for metric in (DG, DW):
            eng = SpadeEngine(metric, vertex_prior=prior)
            eng.bulk_load([("a", "b", 4.0)] * 4)
            assert eng.is_benign("x", "y", 1.0)  # w = 0 + 1 < g(S^P) >= 2

    def test_bulk_load(self):
        eng = SpadeEngine(DW, vertex_prior=0.2)
        before = engine_state(eng)
        with pytest.raises(ValueError, match="self-loop"):
            eng.bulk_load([("x", "y", 1.0), ("y", "y", 1.0)])
        assert engine_state(eng) == before
        for bad in (None, math.nan):
            with pytest.raises(ValueError, match="None or NaN"):
                eng.bulk_load([("x", "y", 1.0), ("y", bad, 1.0)])
            assert engine_state(eng) == before
        with pytest.raises(ValueError, match="> 0, got 0.0"):
            eng.bulk_load([("x", "y", 1.0), ("y", "z", 0.0)])  # DW: c = amount = 0
        assert engine_state(eng) == before
        assert_engine_valid(eng)
        # A finite amount whose esusp overflows to c = inf.
        squared = Metric("DW2", vsusp=lambda prior: 0.0, esusp=lambda amount, deg: amount * amount)
        eng = SpadeEngine(squared, vertex_prior=0.2)
        before = engine_state(eng)
        with pytest.raises(ValueError, match="finite and > 0, got inf"):
            eng.bulk_load([("x", "y", 1.0), ("y", "z", 1e200)])
        assert engine_state(eng) == before
        assert_engine_valid(eng)

    def test_grouped_edge_rejected_on_arrival(self):
        """A bad edge never reaches the buffer, so the buffer survives."""
        eng = SpadeEngine(DW)
        eng.bulk_load([("a", "b", 20.0), ("c", "d", 1.0), ("d", "e", 1.0)])
        eng.insert_grouped("c", "e", 0.5)
        with pytest.raises(ValueError, match="> 0"):
            eng.insert_grouped("c", "e", -0.5)  # would classify as benign
        assert eng.buffered_edges == 1
        eng.flush_buffer()
        assert eng.n_edges == 4
        assert_engine_valid(eng)

    def test_batch_weights_use_in_batch_degrees(self):
        """FD weights in one batch see the batch's earlier edges, exactly
        as one-at-a-time insertion does."""
        eng = SpadeEngine(FD)
        eng.bulk_load([])
        eng.insert_batch([("c1", "m", 1.0), ("c2", "m", 1.0), ("m", "c1", 1.0)])
        expected = 1 / math.log(6.0) + 1 / math.log(7.0) + 1 / math.log(6.0)
        assert eng.f_total == pytest.approx(expected)
        assert eng._in_deg[eng._vid_of["m"]] == 2


@pytest.mark.parametrize("metric, limit", [(DW, None), (FD, 1500)], ids=["DW", "FD"])
def test_long_stream_does_not_drift(metric, limit):
    """Single-edge replay of grab1_lite's increments: every 250 edges the
    cached detection equals a scratch argmax on the maintained sequence;
    at the end the sequence is a valid peel and ``f_total`` matches a
    recomputation.

    The scratch ``f(S_j)`` is a long-double tail sum of ``Δ``, not
    ``best_community``'s ``f_total - cumsum(Δ)``: that subtraction loses
    more on a long stream than the engine does, so it would measure its
    own drift."""
    data = load_preset("grab1_lite")
    eng = SpadeEngine(metric)
    eng.bulk_load(edge_rows(data.initial), priors=data.priors)
    rows = edge_rows(data.increments)[:limit]
    for i, (src, dst, amount) in enumerate(rows, 1):
        eng.insert_edge(src, dst, amount)
        if i % 250 == 0 or i == len(rows):
            d = eng.deltas().astype(np.longdouble)
            g = (np.cumsum(d[::-1])[::-1] / np.arange(len(d), 0, -1)).astype(np.float64)
            idx = int(np.argmax(g))
            assert eng.best_density == pytest.approx(g[idx], rel=1e-9, abs=0.0), i
            assert eng.n_vertices - len(eng._community) == idx, i
    n, adj, a = eng.snapshot_graph()
    order = [eng._vid_of[x] for x in eng.order_external()]
    validate_peeling(n, adj, a, order, list(eng.deltas()))
    f_total = math.fsum(a) + 0.5 * math.fsum(c for nbrs in adj for c in nbrs.values())
    assert eng.f_total == pytest.approx(f_total, rel=1e-9)
