"""Block-structured Detect against a full recompute.

The engine keeps ``f`` per suffix size minus a per-block lazy offset, the
gain the block has had since it was last exact, and per block the best
``g`` and longest best suffix as of then (``repro.core.kernel``), but only
for the blocks below its window ``D``: no longer suffix can beat the best.
With blocks of 4 suffixes, small graphs span many blocks, so random
streams of every update kind exercise the offsets, spans widened to whole
blocks, the stale-block rescans of the query, a window that grows and
shrinks, head insertions into partial blocks and front-gap regrows.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import DG, DW, FD, SpadeEngine
from tests.helpers import assert_engine_valid, engine_state

POOL = 10  # vertices v0..v9 of the initial graph


def assert_blocks_match_full(eng: SpadeEngine) -> None:
    """Detect state equals a full recompute over the maintained sequence.

    ``assert_engine_valid`` checks that ``S^P`` is a suffix reaching the
    maximum and that every materialised ``g(S_j)`` is within 1e-9; this
    adds, against a long-double tail sum of ``Δ``: ``best_density``;
    ``f`` of every suffix below the window within 1e-9 and the exactness
    of every block there without an offset; and ``g`` strictly below the
    best for every suffix from the window up. Materialising the densities
    writes no state. ``r`` is the suffix of ``r + 1`` vertices ending at
    the tail, and block ``b`` holds the suffixes ``b*B .. b*B + B - 1``.
    """
    assert_engine_valid(eng)
    lo, hi, B, D = eng._lo, eng._hi, eng._block, eng._ctx.D
    n = hi - lo
    if n == 0:
        return
    d = eng._delta[lo:hi].astype(np.longdouble)
    f = np.cumsum(d[::-1])  # by suffix
    g = f / np.arange(1, n + 1)
    assert eng.best_density == pytest.approx(float(g.max()), rel=1e-9, abs=1e-9)
    assert (len(eng._community) - 1) // B < D <= -(-n // B), "the winner is outside the window"
    assert np.all(g[D * B :] < g.max()), "a suffix beyond the window reaches the best"
    kept = min(D * B, n)
    r = np.arange(kept)
    F = eng._F[:kept] + eng._off[r // B]
    np.testing.assert_allclose(F, f[:kept].astype(np.float64), rtol=1e-9, atol=1e-9)
    before = engine_state(eng)
    G = eng._suffix_densities()[::-1]  # by suffix
    assert engine_state(eng) == before, "materialising the densities wrote state"
    for b in range(D):
        if eng._off[b] != 0.0:
            continue
        g_b = G[b * B : (b + 1) * B]
        assert eng._bmax[b] == g_b.max(), f"block {b} max is stale"
        longest = len(g_b) - 1 - int(np.argmax(g_b[::-1]))
        assert eng._barg[b] == b * B + longest, f"block {b} argmax"


def k4(p):
    return [(f"{p}{i}", f"{p}{j}", 1.0) for i in range(4) for j in range(i + 1, 4)]


@pytest.mark.parametrize("metric, initial, later, windows", [
    # a regrowing window: the heavy triangle wins at first, then the path
    # outweighs it and the window grows to the path's block
    (DW, [("a0", "a1", 10.0), ("a1", "a2", 10.0), ("a0", "a2", 10.0), ("a0", "p0", 1.0)]
     + [(f"p{i}", f"p{i + 1}", 1.0) for i in range(11)],
     [(f"p{i}", f"p{i + 1}", 50.0) for i in range(11)], (1, 3)),
    # the bound excludes nothing: the whole cycle is densest, before and
    # after a chord, so every block stays
    (DG, [(f"c{i}", f"c{(i + 1) % 13}", 1.0) for i in range(13)], [("c0", "c6", 1.0)], (4, 4)),
    # a DG tie across the window's edge: one K4 and both K4s have g = 1.5,
    # and the bound beyond block 0, 12 / 5, reaches it, so block 1 joins
    # and both K4s win; a bridge then makes the whole graph densest
    (DG, k4("x") + k4("y"), [("x0", "y0", 1.0)], (2, 2)),
], ids=["regrow", "nothing-excluded", "tie-at-edge"])
def test_window_cases(metric, initial, later, windows):
    """The window ``D`` after a load and after later single edges, with
    blocks of 4 suffixes, and the block state exact below it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "BLOCK", 4)
        eng = SpadeEngine(metric)
    eng.bulk_load(initial)
    assert_blocks_match_full(eng)
    assert eng._ctx.D == windows[0]
    for e in later:
        eng.insert_edge(*e)
        assert_blocks_match_full(eng)
    assert eng._ctx.D == windows[1]
    assert len(eng._community) > (windows[1] - 1) * 4


amounts = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 20.0))


@st.composite
def edges(draw, n_new=0, max_size=6):
    """Edges over the initial pool plus ``n_new`` fresh vertices."""
    names = [f"v{k}" for k in range(POOL)] + [f"new{k}" for k in range(n_new)]
    out = []
    for _ in range(draw(st.integers(1, max_size))):
        u, v = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if u == v:
            v = f"v{(int(u[1:]) + 1) % POOL}" if u.startswith("v") else "v0"
        out.append((u, v, draw(amounts)))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_detect_matches_full_recompute(data):
    metric = data.draw(st.sampled_from([DG, DW, FD]), label="metric")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "BLOCK", 4)
        eng = SpadeEngine(metric, vertex_prior=0.2)
    eng.bulk_load(data.draw(edges(max_size=30), label="initial"))
    assert_blocks_match_full(eng)
    fresh = 0  # new-vertex names used so far, so each step's are unseen

    def renamed(batch):
        nonlocal fresh
        names = {}
        for u, v, _ in batch:
            for x in (u, v):
                if x.startswith("new") and x not in names:
                    names[x] = f"n{fresh}"
                    fresh += 1
        return [(names.get(u, u), names.get(v, v), c) for u, v, c in batch]

    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        kind = data.draw(st.sampled_from(
            ["edge", "batch", "grouped", "reject", "regrow"]), label="kind")
        if kind == "edge":
            eng.insert_edge(*renamed(data.draw(edges(n_new=2, max_size=1)))[0])
        elif kind == "batch":
            eng.insert_batch(renamed(data.draw(edges(n_new=3))))
        elif kind == "grouped":
            cap = data.draw(st.sampled_from([None, 2]))
            for e in renamed(data.draw(edges(n_new=2))):
                eng.insert_grouped(*e, max_buffer=cap)
            if data.draw(st.booleans()):
                eng.flush_buffer()
        elif kind == "reject":
            bad = data.draw(st.sampled_from([("v1", "v1", 1.0), ("v1", "v2", math.nan),
                                             (None, "v2", 1.0)]))
            with pytest.raises(ValueError):
                eng.insert_batch(renamed(data.draw(edges(n_new=2))) + [bad])
        elif kind == "regrow":
            m = eng._lo + data.draw(st.integers(1, 5))
            batch = [(f"n{fresh + k}", f"v{k % POOL}", 0.3 + k / 100) for k in range(m)]
            fresh += m
            backing = len(eng._order)
            eng.insert_batch(batch)
            assert len(eng._order) > backing, "the front gap did not regrow"
        assert_blocks_match_full(eng)
    eng.flush_buffer()
    assert_blocks_match_full(eng)
