"""Block-structured Detect against a full recompute.

The engine keeps ``f(S_j)`` per slot minus a per-block lazy offset, the
gain the block has had since it was last exact, and per block the best
``g`` and earliest best slot as of then (``repro.core.kernel``). With
blocks of 4 slots, small graphs span many blocks, so random streams of
every update kind exercise the offsets, spans widened to whole blocks,
the stale-block rescans of the query, head insertions into partial
blocks and front-gap regrows.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import DG, DW, FD, SpadeEngine
from repro.core.peel import best_community
from tests.helpers import assert_engine_valid

POOL = 10  # vertices v0..v9 of the initial graph


def assert_blocks_match_full(eng: SpadeEngine) -> None:
    """Detect state equals a full recompute over the maintained sequence.

    ``assert_engine_valid`` checks that ``S^P`` is a suffix reaching the
    maximum and that every materialised ``g(S_j)`` is within 1e-9; this
    adds ``best_density`` and ``f(S_j)`` within 1e-9 and the exactness of
    every block without an offset.
    """
    assert_engine_valid(eng)
    lo, hi, B = eng._lo, eng._hi, eng._block
    n = hi - lo
    if n == 0:
        return
    order, d = eng._order[lo:hi], eng._delta[lo:hi]
    _, g = best_community(order, d, eng.f_total)
    assert eng.best_density == pytest.approx(g, rel=1e-9, abs=1e-9)
    f = eng.f_total - np.concatenate(([0.0], np.cumsum(d[:-1])))
    slots = np.arange(lo, hi)
    blocks = (hi - 1 - slots) // B
    F = eng._F[lo:hi] + eng._off[blocks]
    np.testing.assert_allclose(F, f, rtol=1e-9, atol=1e-9)
    for b in range(-(-n // B)):
        if eng._off[b] != 0.0:
            continue
        top = hi - b * B
        bot = max(lo, top - B)
        g_b = eng._F[bot:top] / (hi - np.arange(bot, top))
        assert eng._bmax[b] == g_b.max(), f"block {b} max is stale"
        assert eng._barg[b] == bot + int(np.argmax(g_b)), f"block {b} argmax"


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
