"""The kernel's reorder walk against the Python reorder it replaced.

:class:`~tests.helpers.DictReorderEngine` runs the loop the kernel's
``walk``/``relax`` took over, on dicts read from ``snapshot_graph()``,
with a gray set and a ``heapq`` of gray slots. Driven through the same
updates under DG, DW and FD, both engines must hold the same sequence,
the same ``Δ`` and the same community density, to the bit, after every
step.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DG, DW, FD, SpadeEngine
from tests.helpers import DictReorderEngine, assert_engine_valid

POOL = 8  # vertices v0..v7 of the initial graph

#: Many repeats, so parallel edges and tied weights are common.
amounts = st.one_of(st.sampled_from([0.1, 0.5, 1.0, 2.0]), st.floats(0.05, 20.0))

#: Amounts 2^53 or more apart: a large weight absorbs a small one, ``w - c == w``.
far_amounts = st.sampled_from([1e17, 3e17, 1.0, 2.0, 0.5])


@st.composite
def edges(draw, n_new=0, max_size=6, amount=amounts):
    """Edges over the initial pool plus ``n_new`` fresh-vertex names."""
    names = [f"v{k}" for k in range(POOL)] + [f"new{k}" for k in range(n_new)]
    out = []
    for _ in range(draw(st.integers(1, max_size))):
        u, v = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        if u == v:
            v = f"v{(int(u[1:]) + 1) % POOL}" if u.startswith("v") else "v0"
        out.append((u, v, draw(amount)))
    return out


def fingerprint(eng: SpadeEngine) -> tuple:
    """The sequence, its Δ and the detection state, as bits."""
    return (eng._lo, eng._hi, eng._order[eng._lo : eng._hi].tobytes(),
            eng.deltas().tobytes(), eng.best_density.hex(), eng.f_total.hex(),
            eng.buffered_edges)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_walk_matches_the_python_reorder(data):
    metric = data.draw(st.sampled_from([DG, DW, FD]), label="metric")
    engines = [SpadeEngine(metric, vertex_prior=0.3), DictReorderEngine(metric, vertex_prior=0.3)]
    initial = data.draw(edges(max_size=24), label="initial")
    for eng in engines:
        eng.bulk_load(initial)
    assert fingerprint(engines[0]) == fingerprint(engines[1])
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

    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        kind = data.draw(st.sampled_from(
            ["edge", "batch", "parallel", "grouped", "reject", "regrow"]), label="kind")
        if kind == "edge":
            e = renamed(data.draw(edges(n_new=2, max_size=1)))[0]
            for eng in engines:
                eng.insert_edge(*e)
        elif kind == "batch":
            batch = renamed(data.draw(edges(n_new=3, max_size=10)))
            for eng in engines:
                eng.insert_batch(batch)
        elif kind == "parallel":
            u, v, c = data.draw(edges(max_size=1))[0]
            batch = [(u, v, c)] * data.draw(st.integers(2, 12)) + [(v, u, 0.1)] * 9
            for eng in engines:
                eng.insert_batch(batch)
        elif kind == "grouped":
            cap = data.draw(st.sampled_from([None, 2]))
            batch = renamed(data.draw(edges(n_new=2)))
            flush = data.draw(st.booleans())
            for eng in engines:
                for e in batch:
                    eng.insert_grouped(*e, max_buffer=cap)
                if flush:
                    eng.flush_buffer()
        elif kind == "reject":
            bad = data.draw(st.sampled_from([("v1", "v1", 1.0), ("v1", "v2", math.nan),
                                             (None, "v2", 1.0)]))
            batch = renamed(data.draw(edges(n_new=2))) + [bad]
            for eng in engines:
                with pytest.raises(ValueError):
                    eng.insert_batch(batch)
        elif kind == "regrow":
            m = engines[0]._lo + data.draw(st.integers(1, 5))
            batch = [(f"n{fresh + k}", f"v{k % POOL}", 0.3 + k / 100) for k in range(m)]
            fresh += m
            backing = len(engines[0]._order)
            for eng in engines:
                eng.insert_batch(batch)
            assert len(engines[0]._order) > backing, "the front gap did not regrow"
        assert fingerprint(engines[0]) == fingerprint(engines[1]), kind
    for eng in engines:
        eng.flush_buffer()
    assert fingerprint(engines[0]) == fingerprint(engines[1])
    assert not engines[0]._color.any(), "the walk left a vertex coloured"
    assert_engine_valid(engines[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_walk_matches_the_python_reorder_on_far_apart_weights(data):
    """Weights 2^53 or more apart: under DW with amounts from
    ``far_amounts`` and under FD with a 1e17 prior, a T member's weight
    can absorb an edge, so ``relax`` queues an entry equal to a live one,
    and the twin of the vertex just popped must not pass for a live head.
    ``assert_engine_valid`` is not called: the engine's own ``Δ`` absorbs
    the small weights (``tw - c == tw``), not only a validator's running
    ``w[u] -= c``. Of 300 streams drawn as here, an exact
    ``fractions.Fraction`` validator rejected 62 at some step (for
    example, "stored 0.0 exact 4.5") and ``validate_peeling`` 35."""
    metric, prior = data.draw(st.sampled_from([(DW, 0.3), (FD, 1e17)]), label="metric")
    engines = [SpadeEngine(metric, vertex_prior=prior),
               DictReorderEngine(metric, vertex_prior=prior)]
    initial = data.draw(edges(max_size=24, amount=far_amounts), label="initial")
    for eng in engines:
        eng.bulk_load(initial)
    assert fingerprint(engines[0]) == fingerprint(engines[1])
    for step in range(data.draw(st.integers(1, 12), label="steps")):
        batch = data.draw(edges(n_new=2, max_size=8, amount=far_amounts), label="batch")
        batch = [tuple(f"{x}.{step}" if x.startswith("new") else x for x in (u, v)) + (c,)
                 for u, v, c in batch]
        for eng in engines:
            if len(batch) == 1:
                eng.insert_edge(*batch[0])
            else:
                eng.insert_batch(batch)
        assert fingerprint(engines[0]) == fingerprint(engines[1]), step
    assert not engines[0]._color.any(), "the walk left a vertex coloured"
