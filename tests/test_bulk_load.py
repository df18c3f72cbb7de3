"""``bulk_load``'s columnar path against ``insert_batch``'s row path.

``bulk_load`` weighs a load on columns and gives each row room for its
distinct neighbours before the kernel's ``add_edges`` fills the rows, so
its pool is CSR; ``insert_batch`` weighs row by row and its rows grow.
On an empty engine and the same rows, both must leave the same graph to
the bit, and reject a malformed load with the same first error. A loaded
engine refuses a ``bulk_load``.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DG, DW, FD, Metric, SpadeEngine
from tests.helpers import assert_engine_valid, engine_state

#: DW whose ``esusp`` overflows to ``inf`` at amount 7 and whose ``vsusp``
#: is the prior, so bad priors and infinite weights can be reached.
EDGE = Metric("EDGE", vsusp=lambda prior: float(prior),
              esusp=lambda amount, deg: math.inf if amount == 7.0 else float(amount))

METRICS = {"DG": DG, "DW": DW, "FD": FD, "EDGE": EDGE}


def vertex_id(kind, i, variant):
    """Vertex ``i`` as a ``kind`` id. ``mixed`` spells one vertex as equal
    ids of different types, so the first-seen spelling must be the one kept."""
    if kind == "str":
        return f"v{i}"
    if kind == "int":
        return i * 1009
    if kind == "tuple":
        return (i % 3, f"t{i}")
    return (i, float(i), np.int64(i))[variant]


@st.composite
def loads(draw):
    """A metric, an id kind, the rows and priors."""
    metric = draw(st.sampled_from(["DG", "DW", "FD"]))
    kind = draw(st.sampled_from(["str", "int", "tuple", "mixed"]))
    pool = draw(st.integers(2, 9))

    def rows(max_size):
        pair = st.tuples(st.integers(0, pool - 1), st.integers(0, pool - 1)).filter(
            lambda p: p[0] != p[1])
        amount = st.one_of(st.sampled_from([0.1, 0.5, 1.0, 2.5]),
                           st.floats(1e-3, 1e3, allow_nan=False))
        raw = draw(st.lists(st.tuples(pair, amount, st.integers(0, 2)), max_size=max_size))
        return [(vertex_id(kind, s, k), vertex_id(kind, d, k), a) for (s, d), a, k in raw]

    load = rows(30)
    prior = st.floats(0.0, 5.0, allow_nan=False)
    priors = {vertex_id(kind, i, 0): draw(prior) for i in range(pool) if draw(st.booleans())}
    return METRICS[metric], load, priors


def engine_pair(metric):
    """Two empty engines."""
    return SpadeEngine(metric, vertex_prior=0.25), SpadeEngine(metric, vertex_prior=0.25)


def graph(eng):
    """The graph state both paths write: each row's neighbours in row order
    and the bits of their weights, and the id types. The rows' places in
    the pool differ: the columnar path packs them, the row path grows them.
    """
    n = eng.n_vertices
    rows = [(eng._nbr[p : p + k].tolist(), eng._c[p : p + k].tobytes())
            for p, k in zip(eng._rstart[:n], eng._rlen[:n])]
    return (
        rows,
        eng._w0[:n].tobytes(),
        eng._in_deg[:n].tolist(),
        eng._a[:n].tobytes(),
        [(type(x), x, vid) for x, vid in eng._vid_of.items()],
        [(type(x), x) for x in eng._ext_of],
        eng.f_total.hex(),
        eng.n_edges,
    )


@settings(max_examples=200, deadline=None)
@given(loads())
# Parallel edges past 8 copies of 0.1 onto one pair, under FD.
@example((FD, [("a", "b", 0.1)] * 13 + [("b", "c", 0.1)], {"c": 2.0}))
# New vertices' priors join f_total one by one, after the default mass.
@example((FD, [("a", "b", 1.0), ("c", "d", 1.0), ("e", "a", 1.0)],
          {"c": 0.1, "d": 0.2, "e": 0.9}))
# One vertex spelled 1, 1.0 and np.int64(1): the first spelling is kept.
@example((DW, [(1, 2, 1.0), (1.0, 3, 2.0), (np.int64(1), 2.0, 0.5)], {}))
def test_bulk_load_matches_insert_batch(case):
    metric, load, priors = case
    bulk, rows = engine_pair(metric)
    bulk.bulk_load(load, priors=priors)
    rows.insert_batch(load, priors=priors)
    assert graph(bulk) == graph(rows)
    assert_csr(bulk)
    assert_engine_valid(bulk)


def assert_csr(eng):
    """The pool is CSR, as the static peel reads it: rows in vid order,
    each full and right after the one before, and nothing else used."""
    n = eng.n_vertices
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(eng._rlen[:n], out=ptr[1:])
    np.testing.assert_array_equal(eng._rstart[:n], ptr[:-1])
    np.testing.assert_array_equal(eng._rcap[:n], eng._rlen[:n])
    assert eng._ctx.used == ptr[n]


#: A malformed row, built from two distinct ids ``x`` and ``y``.
BAD_ROWS = {
    "none-src": lambda x, y: (None, y, 1.0),
    "none-dst": lambda x, y: (x, None, 1.0),
    "nan-src": lambda x, y: (math.nan, y, 1.0),
    "nan-dst": lambda x, y: (x, np.float64("nan"), 1.0),
    "self-loop": lambda x, y: (x, x, 1.0),
    "inf-amount": lambda x, y: (x, y, math.inf),
    "nan-amount": lambda x, y: (x, y, math.nan),
    "zero-esusp": lambda x, y: (x, y, 0.0),  # DW, EDGE: c = amount
    "negative-esusp": lambda x, y: (x, y, -2.0),
    "inf-esusp": lambda x, y: (x, y, 7.0),  # EDGE: c = inf
    "bad-prior": lambda x, y: (x, "fresh", 1.0),  # FD, EDGE: a = prior = -1
}


@settings(max_examples=200, deadline=None)
@given(loads(), st.sampled_from(["DW", "EDGE", "FD", "DG"]),
       st.lists(st.tuples(st.sampled_from(sorted(BAD_ROWS)), st.integers(0, 40)),
                min_size=1, max_size=2))
@example((DW, [("a", "b", 2.0), ("b", "c", 1.0)], {}), "DW",
         [("self-loop", 1), ("none-src", 0)])
def test_malformed_load_raises_the_row_paths_first_error(case, metric, bad):
    """Every malformed row kind, one or two of them at any position: the
    load fails with the message ``insert_batch`` gives (its first failing
    row) and changes nothing. Kinds a metric accepts (a zero amount under
    DG, say) must then load identically on both paths."""
    _, load, priors = case
    metric = METRICS[metric]
    priors = {**priors, "fresh": -1.0}
    x, y = ("a", "b") if not load else load[0][:2]
    for kind, at in bad:
        load.insert(min(at, len(load)), BAD_ROWS[kind](x, y))
    bulk, rows = engine_pair(metric)
    before = engine_state(bulk)
    want = None
    try:
        rows.insert_batch(load, priors=priors)
    except ValueError as exc:
        want = str(exc)
    if want is None:
        assert not {k for k, _ in bad} & {"none-src", "none-dst", "nan-src", "nan-dst",
                                          "self-loop", "inf-amount", "nan-amount"}
        bulk.bulk_load(load, priors=priors)
        assert graph(bulk) == graph(rows)
        return
    with pytest.raises(ValueError) as got:
        bulk.bulk_load(load, priors=priors)
    assert str(got.value) == want
    assert engine_state(bulk) == before


def _loaded():
    eng = SpadeEngine(DW, vertex_prior=0.25)
    eng.bulk_load([("a", "b", 20.0), ("c", "d", 1.0), ("d", "e", 1.0)])
    return eng


def _inserted():
    eng = SpadeEngine(DW, vertex_prior=0.25)
    eng.insert_edge("a", "b", 2.0)
    return eng


def _buffering():
    eng = _loaded()
    eng.insert_grouped("c", "e", 0.5)  # benign: w + c < g(S^P) = 10.25
    assert eng.buffered_edges == 1
    return eng


@pytest.mark.parametrize("make", [_loaded, _inserted, _buffering],
                         ids=["bulk-loaded", "inserted", "buffering"])
def test_bulk_load_refuses_an_engine_that_holds_a_vertex(make):
    eng = make()
    before = engine_state(eng)
    with pytest.raises(ValueError, match="empty engine"):
        eng.bulk_load([("x", "y", 1.0), ("a", "x", 3.0)])
    with pytest.raises(ValueError, match="empty engine"):
        eng.bulk_load([])
    assert engine_state(eng) == before
    assert_engine_valid(eng)


@pytest.mark.parametrize("metric", ["DG", "DW", "FD"])
def test_rejected_load_leaves_the_engine_empty(metric):
    """A malformed load leaves the engine empty, so a valid load still
    lands on it exactly as ``insert_batch`` applies the same rows."""
    metric = METRICS[metric]
    bulk, rows = engine_pair(metric)
    with pytest.raises(ValueError, match="self-loop"):
        bulk.bulk_load([("a", "b", 1.0), ("b", "b", 1.0)])
    load = [("a", "b", 0.1)] * 9 + [("b", "c", 2.0), ("c", "a", 0.5)]
    bulk.bulk_load(load, priors={"c": 1.5})
    rows.insert_batch(load, priors={"c": 1.5})
    assert graph(bulk) == graph(rows)
    assert_engine_valid(bulk)
