"""Single-edge incremental maintenance (§4.1): equivalence with scratch.

The key claim of the paper: after any insertion, the maintained
sequence equals a static peel of the updated graph. With tied peeling
weights several greedy sequences are valid, so the general assertion is
"the maintained sequence is a *valid* greedy peel and the detection
state matches it" (``assert_engine_valid``); on continuous weights
(ties measure-zero, DW metric) the sequence must match the static
tie-broken peel *exactly*.
"""
import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import DG, DW, FD, Metric, SpadeEngine
from repro.core.peel import csr, peel_sequence
from tests.helpers import assert_engine_valid, live_state, random_edges

METRICS = [DG, DW, FD]


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
@pytest.mark.parametrize("seed", range(8))
def test_insert_edge_equivalent_to_scratch(metric, seed):
    edges = random_edges(seed, n=8, m=20)
    eng = SpadeEngine(metric, vertex_prior=0.5)
    eng.bulk_load(edges[:10])
    for e in edges[10:]:
        eng.insert_edge(*e)
        assert_engine_valid(eng)


@pytest.mark.parametrize("seed", range(8))
def test_dw_continuous_weights_same_density_as_scratch(seed):
    """Tie-robust scratch equivalence: identical detected density and f.

    Even continuous weights produce *structural* ties (e.g. a pair
    connected only to each other has two symmetric greedy orders), so
    the order itself may differ; the suffix-density optimum does not.
    """
    edges = random_edges(seed + 100, n=9, m=24, continuous=True)
    eng = SpadeEngine(DW)
    eng.bulk_load(edges[:12])
    for e in edges[12:]:
        eng.insert_edge(*e)
    n, adj, a = eng.snapshot_graph()
    from repro.core.peel import peel

    res = peel(n, adj, a)
    assert eng.best_density == pytest.approx(res.best_density)
    assert eng.f_total == pytest.approx(res.f_total)
    assert sum(eng.deltas()) == pytest.approx(sum(res.delta))


def test_exact_sequence_on_asymmetric_chain():
    """On a graph with all-distinct peeling weights the incremental
    order must equal the static heap order exactly."""
    chain = [("v0", "v1", 1.1), ("v1", "v2", 2.3), ("v2", "v3", 3.9)]
    eng = SpadeEngine(DW)
    eng.bulk_load(chain[:1])
    for e in chain[1:]:
        eng.insert_edge(*e)
    eng.insert_edge("v3", "v4", 5.3)
    n, adj, a = eng.snapshot_graph()
    order, delta = peel_sequence(n, *csr(adj), a)
    got = [eng._vid_of[x] for x in eng.order_external()]
    assert got == order
    assert list(eng.deltas()) == pytest.approx(delta)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
def test_insert_into_empty_engine(metric):
    eng = SpadeEngine(metric, vertex_prior=0.2)
    eng.bulk_load([])
    fresh = eng.insert_edge("a", "b", 3.0)
    assert eng.n_vertices == 2
    assert eng.n_edges == 1
    assert fresh == {"a", "b"}  # the only community there is
    assert_engine_valid(eng)


def test_new_vertices_are_head_inserted():
    eng = SpadeEngine(DW)
    eng.bulk_load([("a", "b", 5.0), ("b", "c", 4.0)])
    eng.insert_edge("x", "y", 0.01)
    # x and y exist, carry tiny weight, and the sequence stays valid.
    assert {"x", "y"} <= set(eng.order_external())
    assert_engine_valid(eng)
    # Tiny new edge cannot displace the detected community: the whole
    # a-b-c chain at g = (5+4)/3 = 3 (denser than the pair {a,b} at 2.5).
    assert eng.best_density == pytest.approx(3.0)
    assert eng.community_external() == {"a", "b", "c"}


def test_lemma_4_1_prefix_unchanged():
    """O'[1:i-1] = O[1:i-1]: slots before the first endpoint survive."""
    edges = random_edges(7, n=10, m=30, continuous=True)
    eng = SpadeEngine(DW)
    eng.bulk_load(edges)
    before = eng.order_external()
    u, v = before[4], before[7]  # endpoints at known positions
    eng.insert_edge(u, v, 1.234)
    after = eng.order_external()
    assert after[:4] == before[:4]


def test_parallel_edges_accumulate_weight():
    eng = SpadeEngine(DW)
    eng.bulk_load([("a", "b", 1.0)])
    eng.insert_edge("a", "b", 2.0)
    eng.insert_edge("b", "a", 3.0)
    assert eng.n_edges == 3
    assert eng.f_total == pytest.approx(6.0)
    assert eng.best_density == pytest.approx(3.0)  # 6.0 / 2 vertices
    assert_engine_valid(eng)


def test_self_loop_rejected():
    eng = SpadeEngine(DG)
    eng.bulk_load([("a", "b", 1.0)])
    with pytest.raises(ValueError, match="self-loop"):
        eng.insert_edge("a", "a", 1.0)
    with pytest.raises(ValueError, match="self-loop"):
        SpadeEngine(DG).bulk_load([("x", "x", 1.0)])


def test_fd_insert_time_degree_weighting():
    """FD freezes each edge's weight at its insertion-time in-degree."""
    eng = SpadeEngine(FD, vertex_prior=0.0)
    eng.bulk_load([])
    eng.insert_edge("c1", "m", 1.0)  # in-degree 1 at insertion
    eng.insert_edge("c2", "m", 1.0)  # in-degree 2
    import math

    expected = 1.0 / math.log(1 + 5.0) + 1.0 / math.log(2 + 5.0)
    assert eng.f_total == pytest.approx(expected)


def test_returns_only_new_fraudsters():
    eng = SpadeEngine(DW)
    eng.bulk_load([("a", "b", 10.0)])
    assert eng.community_external() == {"a", "b"}
    # Strengthening the same community yields no *new* fraudsters.
    fresh = eng.insert_edge("a", "b", 5.0)
    assert fresh == set()
    # A new denser pair displaces it: both members are new.
    fresh = eng.insert_edge("x", "y", 100.0)
    assert fresh == {"x", "y"}


def test_detection_tracks_density_increase():
    eng = SpadeEngine(DW)
    eng.bulk_load([("a", "b", 4.0), ("c", "d", 1.0)])
    g0 = eng.best_density
    eng.insert_edge("a", "b", 4.0)
    assert eng.best_density > g0


def test_w0_and_indegree_bookkeeping():
    eng = SpadeEngine(DW)
    eng.bulk_load([("a", "b", 2.0), ("c", "b", 3.0)])
    vb = eng._vid_of["b"]
    assert eng._in_deg[vb] == 2
    assert eng._w0[vb] == pytest.approx(5.0)
    eng.insert_edge("a", "b", 1.0)
    assert eng._in_deg[vb] == 3
    assert eng._w0[vb] == pytest.approx(6.0)


def test_esusp_gets_an_int_degree():
    """Every path that weighs an edge hands ``esusp`` a Python ``int``,
    though the engine keeps the in-degrees in an int64 array."""
    seen = []

    def esusp(amount, deg):
        seen.append(type(deg))
        return float(amount)

    eng = SpadeEngine(Metric("RECORD", vsusp=float, esusp=esusp))
    calls = [
        lambda: eng.bulk_load([("a", "b", 2.0), ("c", "b", 3.0)]),
        lambda: eng.insert_edge("a", "b", 1.0),
        lambda: eng.insert_batch([("c", "b", 1.0), ("d", "a", 0.5)]),
        lambda: eng.is_benign("c", "b", 0.1),
        lambda: eng.insert_grouped("d", "b", 0.1),
        lambda: eng.insert_grouped("a", "c", 9.0),
    ]
    for call in calls:
        seen.clear()
        call()
        assert seen and set(seen) == {int}


def test_deepcopy_keeps_the_state_and_evolves_alike():
    """A deep copy (the engine's ``__getstate__``/``__setstate__``) keeps
    ``f_total``, the pool's fill, the rows and their mates, and points its
    own kernel state at its own arrays: the same next batch, which moves
    rows, grows the pool and adds vertices, leaves both engines equal."""
    eng = SpadeEngine(DW, vertex_prior=0.2)
    eng.bulk_load(random_edges(3, n=10, m=40, continuous=True))
    eng.insert_batch([("v0", "v1", 0.5), ("w0", "v2", 1.5)])
    twin = copy.deepcopy(eng)
    assert live_state(twin) == live_state(eng)
    assert twin._ctx.used == eng._ctx.used and twin._nbr is not eng._nbr
    size = len(eng._nbr)
    batch = [("v0", f"x{i}", 0.25 * i + 0.1) for i in range(300)] + [("v1", "v0", 0.1)] * 9
    eng.insert_batch(batch)
    twin.insert_batch(batch)
    assert len(eng._nbr) > size
    assert live_state(twin) == live_state(eng)
    assert_engine_valid(twin)


@pytest.mark.parametrize("metric", [DG, DW, FD], ids=lambda m: m.name)
def test_pickle_mid_stream_keeps_the_state_and_evolves_alike(metric, monkeypatch):
    """An engine of each published metric pickles mid-stream, with Detect's
    window ``D`` below its last block; the copy equals the original, and
    the same later updates (single edges, a batch of new vertices that
    regrows the front gap, grouped inserts and a flush) leave both equal."""
    monkeypatch.setattr(engine_mod, "BLOCK", 4)
    eng = SpadeEngine(metric, vertex_prior=0.2)
    clique = [(f"v{i}", f"v{j}", 5.0) for i in range(5) for j in range(5) if i != j] * 5
    edges = random_edges(5, n=40, m=160, continuous=True)
    eng.bulk_load(clique + edges[:100])
    for e in edges[100:130]:
        eng.insert_edge(*e)
    assert 0 < eng._ctx.D < -(-eng.n_vertices // 4), "the window excludes no block"
    twin = pickle.loads(pickle.dumps(eng))
    assert live_state(twin) == live_state(eng)
    regrow = [(f"n{i}", f"v{i % 40}", 0.5 + i / 10) for i in range(eng._lo + 3)]
    for x in (eng, twin):
        for e in edges[130:]:
            x.insert_edge(*e)
        x.insert_batch(regrow)
        for i in range(6):
            x.insert_grouped(f"v{i}", f"v{i + 7}", 0.01 * (i + 1), max_buffer=4)
        x.flush_buffer()
    assert live_state(twin) == live_state(eng)
    assert_engine_valid(twin)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
def test_many_head_insertions_grow_front_gap(metric):
    """Force repeated head insertions past the initial front gap."""
    eng = SpadeEngine(metric, vertex_prior=0.1)
    eng.bulk_load([("a", "b", 1.0)])
    for i in range(200):
        eng.insert_edge(f"n{i}", f"m{i}", 0.5)
    assert eng.n_vertices == 2 + 400
    assert_engine_valid(eng)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_incremental_equals_scratch(data):
    metric = data.draw(st.sampled_from(METRICS))
    n = data.draw(st.integers(2, 9))
    m = data.draw(st.integers(1, 22))
    edges = []
    for _ in range(m):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        if u == v:
            v = (v + 1) % n
        c = data.draw(st.floats(0.05, 20.0, allow_nan=False))
        edges.append((f"v{u}", f"v{v}", c))
    split = data.draw(st.integers(0, m))
    eng = SpadeEngine(metric, vertex_prior=0.3)
    eng.bulk_load(edges[:split])
    for e in edges[split:]:
        eng.insert_edge(*e)
    assert_engine_valid(eng)
