"""Static peeling (Algorithm 1): known graphs, guarantees, properties."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SpadeEngine, metric_by_name
from repro.core.peel import best_community, csr, peel, peel_sequence
from repro.core.validate import validate_peeling
from repro.datasets import edge_rows, load_preset
from tests.helpers import brute_force_best_density, heapq_peel_sequence


def _adj_from_edges(n, edges):
    adj = [dict() for _ in range(n)]
    for u, v, c in edges:
        adj[u][v] = adj[u].get(v, 0.0) + c
        adj[v][u] = adj[v].get(u, 0.0) + c
    return adj


class TestKnownGraphs:
    def test_single_vertex(self):
        order, delta = peel_sequence(1, *csr([{}]), [0.5])
        assert order == [0] and delta == [0.5]

    def test_empty_graph(self):
        order, delta = peel_sequence(0, *csr([]), [])
        assert order == [] and delta == []

    def test_path_graph_peels_endpoints_first(self):
        # 0-1-2 unweighted path: an endpoint (degree 1) goes first.
        adj = _adj_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        order, delta = peel_sequence(3, *csr(adj), [0.0] * 3)
        assert order[0] in (0, 2)
        assert delta[0] == 1.0

    def test_star_center_outlasts_most_leaves(self):
        # Center weight 4 vs leaf weight 1: at least 3 leaves peel before
        # the center (the last leaf ties with the drained center, so the
        # very last slot depends on tie-breaking).
        adj = _adj_from_edges(5, [(0, i, 1.0) for i in range(1, 5)])
        order, _ = peel_sequence(5, *csr(adj), [0.0] * 5)
        assert order.index(0) >= 3

    def test_clique_density(self):
        # K4 with unit weights: g(V) = 6/4 = 1.5 and that is optimal.
        edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
        adj = _adj_from_edges(4, edges)
        res = peel(4, adj, [0.0] * 4)
        assert res.best_density == pytest.approx(1.5)
        assert sorted(res.community) == [0, 1, 2, 3]

    def test_clique_plus_pendant_drops_pendant(self):
        edges = [(u, v, 1.0) for u in range(4) for v in range(u + 1, 4)]
        edges.append((0, 4, 1.0))
        adj = _adj_from_edges(5, edges)
        res = peel(5, adj, [0.0] * 5)
        assert 4 not in res.community
        assert res.best_density == pytest.approx(1.5)

    def test_two_cliques_denser_wins(self):
        # K5 (g=2.0) vs K3 (g=1.0), disjoint: community is the K5.
        edges = [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)]
        edges += [(u, v, 1.0) for u in range(5, 8) for v in range(u + 1, 8)]
        adj = _adj_from_edges(8, edges)
        res = peel(8, adj, [0.0] * 8)
        assert sorted(res.community) == [0, 1, 2, 3, 4]
        assert res.best_density == pytest.approx(2.0)

    def test_heavy_edge_outweighs_topology(self):
        # A single heavy edge out-weighs an unweighted triangle.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 100.0)]
        adj = _adj_from_edges(5, edges)
        res = peel(5, adj, [0.0] * 5)
        assert sorted(res.community) == [3, 4]
        assert res.best_density == pytest.approx(50.0)

    def test_vertex_weights_count_toward_density(self):
        # Isolated vertex with huge prior beats a weak edge pair.
        adj = _adj_from_edges(3, [(0, 1, 0.5)])
        res = peel(3, adj, [0.0, 0.0, 9.0])
        assert res.community == [2]
        assert res.best_density == pytest.approx(9.0)

    def test_delta_sums_to_f_total(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.5)]
        adj = _adj_from_edges(3, edges)
        res = peel(3, adj, [0.5, 0.5, 0.5])
        assert sum(res.delta) == pytest.approx(res.f_total)


class TestBestCommunity:
    def test_prefers_largest_on_tie(self):
        # Constant delta: all suffixes same density; argmax -> index 0.
        i, g = best_community([0, 1], [1.0, 1.0], 2.0)
        assert i == 0 and g == pytest.approx(1.0)

    def test_empty(self):
        assert best_community([], [], 0.0) == (0, 0.0)

    def test_suffix_density_formula(self):
        # order [a,b,c], deltas [1,2,3], f=6: g(S_0)=2, g(S_1)=2.5, g(S_2)=3.
        i, g = best_community([0, 1, 2], [1.0, 2.0, 3.0], 6.0)
        assert i == 2 and g == pytest.approx(3.0)


class TestGuarantee:
    """Lemma 2.1: g(S^P) >= g(S*)/2, against brute force on tiny graphs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_half_approximation(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 8)
        edges = [
            (rng.randrange(n), rng.randrange(n), round(rng.uniform(0.1, 5.0), 2))
            for _ in range(rng.randint(1, 18))
        ]
        edges = [(u, v, c) for u, v, c in edges if u != v]
        a = [round(rng.uniform(0, 1), 2) for _ in range(n)]
        adj = _adj_from_edges(n, edges)
        res = peel(n, adj, a)
        opt = brute_force_best_density(n, adj, a)
        assert res.best_density >= 0.5 * opt - 1e-9
        validate_peeling(n, adj, a, res.order, res.delta)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_graphs_produce_valid_sequences(data):
    n = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(0, 25))
    edges = []
    for _ in range(m):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        if u == v:
            continue
        c = data.draw(st.floats(0.01, 50.0, allow_nan=False))
        edges.append((u, v, c))
    a = [data.draw(st.floats(0.0, 5.0, allow_nan=False)) for _ in range(n)]
    adj = _adj_from_edges(n, edges)
    order, delta = peel_sequence(n, *csr(adj), a)
    validate_peeling(n, adj, a, order, delta)


@st.composite
def peel_inputs(draw):
    """A small graph as the engine stores it: merged parallel edges, isolated
    vertices, unit (DG), small-integer or continuous weights, and zero or
    nonzero vertex weights."""
    n = draw(st.integers(0, 14))
    weight = draw(st.sampled_from([
        st.just(1.0),
        st.integers(1, 4).map(float),
        st.floats(0.01, 50.0, allow_nan=False),
    ]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40)) if n > 1 else []
    edges = [(u, v, draw(weight)) for u, v in pairs if u != v]
    prior = draw(st.sampled_from([st.just(0.0), st.floats(0.0, 5.0, allow_nan=False)]))
    a = [draw(prior) for _ in range(n)]
    return n, _adj_from_edges(n, edges), a


@settings(max_examples=300, deadline=None)
@given(peel_inputs())
@example((0, [], []))
@example((1, [{}], [0.0]))
@example((1, [{}], [2.5]))
# a DG plateau: every vertex of a 6-cycle ties at weight 2, broken by vid
@example((6, _adj_from_edges(6, [(i, (i + 1) % 6, 1.0) for i in range(6)]), [0.0] * 6))
# parallel edges merged into one dict entry, plus an isolated vertex
@example((4, _adj_from_edges(4, [(0, 1, 0.5), (1, 0, 0.25), (1, 2, 0.75)]), [0.0, 0.1, 0.0, 3.0]))
def test_compiled_peel_matches_heapq_reference(case):
    n, adj, a = case
    assert peel_sequence(n, *csr(adj), a) == heapq_peel_sequence(n, adj, a)


@pytest.mark.parametrize("metric", ["DG", "DW", "FD"])
def test_bulk_load_sequence_matches_heapq_reference(metric):
    data = load_preset("grab1_lite", scale=0.1)
    eng = SpadeEngine(metric_by_name(metric))
    eng.bulk_load(edge_rows(data.edges), priors=data.priors)
    n, adj, a = eng.snapshot_graph()
    order, delta = heapq_peel_sequence(n, adj, a)
    assert n > 1000
    assert eng._order[eng._lo : eng._hi].tolist() == order
    assert eng.deltas().tolist() == delta
