"""Edge grouping (§4.3): Definition 4.1, Lemmas 4.3/4.4, buffer semantics."""
import pytest

from repro.core import DG, DW, FD, Metric, SpadeEngine
from tests.helpers import assert_engine_valid, edge_weight_map, random_edges

METRICS = [DG, DW, FD]


def _dense_pair_engine(metric=DW):
    """An engine whose community is a heavy pair: g(S^P) = 10."""
    eng = SpadeEngine(metric)
    eng.bulk_load([("a", "b", 20.0), ("c", "d", 1.0), ("d", "e", 1.0)])
    assert eng.best_density == pytest.approx(10.0)
    return eng


class TestIsBenign:
    def test_low_weight_edge_between_outsiders_is_benign(self):
        eng = _dense_pair_engine()
        assert eng.is_benign("c", "e", 1.0)

    def test_heavy_edge_is_urgent(self):
        eng = _dense_pair_engine()
        assert not eng.is_benign("c", "e", 50.0)

    def test_edge_touching_community_is_urgent(self):
        # w_a(S_0) = 20 >= g = 10, so anything touching `a` is urgent.
        eng = _dense_pair_engine()
        assert not eng.is_benign("a", "zzz", 0.1)

    def test_matches_definition_4_1(self):
        """is_benign == (w_u(S0)+c < g) and (w_v(S0)+c < g), recomputed."""
        eng = _dense_pair_engine()
        g = eng.best_density
        for u, v, amt in [("c", "e", 2.0), ("c", "d", 8.5), ("e", "q", 9.1)]:
            vid_u = eng._vid_of.get(u)
            vid_v = eng._vid_of.get(v)
            w_u = eng._w0[vid_u] if vid_u is not None else 0.0
            w_v = eng._w0[vid_v] if vid_v is not None else 0.0
            expected = (w_u + amt < g) and (w_v + amt < g)
            assert eng.is_benign(u, v, amt) == expected

    def test_unknown_vertices_use_default_prior(self):
        eng = _dense_pair_engine()
        assert eng.is_benign("new1", "new2", 1.0)
        assert not eng.is_benign("new1", "new2", 11.0)


class TestBenignLemmas:
    """Lemma 4.4: a benign insertion either keeps its endpoints out of the
    new community or strictly lowers the community density."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("metric", [DG, DW], ids=lambda m: m.name)
    def test_lemma_4_4(self, seed, metric):
        import random

        rng = random.Random(seed)
        edges = random_edges(seed, n=8, m=22)
        # A light pendant path v0 - p0 - p1 off the dense random block, as
        # in _dense_pair_engine: p1 has w(S_0) = 1 under DG and 0.05 under
        # DW, while g(S^P) >= 22/8 (DG) or >= 0.275 (DW), so the pendant
        # edge p1 -> q (q new) is always benign.
        eng = SpadeEngine(metric, vertex_prior=0.0)
        eng.bulk_load(edges + [("v0", "p0", 0.05), ("p0", "p1", 0.05)])
        g_before = eng.best_density
        amt = round(rng.uniform(0.05, 0.2), 2)
        candidates = [("p1", "q", amt), ("p0", "p1", amt), ("q", "p0", amt)]
        rng.shuffle(candidates)
        u, v, amt = next(e for e in candidates if eng.is_benign(*e))
        eng.insert_edge(u, v, amt)
        comm = eng.community_external()
        assert (u not in comm and v not in comm) or (
            eng.best_density < g_before
        ), "benign edge created a denser community containing it"


class TestGroupedInsertion:
    def test_benign_edges_buffer(self):
        eng = _dense_pair_engine()
        assert eng.insert_grouped("c", "e", 0.5) == set()
        assert eng.buffered_edges == 1
        assert eng.n_edges == 3  # not applied yet

    def test_urgent_edge_flushes_buffer(self):
        eng = _dense_pair_engine()
        eng.insert_grouped("c", "e", 0.5)
        eng.insert_grouped("e", "f", 0.5)
        assert eng.buffered_edges == 2
        eng.insert_grouped("x", "y", 50.0)  # urgent
        assert eng.buffered_edges == 0
        assert eng.n_edges == 6  # all applied in one batch
        assert eng.community_external() == {"x", "y"}
        assert_engine_valid(eng)

    def test_max_buffer_cap_flushes(self):
        eng = _dense_pair_engine()
        for i in range(4):
            eng.insert_grouped(f"p{i}", f"q{i}", 0.1, max_buffer=4)
        assert eng.buffered_edges == 0
        assert eng.n_edges == 3 + 4

    def test_flush_buffer_empty_is_noop(self):
        eng = _dense_pair_engine()
        assert eng.flush_buffer() == set()

    def test_detection_equals_plain_batch_after_flush(self):
        """Grouped path and plain batch path converge to the same graph."""
        edges = random_edges(42, n=8, m=24)
        base = random_edges(43, n=8, m=12)
        e1 = SpadeEngine(DW, vertex_prior=0.1)
        e1.bulk_load(base)
        e2 = SpadeEngine(DW, vertex_prior=0.1)
        e2.bulk_load(base)
        for e in edges:
            e1.insert_grouped(*e, max_buffer=5)
        e1.flush_buffer()
        e2.insert_batch(edges)
        assert e1.n_edges == e2.n_edges
        assert e1.f_total == pytest.approx(e2.f_total)
        assert e1.best_density == pytest.approx(e2.best_density)
        assert_engine_valid(e1)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_grouped_stream_stays_valid(self, metric):
        edges = random_edges(5, n=10, m=40)
        eng = SpadeEngine(metric, vertex_prior=0.2)
        eng.bulk_load(edges[:10])
        for e in edges[10:]:
            eng.insert_grouped(*e, max_buffer=6)
        eng.flush_buffer()
        assert_engine_valid(eng)


#: Edge weights fall with the object degree and leave Property 3.1 at 3.
FALLING = Metric("FALLING", vsusp=lambda prior: float(prior),
                 esusp=lambda amount, deg: 3.0 - deg)


class TestBufferValidation:
    """A buffered edge is weighed at its flush degree; a failed flush keeps the buffer."""

    def _engine(self, metric=FALLING):
        eng = SpadeEngine(metric)
        eng.bulk_load([("a", "b", 1.0)], priors={"a": 100.0, "b": 100.0})
        assert eng.is_benign("x1", "m")  # g(S^P) = 101
        return eng

    @staticmethod
    def _state(eng):
        return (eng.n_edges, eng.f_total, eng.order_external(), eng.deltas().tobytes(),
                eng.best_density, list(eng._benign_buffer))

    def test_edge_rejected_at_the_degree_it_would_flush_at(self):
        eng = self._engine()
        eng.insert_grouped("x1", "m")  # flushes at degree 1: c = 2
        eng.insert_grouped("x2", "m")  # degree 2: c = 1
        before = self._state(eng)
        with pytest.raises(ValueError, match="edge suspiciousness"):
            eng.insert_grouped("x3", "m")  # degree 3: c = 0
        assert self._state(eng) == before
        assert eng.buffered_edges == 2
        eng.flush_buffer()
        assert eng.n_edges == 3 and eng.buffered_edges == 0
        assert_engine_valid(eng)

    def test_direct_insert_applies_the_buffer_first(self):
        """Buffered edges arrived first, so a direct insert weighs them
        ahead of its own edges, in the same batch."""
        eng = self._engine()
        eng.insert_grouped("x1", "m")  # degree 1: c = 2
        eng.insert_edge("y", "m")  # degree 2, behind x1: c = 1
        assert eng.n_edges == 3 and eng.buffered_edges == 0
        weights = edge_weight_map(eng)
        assert (weights["x1", "m"], weights["y", "m"]) == (2.0, 1.0)
        assert_engine_valid(eng)

    def test_rejected_direct_insert_keeps_the_buffer(self):
        eng = self._engine()
        eng.insert_grouped("x1", "m")
        eng.insert_grouped("x2", "m")
        before = self._state(eng)
        with pytest.raises(ValueError, match="edge suspiciousness"):
            eng.insert_edge("y", "m")  # degree 3, behind x1 and x2: c = 0
        assert self._state(eng) == before
        eng.flush_buffer()
        assert eng.n_edges == 3 and eng.buffered_edges == 0
        assert_engine_valid(eng)

    def test_rejected_flush_keeps_the_buffer(self):
        rejected = set()  # amounts whose edges fail, switched on after buffering
        metric = Metric("SWITCH", vsusp=lambda prior: float(prior),
                        esusp=lambda amount, deg: -1.0 if amount in rejected else 3.0 - deg)
        eng = self._engine(metric)
        eng.insert_grouped("x1", "m")
        eng.insert_grouped("x2", "m")
        rejected.add(1.0)
        before = self._state(eng)
        with pytest.raises(ValueError, match="edge suspiciousness"):
            eng.flush_buffer()
        assert self._state(eng) == before
        # An urgent edge that passes on arrival fails its flush the same way,
        # and only that edge is dropped.
        assert not eng.is_benign("a", "z", 2.0)
        with pytest.raises(ValueError, match="edge suspiciousness"):
            eng.insert_grouped("a", "z", 2.0)
        assert self._state(eng) == before
        rejected.clear()
        eng.flush_buffer()
        assert eng.n_edges == 3 and eng.buffered_edges == 0
        assert_engine_valid(eng)


class TestCampaignScenario:
    """End-to-end: an attach campaign is detected and flagged as urgent."""

    def test_campaign_fraudster_turns_urgent_and_detected(self):
        eng = SpadeEngine(DG)
        # Established ring: 3 customers x 2 merchants, 60 edges => g = 12.
        import itertools

        ring = list(itertools.product(["c1", "c2", "c3"], ["m1", "m2"]))
        eng.bulk_load([(u, v, 1.0) for u, v in ring * 10])
        g0 = eng.best_density
        assert g0 == pytest.approx(12.0)
        # A new fraudster transacts with the ring's merchants.
        detected_at = None
        went_urgent_at = None
        for i in range(40):
            m = "m1" if i % 2 == 0 else "m2"
            if went_urgent_at is None and not eng.is_benign("fraud", m, 1.0):
                went_urgent_at = i
            fresh = eng.insert_edge("fraud", m, 1.0)
            if detected_at is None and "fraud" in fresh:
                detected_at = i
        assert detected_at is not None, "campaign fraudster never detected"
        # Detection requires w > g(S^P) ~ 12 edges; urgency kicks in
        # around the same point (w0 + c >= g).
        assert 8 <= detected_at <= 20
        assert went_urgent_at is not None and went_urgent_at <= detected_at + 1
