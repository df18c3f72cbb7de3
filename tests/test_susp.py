"""Suspiciousness metrics: values, Property 3.1, Axioms 1-3 (Appendix E)."""
import math

import duckdb
import numpy as np
import pytest

from repro.core import SpadeEngine
from repro.core.susp import DG, DW, FD, FD_LOG_C, Metric, metric_by_name
from repro.datasets import edge_rows, load_preset


class TestMetricValues:
    @pytest.mark.parametrize("amount", [0.5, 1.0, 42.0])
    @pytest.mark.parametrize("deg", [1, 5, 1000])
    def test_dg_edge_weight_is_constant_one(self, amount, deg):
        assert DG.esusp(amount, deg) == 1.0

    @pytest.mark.parametrize("prior", [0.0, 0.5, 3.0])
    def test_dg_vertex_weight_is_zero(self, prior):
        assert DG.vsusp(prior) == 0.0

    @pytest.mark.parametrize("amount", [0.5, 1.0, 42.0])
    def test_dw_edge_weight_is_amount(self, amount):
        assert DW.esusp(amount, 7) == amount

    @pytest.mark.parametrize("prior", [0.0, 1.5])
    def test_dw_vertex_weight_is_zero(self, prior):
        assert DW.vsusp(prior) == 0.0

    @pytest.mark.parametrize("deg", [1, 2, 10, 100, 10_000])
    def test_fd_edge_weight_log_damping(self, deg):
        assert FD.esusp(99.0, deg) == pytest.approx(1.0 / math.log(deg + FD_LOG_C))

    def test_fd_edge_weight_decreases_with_degree(self):
        ws = [FD.esusp(1.0, d) for d in (1, 10, 100, 1000)]
        assert ws == sorted(ws, reverse=True)

    @pytest.mark.parametrize("prior", [0.0, 0.1, 1.0])
    def test_fd_vertex_weight_is_prior(self, prior):
        assert FD.vsusp(prior) == prior

    def test_fd_weight_always_positive(self):
        assert FD.esusp(0.0, 10**9) > 0


class TestLookup:
    @pytest.mark.parametrize("name", ["DG", "DW", "FD", "dg", "fd"])
    def test_lookup_known(self, name):
        assert metric_by_name(name).name == name.upper()

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown metric"):
            metric_by_name("nope")


class TestProperty31:
    """Property 3.1: a_i >= 0 and c_ij > 0 are enforced."""

    def test_negative_vertex_susp_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DG.check(-0.1, 1.0)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_nonfinite_vertex_susp_rejected(self, a):
        with pytest.raises(ValueError, match="finite"):
            DG.check(a, 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_edge_susp_rejected(self, c):
        with pytest.raises(ValueError, match="> 0"):
            DG.check(0.0, c)

    def test_valid_weights_pass(self):
        DG.check(0.0, 1e-9)
        FD.check(5.0, 0.3)

    def test_custom_metric_checked(self):
        m = Metric("BAD", vsusp=lambda p: -1.0, esusp=lambda a, d: 0.0)
        with pytest.raises(ValueError):
            m.check(m.vsusp(0.0), 1.0)
        with pytest.raises(ValueError):
            m.check(0.0, m.esusp(1.0, 1))


class TestAxioms:
    """Axioms 1-3 of Appendix E for the arithmetic density g = f/|S|."""

    @staticmethod
    def g(fv: float, fe: float, size: int) -> float:
        return (fv + fe) / size

    def test_axiom1_vertex_suspiciousness(self):
        # Same size and edge mass, higher vertex mass => denser.
        assert self.g(5.0, 3.0, 4) > self.g(4.0, 3.0, 4)

    def test_axiom2_edge_suspiciousness(self):
        # Adding an edge (c > 0) strictly increases density.
        c = 0.7
        assert self.g(2.0, 3.0 + c, 4) > self.g(2.0, 3.0, 4)

    def test_axiom3_concentration(self):
        # Same total mass on fewer vertices => denser.
        assert self.g(2.0, 6.0, 3) > self.g(2.0, 6.0, 5)


class TestFinalGraphFD:
    """Static Fraudar weighs an FD edge by its object's *final-graph*
    in-degree; the engine weighs it at insertion time (DESIGN.md, *FD
    weight semantics*). The static weights load through
    ``bulk_load(edge_weights=...)``."""

    @pytest.fixture(scope="class")
    def final(self):
        edges = load_preset("grab1_lite", scale=0.03).edges.reset_index(drop=True)
        weight = f"1.0 / LN(d.in_deg + {FD_LOG_C})"
        join = "FROM e JOIN (SELECT dst, COUNT(*) AS in_deg FROM e GROUP BY dst) d ON e.dst = d.dst"
        with duckdb.connect() as con:
            con.register("e", edges.assign(i=np.arange(len(edges))))
            w = con.execute(f"SELECT {weight} AS w {join} ORDER BY e.i").fetchnumpy()["w"]
            total = con.execute(f"SELECT SUM({weight}) {join}").fetchone()[0]
        eng = SpadeEngine(FD)
        eng.bulk_load(edge_rows(edges), edge_weights=w)
        return edges, eng, total

    def test_fd_final_graph_weights_total(self, final):
        """Engine f_total under static FD weighting == DuckDB's sum."""
        _, eng, total = final
        # Default prior 0 => vertex mass 0; f_total is the edge mass.
        assert eng.f_total == pytest.approx(total)

    def test_fd_insertion_vs_final_weights_diverge_boundedly(self, final):
        """The two FD weightings differ, but within log-factors."""
        edges, e_fin, _ = final
        e_ins = SpadeEngine(FD)
        e_ins.bulk_load(edge_rows(edges))
        ratio = e_ins.f_total / e_fin.f_total
        assert 1.0 <= ratio <= math.log(len(edges) + FD_LOG_C)
