"""The greedy-sequence validator must accept valid peels and reject corruption."""
import pytest

from repro.core.peel import csr, peel_sequence
from repro.core.validate import validate_peeling


def _triangle():
    adj = [
        {1: 1.0, 2: 3.0},
        {0: 1.0, 2: 2.0},
        {0: 3.0, 1: 2.0},
    ]
    return 3, adj, [0.0, 0.0, 0.0]


def test_accepts_static_peel_output():
    n, adj, a = _triangle()
    order, delta = peel_sequence(n, *csr(adj), a)
    validate_peeling(n, adj, a, order, delta)


def test_rejects_wrong_order():
    n, adj, a = _triangle()
    # Vertex 2 has the largest weight (5.0) — peeling it first is invalid.
    with pytest.raises(AssertionError, match="remaining minimum"):
        validate_peeling(n, adj, a, [2, 0, 1], [5.0, 1.0, 0.0])


def test_rejects_wrong_delta():
    n, adj, a = _triangle()
    order, delta = peel_sequence(n, *csr(adj), a)
    bad = list(delta)
    bad[0] += 1.0
    with pytest.raises(AssertionError, match="stored"):
        validate_peeling(n, adj, a, order, bad)


def test_rejects_non_permutation():
    n, adj, a = _triangle()
    with pytest.raises(AssertionError, match="not a permutation"):
        validate_peeling(n, adj, a, [0, 0, 1], [1.0, 1.0, 1.0])


def test_rejects_wrong_length():
    n, adj, a = _triangle()
    with pytest.raises(AssertionError, match="sequence length"):
        validate_peeling(n, adj, a, [0, 1], [1.0, 1.0])


def test_accepts_any_tie_break():
    # Two isolated unit-weight vertices: both orders are valid greedy peels.
    adj = [{1: 1.0}, {0: 1.0}]
    a = [0.0, 0.0]
    validate_peeling(2, adj, a, [0, 1], [1.0, 0.0])
    validate_peeling(2, adj, a, [1, 0], [1.0, 0.0])


def test_rejects_delta_mismatch_even_if_order_ok():
    adj = [{1: 2.0}, {0: 2.0}]
    a = [0.0, 0.0]
    with pytest.raises(AssertionError, match="stored"):
        validate_peeling(2, adj, a, [0, 1], [2.0, 1.0])
