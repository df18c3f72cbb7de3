"""Static greedy peeling — Algorithm 1 of the paper.

``peel_sequence`` runs the classic min-heap peeling loop in
``O(|E| log |V|)``: repeatedly remove the vertex whose removal
maximizes ``g(S \\ {u})`` — equivalently the vertex with the smallest
peeling weight ``w_u(S)`` (Eq. 2). It returns the full peeling
sequence ``O`` and the per-step weight drops ``Δ``; ``best_community``
then recovers ``argmax_i g(S_i)`` from ``Δ`` and the total weight.

This is the from-scratch baseline (DG/DW/FD of Table 4) and the peel
``SpadeEngine.bulk_load`` starts from. The loop itself is the compiled
``peel`` of :mod:`repro.core.kernel` over a CSR adjacency, which
``peel_sequence`` checks; :func:`csr` lays a dict adjacency out that
way. Ties are broken deterministically by ``(weight, vertex id)``. The
engine is checked against :func:`~repro.core.validate.validate_peeling`
and a pure-Python heap peel kept with the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.kernel import ffi, lib


@dataclass
class PeelResult:
    """Outcome of a full peel: sequence, weight drops, best prefix cut."""

    order: List[int]  # peeling sequence O (vertex ids, removal order)
    delta: List[float]  # Δ_k = w_{O[k]}(S_k) at removal time
    f_total: float  # f(S_0) = Σ a_i + Σ c_ij
    best_index: int  # i maximizing g(S_i); community = order[i:]
    best_density: float  # g(S_best)

    @property
    def community(self) -> List[int]:
        """The detected fraudulent community ``S^P`` (vertex ids)."""
        return self.order[self.best_index :]


def csr(adj: Sequence[Dict[int, float]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay a dict adjacency out as CSR ``(ptr, nbr, c)``, rows in dict order.

    Row ``v`` is ``nbr[ptr[v]:ptr[v + 1]]`` with weights ``c[...]`` in
    ``adj[v]``'s key order, so a peel over it sums ``w_v(S_0)`` as a loop
    over the dict would.
    """
    n = len(adj)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=ptr[1:])
    m = int(ptr[-1])
    nbr = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=m)
    c = np.fromiter(chain.from_iterable(map(dict.values, adj)), dtype=np.float64, count=m)
    return ptr, nbr, c


def peel_sequence(
    n: int,
    ptr: np.ndarray,
    nbr: np.ndarray,
    c: np.ndarray,
    a: Sequence[float],
) -> Tuple[List[int], List[float]]:
    """Compute the greedy peeling sequence of an ``n``-vertex graph.

    ``(ptr, nbr, c)`` is the *combined* (in+out, weight-summed) adjacency
    in CSR form (see :func:`csr`): vertex ``v``'s neighbours are
    ``nbr[ptr[v]:ptr[v + 1]]`` with weights ``c[...]``; ``a[v]`` is its
    vertex suspiciousness. Returns ``(order, delta)`` where ``order`` is
    the removal sequence and ``delta[k]`` the peeling weight of
    ``order[k]`` when removed. ``w_v(S_0)`` sums row ``v`` in its stored
    order, so the result is bit-identical to a pure-Python heap loop over
    dicts holding the rows in that order. Raises ``ValueError`` unless
    ``ptr`` has ``n + 1`` non-decreasing offsets from 0 to
    ``len(nbr) == len(c)``, ``a`` has ``n`` entries and every neighbour
    id lies in ``[0, n)``.
    """
    ptr = np.ascontiguousarray(ptr, dtype=np.int64)
    nbr = np.ascontiguousarray(nbr, dtype=np.int64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    a = np.ascontiguousarray(a, dtype=np.float64)
    if len(ptr) != n + 1 or len(a) != n:
        raise ValueError(f"{len(ptr) - 1} rows and {len(a)} weights for {n} vertices")
    m = len(nbr)
    if ptr[0] != 0 or ptr[-1] != m or len(c) != m or np.any(ptr[1:] < ptr[:-1]):
        raise ValueError(f"row offsets do not span {m} neighbours and {len(c)} weights")
    if m and (nbr.min() < 0 or nbr.max() >= n):
        raise ValueError(f"a neighbour id lies outside [0, {n})")
    order = np.empty(n, dtype=np.int64)
    delta = np.empty(n, dtype=np.float64)
    fb = ffi.from_buffer
    lib.peel(
        n, fb("int64_t[]", ptr), fb("int64_t[]", nbr), fb("double[]", c),
        fb("double[]", a), fb("int64_t[]", order), fb("double[]", delta),
        fb("double[]", np.empty(n, dtype=np.float64)),
        fb("double[]", np.empty(n + m, dtype=np.float64)),
        fb("int64_t[]", np.empty(n + m, dtype=np.int64)),
        fb("uint8_t[]", np.empty(n, dtype=np.uint8)),
    )
    return order.tolist(), delta.tolist()


def best_community(
    order: Sequence[int], delta: Sequence[float], f_total: float
) -> Tuple[int, float]:
    """Find ``argmax_i g(S_i)`` given the peel sequence and ``f(S_0)``.

    ``S_i`` is the suffix ``order[i:]`` (the set remaining after ``i``
    removals); ``f(S_i) = f_total - Σ_{k<i} Δ_k`` and
    ``g(S_i) = f(S_i) / (n - i)``. The empty set is excluded. Returns
    ``(best_index, best_density)``; ties resolve to the smallest index
    (largest community), matching ``np.argmax`` semantics used by the
    incremental engine.
    """
    n = len(order)
    if n == 0:
        return 0, 0.0
    d = np.asarray(delta, dtype=np.float64)
    # f(S_i) for i = 0..n-1: subtract the cumulative peeled weight.
    f = f_total - np.concatenate(([0.0], np.cumsum(d[:-1])))
    sizes = np.arange(n, 0, -1, dtype=np.float64)
    g = f / sizes
    i = int(np.argmax(g))
    return i, float(g[i])


def peel(
    n: int, adj: Sequence[Dict[int, float]], a: Sequence[float]
) -> PeelResult:
    """Full static detection: sequence + best community (Algorithm 1).

    ``f(S_0)`` is summed from the CSR's arrays: every edge weight appears
    in both its endpoints' rows.
    """
    ptr, nbr, c = csr(adj)
    order, delta = peel_sequence(n, ptr, nbr, c, a)
    f_total = float(np.sum(a, dtype=np.float64)) + 0.5 * float(c.sum())
    i, g = best_community(order, delta, f_total)
    return PeelResult(order=order, delta=delta, f_total=f_total, best_index=i, best_density=g)
