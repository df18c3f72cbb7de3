"""Static greedy peeling — Algorithm 1 of the paper.

``peel_sequence`` runs the classic min-heap peeling loop in
``O(|E| log |V|)``: repeatedly remove the vertex whose removal
maximizes ``g(S \\ {u})`` — equivalently the vertex with the smallest
peeling weight ``w_u(S)`` (Eq. 2). It returns the full peeling
sequence ``O`` and the per-step weight drops ``Δ``; ``best_community``
then recovers ``argmax_i g(S_i)`` from ``Δ`` and the total weight.

This is the from-scratch baseline (DG/DW/FD of Table 4) and the peel
``SpadeEngine.bulk_load`` starts from. The loop itself is the compiled
``peel`` of :mod:`repro.core.kernel`; this module lays the adjacency
out as CSR and checks it. Ties are broken deterministically by
``(weight, vertex id)``. The engine is checked against
:func:`~repro.core.validate.validate_peeling` and a pure-Python heap
peel kept with the tests.
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


def peel_sequence(
    n: int,
    adj: Sequence[Dict[int, float]],
    a: Sequence[float],
) -> Tuple[List[int], List[float]]:
    """Compute the greedy peeling sequence of an ``n``-vertex graph.

    ``adj[v]`` is the *combined* (in+out, weight-summed) adjacency of
    vertex ``v``; ``a[v]`` its vertex suspiciousness. Returns
    ``(order, delta)`` where ``order`` is the removal sequence and
    ``delta[k]`` the peeling weight of ``order[k]`` when removed.
    ``w_v(S_0)`` sums ``adj[v]`` in its dict order, so the result is
    bit-identical to a pure-Python heap loop over the same dicts. Raises
    ``ValueError`` unless ``adj`` and ``a`` have ``n`` entries and every
    neighbour id lies in ``[0, n)``.
    """
    if len(adj) != n or len(a) != n:
        raise ValueError(f"{len(adj)} adjacencies and {len(a)} weights for {n} vertices")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=n), out=ptr[1:])
    m = int(ptr[-1])
    nbr = np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=m)
    c = np.fromiter(chain.from_iterable(map(dict.values, adj)), dtype=np.float64, count=m)
    if m and (nbr.min() < 0 or nbr.max() >= n):
        raise ValueError(f"a neighbour id lies outside [0, {n})")
    order = np.empty(n, dtype=np.int64)
    delta = np.empty(n, dtype=np.float64)
    fb = ffi.from_buffer
    lib.peel(
        n, fb("int64_t[]", ptr), fb("int64_t[]", nbr), fb("double[]", c),
        fb("double[]", np.ascontiguousarray(a, dtype=np.float64)),
        fb("int64_t[]", order), fb("double[]", delta),
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
    """Full static detection: sequence + best community (Algorithm 1)."""
    order, delta = peel_sequence(n, adj, a)
    f_total = float(sum(a)) + 0.5 * float(
        sum(sum(nbrs.values()) for nbrs in adj)
    )
    i, g = best_community(order, delta, f_total)
    return PeelResult(order=order, delta=delta, f_total=f_total, best_index=i, best_density=g)
