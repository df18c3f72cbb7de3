"""Greedy-peeling-sequence validator — the correctness oracle for §4.

A sequence ``O`` with weights ``Δ`` is a *valid* greedy peel of a graph
iff at every step the removed vertex has the minimum peeling weight
among the remaining set (Algorithm 1, line 3), and ``Δ_k`` equals that
weight. Several valid sequences exist when weights tie, so tests
compare the incremental engine against the static baseline through
this validator (plus density/community equality) rather than insisting
on one canonical order.

The check simulates the peel in ``O(|V| + |E|)`` and verifies the
minimality condition lazily with a heap, so it is cheap enough to run
inside property-based tests.
"""
from __future__ import annotations

import heapq
from typing import Dict, Sequence

_TOL = 1e-9


def validate_peeling(
    n: int,
    adj: Sequence[Dict[int, float]],
    a: Sequence[float],
    order: Sequence[int],
    delta: Sequence[float],
) -> None:
    """Raise ``AssertionError`` unless ``(order, delta)`` is a valid greedy peel."""
    assert len(order) == n, f"sequence length {len(order)} != |V| = {n}"
    assert sorted(order) == list(range(n)), "sequence is not a permutation of V"
    assert len(delta) == n, "delta length mismatch"

    w = [a[v] + sum(adj[v].values()) for v in range(n)]
    heap = [(w[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    for k, v in enumerate(order):
        # Current minimum weight among the remaining vertices.
        while heap and (removed[heap[0][1]] or abs(heap[0][0] - w[heap[0][1]]) > _TOL):
            heapq.heappop(heap)
        assert heap, "heap exhausted early (internal validator bug)"
        wmin = heap[0][0]
        assert abs(w[v] - delta[k]) <= _TOL * max(1.0, abs(w[v])), (
            f"step {k}: stored Δ={delta[k]} but actual weight of v{v} is {w[v]}"
        )
        assert w[v] <= wmin + _TOL * max(1.0, abs(wmin)), (
            f"step {k}: removed v{v} with weight {w[v]} "
            f"but the remaining minimum is {wmin}"
        )
        removed[v] = True
        for u, c in adj[v].items():
            if not removed[u]:
                w[u] -= c
                heapq.heappush(heap, (w[u], u))

