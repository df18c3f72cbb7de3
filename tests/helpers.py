"""Shared test utilities for the Spade reproduction suite."""
from __future__ import annotations

import heapq
import random
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import SpadeEngine, validate_peeling


def random_edges(
    seed: int, n: int = 8, m: int = 20, continuous: bool = False
) -> List[Tuple[str, str, float]]:
    """A reproducible random multigraph edge list (no self-loops)."""
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            v = (v + 1) % n
        amt = rng.uniform(0.1, 10.0)
        if not continuous:
            amt = round(amt, 2)
        edges.append((f"v{u}", f"v{v}", amt))
    return edges


def heapq_peel_sequence(
    n: int, adj: Sequence[Dict[int, float]], a: Sequence[float]
) -> Tuple[List[int], List[float]]:
    """Pure-Python static peel: the oracle for the compiled ``peel_sequence``.

    A ``heapq`` min-heap on ``(w, vid)`` with lazy deletion. ``w_v(S_0)``
    adds ``adj[v]``'s weights left to right in dict order (an explicit loop,
    not ``sum``, whose float rounding differs between Python versions).
    """
    w = []
    for v in range(n):
        s = 0.0
        for c in adj[v].values():
            s += c
        w.append(a[v] + s)
    heap: List[Tuple[float, int]] = [(w[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = [False] * n
    order: List[int] = []
    delta: List[float] = []
    while heap:
        wv, v = heapq.heappop(heap)
        if removed[v] or wv != w[v]:
            continue  # stale heap entry (lazy deletion)
        removed[v] = True
        order.append(v)
        delta.append(wv)
        for u, c in adj[v].items():
            if not removed[u]:
                w[u] -= c
                heapq.heappush(heap, (w[u], u))
    return order, delta


def assert_engine_valid(eng: SpadeEngine) -> None:
    """The engine's maintained sequence is a valid greedy peel and its
    detection state, including every suffix density ``G`` it caches, is
    consistent with that sequence.

    The community check asserts the detected suffix *achieves* the
    maximum suffix density rather than matching one canonical argmax:
    several suffixes can tie exactly, and float-epsilon differences
    between the engine's accumulated ``f_total`` and a recomputed one
    may flip which tied index ``argmax`` returns.
    """
    n, adj, a = eng.snapshot_graph()
    order_ext = eng.order_external()
    order = [eng._vid_of[x] for x in order_ext]
    delta = np.asarray(eng.deltas())
    validate_peeling(n, adj, a, order, list(delta))
    f_total = float(sum(a)) + 0.5 * float(sum(sum(d.values()) for d in adj))
    assert abs(f_total - eng.f_total) <= 1e-6 * max(1.0, abs(f_total))
    if n == 0:
        return
    f = eng.f_total - np.concatenate(([0.0], np.cumsum(delta[:-1])))
    g_all = f / np.arange(n, 0, -1, dtype=float)
    g_max = float(g_all.max())
    tol = 1e-6 * max(1.0, abs(g_max))
    assert abs(g_max - eng.best_density) <= tol
    comm = {eng._vid_of[x] for x in eng.community_external()}
    i_eng = n - len(comm)
    assert set(order[i_eng:]) == comm, "community is not a sequence suffix"
    assert g_all[i_eng] >= g_max - tol, "community does not achieve max density"
    G = eng._suffix_densities()
    assert np.all(np.abs(G - g_all) <= 1e-9 * np.maximum(1.0, np.abs(g_all))), (
        "cached suffix densities drifted from a fresh computation"
    )


def engine_state(eng: SpadeEngine) -> tuple:
    """Everything an update may change, copied for an unchanged-state check.

    The graph is its rows, the pool with its mates and the pool's fill;
    the vertex arrays include ``a``, ``w0``, the in-degrees, the colour
    bytes and the walk's scratch space. Unused room is compared too, so
    this tells one engine's states apart, not two engines'
    (:func:`live_state` does that).
    """
    arrays = (eng._order, eng._delta, eng._pos, eng._F, eng._off, eng._bmax, eng._barg,
              eng._rstart, eng._rlen, eng._rcap, eng._nbr, eng._c, eng._mate, eng._a,
              eng._w0, eng._in_deg, eng._color)
    return (
        eng._ctx.used, dict(eng._vid_of), eng.f_total.hex(), eng.n_edges, eng._lo, eng._hi,
        eng.best_density, set(eng._community), list(eng._benign_buffer),
        tuple(x.tobytes() for x in arrays),
    )


def live_state(eng: SpadeEngine) -> tuple:
    """An engine's state without its unused room, whose bytes are whatever
    the allocator left, so two engines with the same history compare equal.

    The graph is each row's place, room, neighbours, weights and mates, and
    the pool's fill; the sequence is its live slots and ``F`` its ``n``
    suffixes.
    """
    n, lo, hi, used = eng.n_vertices, eng._lo, eng._hi, eng._ctx.used
    live = [j for p, k in zip(eng._rstart[:n].tolist(), eng._rlen[:n].tolist())
            for j in range(p, p + k)]
    arrays = (eng._order[lo:hi], eng._delta[lo:hi], eng._F[:n], eng._off, eng._bmax,
              eng._barg, eng._pos[:n], eng._rstart[:n], eng._rlen[:n], eng._rcap[:n],
              eng._nbr[live], eng._c[live], eng._mate[live], eng._a[:n],
              eng._w0[:n], eng._in_deg[:n])
    return (
        used, dict(eng._vid_of), eng.f_total.hex(), eng.n_edges, lo, hi,
        eng.best_density.hex(), set(eng._community), list(eng._benign_buffer),
        tuple(x.tobytes() for x in arrays),
    )


def edge_weight_map(eng: SpadeEngine) -> Dict[Tuple, float]:
    """Every stored edge weight, keyed by its endpoints' external ids."""
    n, adj, _ = eng.snapshot_graph()
    ext = eng._ext_of
    return {(ext[u], ext[v]): c for u in range(n) for v, c in adj[u].items()}


def brute_force_best_density(
    n: int, adj: Sequence[Dict[int, float]], a: Sequence[float]
) -> float:
    """Exhaustive ``max_S g(S)`` for tiny graphs (n <= 12)."""
    best = 0.0
    for k in range(1, n + 1):
        for S in combinations(range(n), k):
            sset = set(S)
            f = sum(a[v] for v in S)
            f += 0.5 * sum(
                c for v in S for u, c in adj[v].items() if u in sset
            )
            best = max(best, f / k)
    return best


def white_run_reference(order, delta, pos, k, out, limit, dmin):
    """The reorder's Case 2(b) in numpy: emit slot ``k`` and the slots below
    ``limit`` after it whose Δ is below ``dmin``, moving them down to ``out``.

    Returns the first slot not emitted.
    """
    if limit <= k + 1:
        event = k + 1
    else:
        exceed = np.flatnonzero(delta[k + 1 : limit] >= dmin)
        event = (k + 1 + int(exceed[0])) if len(exceed) else limit
    if out != k:
        m = event - k
        order[out : out + m] = order[k:event]
        delta[out : out + m] = delta[k:event]
        pos[order[out : out + m]] = np.arange(out, out + m, dtype=np.int64)
    return event


class DictReorderEngine(SpadeEngine):
    """The engine with the Python reorder the kernel's walk replaced.

    The oracle for ``walk``/``relax``: the same loop over a dict adjacency
    read from :meth:`~SpadeEngine.snapshot_graph`, with the gray set, a
    ``heapq`` of gray slots ahead of the frontier and the white runs of
    :func:`white_run_reference`. Every other part of the engine is shared.
    """

    def _reorder(self, black: Set[int]) -> Tuple[int, int]:
        if not black:
            return (self._hi, self._hi)
        _, adj, a = self.snapshot_graph()
        order, delta, pos = self._order, self._delta, self._pos
        end = self._hi
        black_pos = sorted(int(pos[v]) for v in black)
        bi = 0
        gray: Set[int] = set()
        gray_heap: List[int] = []
        wT: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        k = out = black_pos[0]
        first: Optional[int] = None
        stop = end
        while True:
            if not wT:
                while bi < len(black_pos) and black_pos[bi] < k:
                    bi += 1
                if bi >= len(black_pos):
                    break
                k = out = black_pos[bi]
            while heap and (heap[0][1] not in wT or heap[0][0] != wT[heap[0][1]]):
                heapq.heappop(heap)
            dmin = heap[0][0] if heap else np.inf
            dk = float(delta[k]) if k < end else np.inf
            if dmin <= dk:
                _, vmin = heapq.heappop(heap)
                del wT[vmin]
                order[out] = vmin
                delta[out] = dmin
                pos[vmin] = out
                out += 1
                stop = out
                nbrs = adj[vmin]
                if len(wT) < len(nbrs):
                    for u in list(wT):
                        c = nbrs.get(u)
                        if c is not None:
                            wT[u] -= c
                            heapq.heappush(heap, (wT[u], u))
                else:
                    for u, c in nbrs.items():
                        if u in wT:
                            wT[u] -= c
                            heapq.heappush(heap, (wT[u], u))
                continue
            vk = int(order[k])
            if vk in black or vk in gray:
                while bi < len(black_pos) and black_pos[bi] <= k:
                    bi += 1
                w = a[vk]
                nbr_ahead: List[Tuple[int, int]] = []
                for u, c in adj[vk].items():
                    if u in wT:
                        w += c
                    else:
                        pu = int(pos[u])
                        if pu > k:
                            w += c
                            nbr_ahead.append((u, pu))
                if w <= dk + 1e-9 * (1.0 + abs(dk)):
                    if out != k:
                        order[out] = vk
                        delta[out] = dk
                        pos[vk] = out
                    out += 1
                    k += 1
                    continue
                if first is None:
                    first = k
                wT[vk] = w
                heapq.heappush(heap, (w, vk))
                for u, pu in nbr_ahead:
                    if u not in gray:
                        gray.add(u)
                        heapq.heappush(gray_heap, pu)
                k += 1
                continue
            while gray_heap and gray_heap[0] <= k:
                heapq.heappop(gray_heap)
            nb = black_pos[bi] if bi < len(black_pos) else end
            ng = gray_heap[0] if gray_heap else end
            event = white_run_reference(order, delta, pos, k, out, min(nb, ng, end), dmin)
            out += event - k
            k = event
        return (first, stop) if first is not None else (end, end)
