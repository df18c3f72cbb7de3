"""The Spade engine — incremental peeling maintenance (paper Sections 3-4).

The engine mirrors the paper's memory-resident C++ class (Listing 1):
it owns the evolving graph, the peeling sequence ``O`` (``_seq``), the
peeling weights ``Δ`` (``_weight``), the benign-edge buffer, and the
three incremental techniques:

* ``insert_edge``       — single-edge peeling-sequence reordering (§4.1, 𝒯);
* ``insert_batch``      — batch reordering (§4.2, Algorithm 2);
* ``insert_grouped``    — edge grouping: benign edges buffer, urgent
  edges trigger an immediate batch reorder (§4.3, Def. 4.1).

Exactness invariant (generalization of Lemma 4.2 to gray vertices)
------------------------------------------------------------------
Vertices enter the pending queue ``T`` *only when the frontier reaches
their old slot*. Hence every out-of-order emission has an old position
before the current frontier ``k``, and for every still-pending vertex
``y`` (any color) the set of its removed neighbors is exactly the set
its stored ``Δ`` already excluded, while ``T`` members can only *add*
weight:

``w_y(current) >= w_y(S_{k-1}^{old}) >= Δ_slot[k]``.

Therefore comparing the head of ``T`` against the *stored* ``Δ`` of the
frontier slot (Cases 1/2 of the paper) always pops a global minimum,
and the maintained sequence is a valid greedy peel of the updated
graph — identical to a static rerun up to tie-breaking. New vertices
are head-inserted with ``Δ_0 = 0`` (paper §4.1), the only sound lower
bound for a slot with no greedy history. White frontier vertices have
``w = Δ_slot[k]`` exactly (no neighbor ever entered ``T``), so runs of
whites are emitted *in bulk* with a vectorized scan for the first
``Δ > Δ_min`` — the python-level loop touches only the affected area
``G_T`` (T entries, pops, and gray recoveries), which is what makes
per-edge maintenance orders of magnitude faster than a scratch peel.

Emissions are written back in place as the frontier advances, and
``Detect`` keeps ``f(S_j)`` and ``g(S_j)`` per slot, so an update
re-accumulates suffix weights only over the slots its reorder rewrote.
That span update is the only way ``Detect`` is computed: a static peel
enters as one span over every slot, a front-gap regrow carries the
cached slots along with the sequence, and an empty batch rewrites an
empty span.

Complexity: ``O(|E_T| + |E_T| log |V_T|)`` event work per update, plus
``O(span)`` sequential work over the rewritten span (white-run moves
and the suffix-weight ``cumsum``), plus at most three ``O(n)`` SIMD
passes for ``Detect`` (shift ``f`` ahead of the span, divide, argmax).
"""
from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.peel import peel_sequence
from repro.core.susp import Metric

#: (src, dst, amount) with optional trailing fields ignored by the engine.
EdgeLike = Tuple


class SpadeEngine:
    """Evolving-graph state plus incrementally-maintained peeling sequence.

    Parameters
    ----------
    metric:
        The plugged-in suspiciousness semantic (``DG``/``DW``/``FD`` or a
        custom :class:`~repro.core.susp.Metric`). ``esusp`` is evaluated
        when an edge is inserted (degree-dependent weights are frozen at
        insertion time — see DESIGN.md).
    vertex_prior:
        Default side-information prior handed to ``vsusp`` for vertices
        first seen through edge insertion. Validated at construction:
        a prior that ``vsusp`` maps outside Property 3.1 raises
        ``ValueError``.
    """

    def __init__(self, metric: Metric, vertex_prior: float = 0.0):
        self.metric = metric
        self.default_prior = vertex_prior
        self._default_a = self._vsusp(None)  # a bad prior fails here, not on first use
        # --- graph state ---------------------------------------------------
        self._vid_of: Dict[Hashable, int] = {}  # external id -> internal vid
        self._ext_of: List[Hashable] = []
        self._adj: List[Dict[int, float]] = []  # combined in+out weighted adjacency
        self._a: List[float] = []  # vertex suspiciousness a_i
        self._in_deg: List[int] = []  # incoming edge count (FD's object degree)
        self._w0: List[float] = []  # w_v(S_0): a_v + total incident weight
        self._f_total = 0.0
        self._n_edges = 0
        # --- peeling sequence (front-gapped numpy backing arrays) ----------
        self._order = np.empty(0, dtype=np.int64)  # valid slots: [_lo, _hi)
        self._delta = np.empty(0, dtype=np.float64)  # aligned with _order
        self._pos = np.empty(0, dtype=np.int64)  # vid -> absolute slot
        self._lo = 0
        self._hi = 0
        # --- detection state ----------------------------------------------
        # Aligned with the backing arrays and valid on [_det_lo, _hi):
        # _F[j] = f(S_j), _G[j] = g(S_j) = _F[j] / _size[j], _size[j] = _hi - j.
        self._F = np.empty(0, dtype=np.float64)
        self._G = np.empty(0, dtype=np.float64)
        self._size = np.empty(0, dtype=np.float64)
        self._det_lo = 0
        self._best_g = 0.0
        self._community: Set[int] = set()
        # --- edge grouping -------------------------------------------------
        self._benign_buffer: List[EdgeLike] = []

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self._ext_of)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def f_total(self) -> float:
        return self._f_total

    @property
    def best_density(self) -> float:
        """Density ``g(S^P)`` of the current fraudulent community."""
        return self._best_g

    @property
    def buffered_edges(self) -> int:
        """Number of benign edges awaiting a grouped reorder."""
        return len(self._benign_buffer)

    def order_external(self) -> List[Hashable]:
        """The current peeling sequence as external vertex ids."""
        return [self._ext_of[int(v)] for v in self._order[self._lo : self._hi]]

    def deltas(self) -> np.ndarray:
        """The peeling weights ``Δ`` aligned with :meth:`order_external`."""
        return self._delta[self._lo : self._hi].copy()

    def community_external(self) -> Set[Hashable]:
        """The current community ``S^P`` as external vertex ids."""
        return {self._ext_of[v] for v in self._community}

    def snapshot_graph(self) -> Tuple[int, List[Dict[int, float]], List[float]]:
        """A (shared-structure) view of the graph for scratch comparisons."""
        return self.n_vertices, self._adj, self._a

    # ------------------------------------------------------------------
    # vertex / edge bookkeeping
    # ------------------------------------------------------------------
    def _weigh(
        self,
        edges: Sequence[EdgeLike],
        priors: Dict[Hashable, Optional[float]],
        edge_weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[float], Dict[Hashable, float]]:
        """Validate a whole batch against the current graph, mutating nothing.

        Returns each edge's suspiciousness ``c`` and the vertex
        suspiciousness of every endpoint the graph does not hold yet, in
        first-seen order. ``c`` is ``esusp`` at the in-degree the object
        vertex will have once this edge is in (the batch's earlier edges
        included), matching Fraudar's weighting of the final graph when
        edges arrive one at a time; ``edge_weights[i]`` overrides it.
        Raises ``ValueError`` on an ``edge_weights`` whose length differs
        from the batch's, a ``None`` or NaN endpoint, a self-loop, a
        non-finite amount, or a weight outside Property 3.1, so a
        rejected batch leaves the engine untouched.
        """
        if edge_weights is not None and len(edge_weights) != len(edges):
            raise ValueError(
                f"{len(edge_weights)} edge weights given for {len(edges)} edges"
            )
        metric, vid_of, default_a = self.metric, self._vid_of, self._default_a
        cs: List[float] = []
        new_a: Dict[Hashable, float] = {}
        in_deg: Dict[Hashable, int] = {}
        for i, e in enumerate(edges):
            src, dst, amount = e[0], e[1], float(e[2])
            if src is None or dst is None or src != src or dst != dst:
                raise ValueError(f"edge {src!r}->{dst!r}: vertex id is None or NaN")
            if src == dst:
                raise ValueError(f"self-loop {src!r}->{dst!r} not supported")
            if not math.isfinite(amount):
                raise ValueError(f"edge {src!r}->{dst!r}: amount {amount} is not finite")
            if src not in vid_of and src not in new_a:
                prior = priors.get(src)
                new_a[src] = default_a if prior is None else self._vsusp(prior)
            if dst not in vid_of and dst not in new_a:
                prior = priors.get(dst)
                new_a[dst] = default_a if prior is None else self._vsusp(prior)
            deg = in_deg.get(dst)
            if deg is None:
                vid = vid_of.get(dst)
                deg = self._in_deg[vid] if vid is not None else 0
            in_deg[dst] = deg = deg + 1
            if edge_weights is None:
                c = float(metric.esusp(amount, deg))
            else:
                c = float(edge_weights[i])
            metric.check(0.0, c)
            cs.append(c)
        return cs, new_a

    def _vsusp(self, prior: Optional[float]) -> float:
        """Validated ``a_i`` of a new vertex (``None``: the default prior)."""
        a = float(self.metric.vsusp(self.default_prior if prior is None else prior))
        self.metric.check(a, 1.0)
        return a

    def _intern(self, ext: Hashable, a: float) -> int:
        """Register a new vertex with suspiciousness ``a`` (validated)."""
        vid = len(self._ext_of)
        self._vid_of[ext] = vid
        self._ext_of.append(ext)
        self._adj.append({})
        self._a.append(a)
        self._in_deg.append(0)
        self._w0.append(a)
        self._f_total += a
        if vid >= len(self._pos):
            grown = np.full(max(64, 2 * len(self._pos)), -1, dtype=np.int64)
            grown[: len(self._pos)] = self._pos
            self._pos = grown
        self._pos[vid] = -1
        return vid

    def _add_edge(self, src: Hashable, dst: Hashable, c: float) -> Tuple[int, int]:
        """Accumulate a validated edge into the combined adjacency."""
        u, v = self._vid_of[src], self._vid_of[dst]
        self._adj[u][v] = self._adj[u].get(v, 0.0) + c
        self._adj[v][u] = self._adj[v].get(u, 0.0) + c
        self._w0[u] += c
        self._w0[v] += c
        self._in_deg[v] += 1
        self._f_total += c
        self._n_edges += 1
        return u, v

    # ------------------------------------------------------------------
    # bulk load + static peel (initialization path)
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        edges: Iterable[EdgeLike],
        priors: Optional[Dict[Hashable, float]] = None,
        edge_weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Load the initial graph and compute its peeling sequence.

        ``edges`` yields ``(src, dst, amount, ...)`` tuples. If
        ``edge_weights`` is given (e.g. static FD weights computed over
        the whole edge table), it overrides ``esusp`` evaluation —
        otherwise weights are evaluated in arrival order exactly as
        ``insert_edge`` would. The whole load is validated first: a
        rejected load leaves the engine as it was.
        """
        edges = edges if isinstance(edges, Sequence) else list(edges)
        cs, new_a = self._weigh(edges, priors or {}, edge_weights)
        for ext, a in new_a.items():
            self._intern(ext, a)
        for e, c in zip(edges, cs):
            self._add_edge(e[0], e[1], c)
        del cs, new_a  # free the validation temporaries before the peel's own peak
        self._rebuild_sequence()

    def _rebuild_sequence(self) -> None:
        """Static peel of the current graph (``bulk_load``).

        Allocates the slot arrays behind a front gap for head insertions
        and enters the whole sequence into Detect as one rewritten span.
        """
        n = self.n_vertices
        order, delta = peel_sequence(n, self._adj, self._a)
        pad = max(64, n // 4)
        self._order = np.empty(pad + n, dtype=np.int64)
        self._order[pad:] = order
        self._delta = np.empty(pad + n, dtype=np.float64)
        self._delta[pad:] = delta
        self._F = np.empty(pad + n, dtype=np.float64)
        self._G = np.empty(pad + n, dtype=np.float64)
        self._size = np.empty(pad + n, dtype=np.float64)
        self._lo = pad
        self._hi = self._det_lo = pad + n  # no F/G slot valid yet
        self._pos[self._order[pad:]] = np.arange(pad, pad + n, dtype=np.int64)
        self._refresh_detection((self._lo, self._hi))

    # ------------------------------------------------------------------
    # detection (the paper's Detect): argmax_i g(S_i) over the sequence
    # ------------------------------------------------------------------
    def _refresh_detection(self, span: Tuple[int, int]) -> Set[Hashable]:
        """Update the suffix densities; return the *new* fraudsters (ext ids).

        ``span = (first, end)`` is the slot range whose ``Δ`` changed:
        the reorder's rewritten span, or the whole sequence after a
        static peel. ``f(S_j)`` is the sum of ``Δ`` from slot ``j`` to
        ``_hi``, so slots at or past ``end`` keep ``F`` and ``G``; slots
        before ``first`` keep their ``Δ`` and shift ``F`` by one constant,
        the change of ``F[first]``; only ``[first, end)`` is
        re-accumulated. Slots before ``_det_lo`` (head-inserted vertices,
        or every slot after a static peel) join the span. An empty span
        leaves ``F``, ``G`` and ``S^P`` as they stand. The earliest slot
        wins a tie, as in ``np.argmax`` and
        :func:`~repro.core.peel.best_community`.
        """
        lo, hi, F, det_lo = self._lo, self._hi, self._F, self._det_lo
        first, end = span
        if lo < det_lo:
            self._size[lo:det_lo] = np.arange(hi - lo, hi - det_lo, -1, dtype=np.float64)
            first, end = lo, max(end, det_lo)
            self._det_lo = lo
        if first >= end:
            return set()  # no slot rewritten (always so for an empty sequence)
        old = F[first]
        anchor = F[end] if end < hi else 0.0
        F[first:end] = np.cumsum(self._delta[first:end][::-1])[::-1] + anchor
        if first > lo and F[first] != old:
            F[lo:first] += F[first] - old
            first = lo
        np.divide(F[first:end], self._size[first:end], out=self._G[first:end])
        best = lo + int(np.argmax(self._G[lo:hi]))
        self._best_g = float(self._G[best])
        new_comm = set(map(int, self._order[best:hi]))
        fresh = new_comm - self._community
        self._community = new_comm
        return {self._ext_of[v] for v in fresh}

    def detect(self) -> Tuple[Set[Hashable], float]:
        """Current fraudulent community and its density (paper ``Detect``)."""
        return self.community_external(), self._best_g

    # ------------------------------------------------------------------
    # front-gap management for head insertions of new vertices
    # ------------------------------------------------------------------
    def _ensure_front_gap(self, m: int) -> None:
        if self._lo >= m:
            return
        pad = max(64, m, (self._hi - self._lo) // 4)
        shift = pad - self._lo + m
        for name in ("_order", "_delta", "_F", "_G", "_size"):
            old = getattr(self, name)
            grown = np.empty(len(old) + shift, dtype=old.dtype)
            grown[shift:] = old
            setattr(self, name, grown)
        self._lo += shift
        self._hi += shift
        self._det_lo += shift  # F, G and _size moved with their slots
        self._pos[self._order[self._lo : self._hi]] += shift

    def _insert_head(self, vid: int) -> None:
        """Place a brand-new vertex at the head of the sequence (§4.1).

        Its stored ``Δ`` is initialized to 0 exactly as in the paper.
        This is load-bearing for correctness, not just convention: the
        stored Δ of the frontier slot lower-bounds every pending
        vertex's weight (Case 1 pops only below it), and 0 is the only
        sound bound for a slot with no greedy history. The vertex is
        always black, so its true weight is recovered on reorder.
        """
        self._ensure_front_gap(1)
        self._lo -= 1
        self._order[self._lo] = vid
        self._delta[self._lo] = 0.0
        self._pos[vid] = self._lo

    # ------------------------------------------------------------------
    # the incremental reorder (Algorithm 2; 𝒯 is the |ΔE|=1 case)
    # ------------------------------------------------------------------
    def _reorder(self, black: Set[int]) -> Tuple[int, int]:
        """Reorder the sequence for a batch whose endpoints are ``black``.

        Returns the slot range ``(first, end)`` it rewrote, empty
        (``first >= end``) when every emission landed in place or the
        batch is empty.
        """
        if not black:
            return (self._hi, self._hi)
        order, delta, pos, adj, a = (
            self._order,
            self._delta,
            self._pos,
            self._adj,
            self._a,
        )
        end = self._hi
        black_pos = sorted(int(pos[v]) for v in black)
        bi = 0
        gray: Set[int] = set()
        gray_heap: List[int] = []  # slots of gray vertices ahead of the frontier
        wT: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        # Emissions are written back as they happen, in order: ``out`` is
        # the next output slot. A segment has emitted no more vertices
        # than it has consumed (the difference is |T|), so ``out <= k``
        # and every write lands on a slot the loop has already read;
        # ``out == k`` exactly when T is empty, i.e. emissions are in place.
        k = out = black_pos[0]
        # The rewritten span [first, stop): it opens where the first vertex
        # enters T (the next write lands there) and ends at the last write,
        # which is always a pop: a segment closes only once T has drained.
        first: Optional[int] = None
        stop = end

        while True:
            if not wT:
                # T empty: everything up to the next black keeps its old
                # order in place (stored Δ are exact again — DESIGN.md).
                while bi < len(black_pos) and black_pos[bi] < k:
                    bi += 1
                if bi >= len(black_pos):
                    break
                k = out = black_pos[bi]
            # Lazily prune stale heap entries, then peek the T head.
            while heap and (heap[0][1] not in wT or heap[0][0] != wT[heap[0][1]]):
                heapq.heappop(heap)
            dmin = heap[0][0] if heap else np.inf
            dk = float(delta[k]) if k < end else np.inf
            if dmin <= dk:
                # Case 1: pop the pending-queue head into O'. The paper
                # pops on Δ_min < Δ_k; popping on *equality* too is an
                # equally valid greedy tie-break (pending weights are
                # still >= Δ_k >= Δ_min) and is load-bearing for
                # performance: integer-weight metrics (DG) produce long
                # Δ-plateaus, and a queued vertex that cannot pop at its
                # own weight would ride the whole plateau, dragging every
                # gray neighbor into T (the paper's own IncDG is ~1000x
                # slower than IncFD for exactly this reason).
                # Update T priorities by iterating the smaller of T and
                # N(u_min).
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
            if k >= end:
                continue  # wT must be empty; loop top closes and breaks
            vk = int(order[k])
            if vk in black or vk in gray:
                # Case 2(a): affected vertex — recover its true current
                # weight (edges to T members and to pending slots).
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
                    # Weight unchanged (it can never decrease): the vertex
                    # is a global minimum exactly like a white frontier
                    # vertex, so emit it in place WITHOUT entering T or
                    # coloring its neighborhood. This prunes the gray
                    # cascade to the genuinely affected area: a dense
                    # community's halo would otherwise be re-peeled on
                    # every nearby insertion.
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
                # Color only pending neighbors ahead of the frontier gray
                # (paper line 6/15: O[j], j > i); vertices behind can
                # never be frontier-tested.
                for u, pu in nbr_ahead:
                    if u not in gray:
                        gray.add(u)
                        heapq.heappush(gray_heap, pu)
                k += 1
                continue
            # Case 2(b): white frontier vertex — its stored Δ is exact;
            # emit it, and extend to the whole run of whites whose Δ
            # stays strictly below Δ_min (vectorized scan instead of a
            # python walk; at Δ = Δ_min the pop branch takes over).
            while gray_heap and gray_heap[0] <= k:
                heapq.heappop(gray_heap)
            nb = black_pos[bi] if bi < len(black_pos) else end
            ng = gray_heap[0] if gray_heap else end
            limit = min(nb, ng, end)
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
            out += event - k
            k = event
        return (first, stop) if first is not None else (end, end)

    # ------------------------------------------------------------------
    # public update APIs (paper Listing 1)
    # ------------------------------------------------------------------
    def insert_edge(
        self,
        src: Hashable,
        dst: Hashable,
        amount: float = 1.0,
        src_prior: Optional[float] = None,
        dst_prior: Optional[float] = None,
    ) -> Set[Hashable]:
        """InsertEdge: apply one edge and reorder (§4.1). Returns new fraudsters."""
        return self.insert_batch(
            [(src, dst, amount)], priors={src: src_prior, dst: dst_prior}
        )

    def insert_batch(
        self,
        edges: Sequence[EdgeLike],
        priors: Optional[Dict[Hashable, Optional[float]]] = None,
    ) -> Set[Hashable]:
        """InsertBatchEdges: apply ``ΔE`` and reorder once (Algorithm 2).

        The batch is validated as a whole first: a rejected batch raises
        ``ValueError`` and leaves the engine untouched.
        """
        cs, new_a = self._weigh(edges, priors or {})
        for ext, a in new_a.items():
            self._insert_head(self._intern(ext, a))
        black: Set[int] = set()
        for e, c in zip(edges, cs):
            black.update(self._add_edge(e[0], e[1], c))
        return self._refresh_detection(self._reorder(black))

    # ------------------------------------------------------------------
    # edge grouping (§4.3)
    # ------------------------------------------------------------------
    def is_benign(self, src: Hashable, dst: Hashable, amount: float = 1.0) -> bool:
        """Definition 4.1 against the *current* graph and community density.

        Benign iff ``w_u(S_0)+c < g(S^P)`` for **both** endpoints. The
        candidate weight ``c`` is evaluated with the object degree the
        edge *would* have (current in-degree + 1), without mutating
        state. Unknown endpoints contribute ``w(S_0) = vsusp(default)``.
        """
        u = self._vid_of.get(src)
        v = self._vid_of.get(dst)
        deg = (self._in_deg[v] if v is not None else 0) + 1
        c = float(self.metric.esusp(float(amount), deg))
        w_u = self._w0[u] if u is not None else self._default_a
        w_v = self._w0[v] if v is not None else self._default_a
        g = self._best_g
        return (w_u + c < g) and (w_v + c < g)

    def insert_grouped(
        self,
        src: Hashable,
        dst: Hashable,
        amount: float = 1.0,
        max_buffer: Optional[int] = None,
    ) -> Set[Hashable]:
        """Edge-grouping insertion: buffer benign edges, flush on urgent.

        Returns newly-detected fraudsters (empty while buffering). An
        optional ``max_buffer`` bounds the buffer so purely-benign
        streams still flush periodically (the paper's buffer is flushed
        by urgent edges; Table 5's grouping rows accumulate >1K edges).
        The edge is validated on arrival, so a buffered edge cannot make
        a later flush reject the whole buffer.
        """
        self._weigh([(src, dst, amount)], {})
        urgent = not self.is_benign(src, dst, amount)
        self._benign_buffer.append((src, dst, amount))
        if urgent or (max_buffer is not None and len(self._benign_buffer) >= max_buffer):
            return self.flush_buffer()
        return set()

    def flush_buffer(self) -> Set[Hashable]:
        """Force-apply any buffered benign edges (end-of-stream flush)."""
        if not self._benign_buffer:
            return set()
        batch = self._benign_buffer
        self._benign_buffer = []
        return self.insert_batch(batch)
