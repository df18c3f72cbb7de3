"""The Spade engine — incremental peeling maintenance (paper Sections 3-4).

The engine mirrors the paper's memory-resident C++ class (Listing 1):
it owns the evolving graph, the peeling sequence ``O`` (``_order``), the
peeling weights ``Δ`` (``_delta``), the benign-edge buffer, and the
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
whites are emitted *in bulk*: the compiled ``white_run`` scans forward
to the first ``Δ >= Δ_min`` and moves the run down to the output slot in
one call. The python-level loop touches only the affected area ``G_T``
(T entries, pops, and gray recoveries), which is what makes per-edge
maintenance orders of magnitude faster than a scratch peel.

Emissions are written back in place as the frontier advances, and
``Detect`` keeps ``f(S_j)`` per slot under per-block lazy offsets and
each block's best ``g(S_j)``, so an update re-accumulates suffix weights
only over the slots its reorder rewrote and rescans only the blocks
that span touched (the compiled kernel in :mod:`repro.core.kernel`).
That span update is the only way ``Detect`` is computed: a static peel
enters as one span over every slot, a front-gap regrow carries the
cached slots along with the sequence, and an empty batch rewrites an
empty span.

Complexity: ``O(|E_T| + |E_T| log |V_T|)`` event work per update in
Python, plus one kernel call per white run, plus ``O(span)`` sequential
work in C over the rewritten span (the white-run scans and moves, the
suffix-weight re-accumulation and the rescan of its blocks), plus
``O(n / BLOCK)`` for ``Detect`` to shift the earlier blocks' offsets
and pick the best block, plus one ``O(BLOCK)`` rescan per block whose
offset grew since its last scan and whose bound still wins. Both update
paths apply their edges in one Python loop (``_add_edges``).

A ``bulk_load`` of an empty engine runs on columns instead:
``_weigh_columns`` checks and weighs the whole load with numpy and one
``pd.factorize``, calling ``esusp`` once per edge; the kernel's
``ingest`` lays the load out as CSR in ``O(|V| + |E|)``; the static peel of
:func:`~repro.core.peel.peel_sequence` runs its ``O(|E| log |V|)`` heap
loop in C over that CSR; and one ``O(|V| + |E|)`` pass then builds the
dict adjacency the Python reorder reads.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np
import pandas as pd

from repro.core.kernel import ffi, lib
from repro.core.peel import peel_sequence
from repro.core.susp import Metric

#: (src, dst, amount) with optional trailing fields ignored by the engine.
EdgeLike = Tuple

#: Slots per ``Detect`` block; an engine keeps the value it was built with.
BLOCK = 256

#: Vertices per chunk when ``bulk_load`` turns its CSR into dicts.
_ROW_CHUNK = 4096


def _ingest(
    u: np.ndarray,
    v: np.ndarray,
    c: np.ndarray,
    w0: np.ndarray,
    in_deg: np.ndarray,
    f_total: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Lay the edges ``(u, v, c)`` among ``len(w0)`` vertices out as CSR.

    ``w0`` and ``in_deg`` are updated in place; returns the CSR
    ``(ptr, nbr, c)`` and the new ``f_total`` (see ``ingest`` in
    :mod:`repro.core.kernel`).
    """
    n, m = len(w0), len(c)
    ptr = np.empty(n + 1, dtype=np.int64)
    nbr = np.empty(2 * m, dtype=np.int64)
    cw = np.empty(2 * m, dtype=np.float64)
    fb = ffi.from_buffer
    f_total = lib.ingest(
        n, m, fb("int64_t[]", u), fb("int64_t[]", v), fb("double[]", c),
        fb("double[]", w0), fb("int64_t[]", in_deg), f_total,
        fb("int64_t[]", np.empty(n, dtype=np.int64)),
        fb("int64_t[]", np.empty(n, dtype=np.int64)),
        fb("int64_t[]", ptr), fb("int64_t[]", nbr), fb("double[]", cw),
    )
    return ptr, nbr[: ptr[n]], cw[: ptr[n]], f_total


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
        # _F is aligned with the backing arrays and valid on [_det_lo, _hi).
        # Block b holds the slots j with (_hi - 1 - j) // _block == b, so
        # block ids survive head insertions and front-gap regrows; then
        # f(S_j) = _F[j] + _off[b]. _bmax[b]/_barg[b] are the block's best
        # g(S_j) and earliest best slot at its last scan, and _pend[b] the
        # offset it gained since (see repro.core.kernel).
        self._block = BLOCK
        self._F = np.empty(0, dtype=np.float64)
        self._off = np.zeros(0, dtype=np.float64)
        self._pend = np.zeros(0, dtype=np.float64)
        self._bmax = np.zeros(0, dtype=np.float64)
        self._barg = np.zeros(0, dtype=np.int64)
        self._det_lo = 0
        self._best_g = 0.0
        self._community: Set[int] = set()
        # --- edge grouping -------------------------------------------------
        self._benign_buffer: List[EdgeLike] = []
        self._buffered_in: Counter = Counter()  # buffered edges per object vertex

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
        queued: Optional[Dict[Hashable, int]] = None,
    ) -> Tuple[List[float], Dict[Hashable, float]]:
        """Validate a whole batch against the current graph, mutating nothing.

        Returns each edge's suspiciousness ``c`` and the vertex
        suspiciousness of every endpoint the graph does not hold yet, in
        first-seen order. ``c`` is ``esusp`` at the in-degree the object
        vertex will have once this edge is in (the batch's earlier edges
        and ``queued[dst]`` edges applied before the batch included),
        matching Fraudar's weighting of the final graph when edges arrive
        one at a time. Raises ``ValueError`` on a ``None`` or NaN endpoint,
        a self-loop, a non-finite amount, or a weight outside Property 3.1,
        so a rejected batch leaves the engine untouched.
        """
        metric, vid_of, default_a = self.metric, self._vid_of, self._default_a
        cs: List[float] = []
        new_a: Dict[Hashable, float] = {}
        in_deg: Dict[Hashable, int] = {}
        for e in edges:
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
                if queued:
                    deg += queued.get(dst, 0)
            in_deg[dst] = deg = deg + 1
            c = float(metric.esusp(amount, deg))
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
        self._reserve(vid + 1)
        return vid

    def _reserve(self, n: int) -> None:
        """Grow ``_pos`` (doubling, from 64 slots) to hold vids below ``n``."""
        size = len(self._pos)
        if n <= size:
            return
        while size < n:
            size = max(64, 2 * size)
        grown = np.full(size, -1, dtype=np.int64)
        grown[: len(self._pos)] = self._pos
        self._pos = grown

    def _add_edges(self, edges: Sequence[EdgeLike], cs: Sequence[float]) -> Set[int]:
        """Accumulate validated edges into the combined adjacency.

        Returns the vids of their endpoints. ``f_total`` is accumulated
        edge by edge, in batch order.
        """
        vid_of, adj, w0, in_deg = self._vid_of, self._adj, self._w0, self._in_deg
        f_total = self._f_total
        ends: Set[int] = set()
        for e, c in zip(edges, cs):
            u, v = vid_of[e[0]], vid_of[e[1]]
            adj_u, adj_v = adj[u], adj[v]
            adj_u[v] = adj_u.get(v, 0.0) + c
            adj_v[u] = adj_v.get(u, 0.0) + c
            w0[u] += c
            w0[v] += c
            in_deg[v] += 1
            f_total += c
            ends.add(u)
            ends.add(v)
        self._f_total = f_total
        self._n_edges += len(cs)
        return ends

    # ------------------------------------------------------------------
    # bulk load + static peel (initialization path)
    # ------------------------------------------------------------------
    def bulk_load(
        self,
        edges: Iterable[EdgeLike],
        priors: Optional[Dict[Hashable, float]] = None,
    ) -> None:
        """Load the initial graph of an empty engine and peel it.

        ``edges`` yields ``(src, dst, amount, ...)`` tuples, weighed by
        ``esusp`` in arrival order exactly as ``insert_edge`` would. An
        engine that already holds a vertex raises ``ValueError``: after
        the load, the graph grows only through the insert APIs. The whole
        load is validated first: a rejected load leaves the engine as it
        was. The load runs on columns (:meth:`_weigh_columns`, then the
        kernel's ``ingest`` lays it out as CSR and the static peel runs
        over that CSR), and leaves the same adjacency, vertex weights,
        degrees, vids and ``f_total``, to the bit, as ``insert_batch`` of
        the same edges would.
        """
        if self._ext_of:
            raise ValueError("bulk_load needs an empty engine; insert into a loaded one")
        edges = edges if isinstance(edges, Sequence) else list(edges)
        priors = priors or {}
        try:
            u, v, c, new, new_a = self._weigh_columns(edges, priors)
        except Exception:
            # Whatever failed, the row pass raises the load's first error in
            # row order, as insert_batch would; it mutates nothing.
            try:
                self._weigh(edges, priors)
            except Exception as first:
                raise first from None
            raise
        n, m = len(new), len(c)
        w0 = np.array(new_a, dtype=np.float64)
        in_deg = np.zeros(n, dtype=np.int64)
        f_total = 0.0
        for a in new_a:  # vertex mass first, in intern order, as _intern adds it
            f_total += a
        ptr, nbr, cw, f_total = _ingest(u, v, c, w0, in_deg, f_total)
        del u, v, c  # free the load's columns before the peel and the dicts
        # One int object per vid, shared by _vid_of and every row naming it,
        # as the row path shares them (a fresh int per entry costs ~8 MB
        # on a 135K-edge load).
        vids = np.arange(n).astype(object)
        self._vid_of = dict(zip(new, vids))
        self._ext_of = list(new)
        self._a = new_a
        self._w0 = w0.tolist()
        self._in_deg = in_deg.tolist()
        self._f_total = f_total
        self._n_edges = m
        self._reserve(n)
        self._rebuild_sequence(ptr, nbr, cw)
        self._write_rows(ptr, nbr, cw, vids)

    def _write_rows(self, ptr: np.ndarray, nbr: np.ndarray, cw: np.ndarray,
                    vids: np.ndarray) -> None:
        """Write the loaded CSR into the dict adjacency the reorder reads.

        Each CSR row becomes one dict; neighbour keys are the shared int
        objects of ``vids``. Rows go over in chunks, so only one chunk's
        Python lists exist beside the dicts: lists of the whole load would
        raise peak RSS.
        """
        adj = self._adj
        for lo in range(0, len(ptr) - 1, _ROW_CHUNK):
            hi = min(len(ptr) - 1, lo + _ROW_CHUNK)
            p0, p1 = int(ptr[lo]), int(ptr[hi])
            bounds = (ptr[lo : hi + 1] - p0).tolist()
            keys, vals = vids[nbr[p0:p1]].tolist(), cw[p0:p1].tolist()
            for p, q in zip(bounds, bounds[1:]):
                adj.append(dict(zip(keys[p:q], vals[p:q])))

    def _weigh_columns(
        self, edges: Sequence[EdgeLike], priors: Dict[Hashable, Optional[float]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[float]]:
        """:meth:`_weigh` of a whole load on columns, mutating nothing.

        Interns the ids with one ``pd.factorize`` over the interleaved
        ``src, dst`` column: its codes are the vids, so vertices take vids
        in first-seen order, as ``_weigh`` lists them. An edge's object
        degree is its rank among the load's edges into ``dst``; ``esusp``
        runs once per edge in arrival order. Returns the endpoint vids
        ``u, v``, the weights ``c``, the ids in vid order and their ``a``.
        Raises ``ValueError`` on a failed check; it does not tell which
        row failed first.
        """
        metric, m = self.metric, len(edges)
        ends = np.empty(2 * m, dtype=object)
        ends[0::2] = [e[0] for e in edges]
        ends[1::2] = [e[1] for e in edges]
        codes, new = pd.factorize(ends, sort=False)
        del ends
        amounts = [e[2] for e in edges]
        amount = np.array(amounts, dtype=np.float64)
        if np.any(codes < 0):
            raise ValueError("a vertex id is None or NaN")
        u, v = codes[0::2].astype(np.int64), codes[1::2].astype(np.int64)
        if np.any(u == v) or not np.all(np.isfinite(amount)):
            raise ValueError("a self-loop or a non-finite amount")
        default_a, vsusp = self._default_a, metric.vsusp
        new_a = [default_a if (p := priors.get(x)) is None else float(vsusp(p)) for x in new]
        a = np.array(new_a, dtype=np.float64)
        if not np.all((a >= 0) & (a < math.inf)):
            raise ValueError(f"metric {metric.name}: a vertex suspiciousness is not finite and >= 0")
        # Rank of each edge among the load's edges into its dst, from 1.
        by_dst = np.argsort(v, kind="stable")
        sorted_v = v[by_dst]
        head = np.ones(m, dtype=bool)
        head[1:] = sorted_v[1:] != sorted_v[:-1]
        rank = np.arange(1, m + 1) - np.maximum.accumulate(np.where(head, np.arange(m), 0))
        deg = np.empty(m, dtype=np.int64)
        deg[by_dst] = rank
        c = np.fromiter(map(metric.esusp, map(float, amounts), deg.tolist()),
                        dtype=np.float64, count=m)
        if not np.all((c > 0) & (c < math.inf)):
            raise ValueError(f"metric {metric.name}: an edge suspiciousness is not finite and > 0")
        return u, v, c, new, new_a

    def _rebuild_sequence(self, ptr: np.ndarray, nbr: np.ndarray, c: np.ndarray) -> None:
        """Static peel of the current graph, given as CSR (``bulk_load``).

        Allocates the slot arrays behind a front gap for head insertions
        and enters the whole sequence into Detect as one rewritten span.
        """
        n = self.n_vertices
        order, delta = peel_sequence(n, ptr, nbr, c, self._a)
        pad = max(64, n // 4)
        self._order = np.empty(pad + n, dtype=np.int64)
        self._order[pad:] = order
        self._delta = np.empty(pad + n, dtype=np.float64)
        self._delta[pad:] = delta
        self._F = np.empty(pad + n, dtype=np.float64)
        n_blocks = -(-(pad + n) // self._block)
        self._off = np.zeros(n_blocks, dtype=np.float64)
        self._pend = np.zeros(n_blocks, dtype=np.float64)
        self._bmax = np.zeros(n_blocks, dtype=np.float64)
        self._barg = np.zeros(n_blocks, dtype=np.int64)
        self._lo = pad
        self._hi = self._det_lo = pad + n  # no F slot valid yet
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
        ``_hi``, so slots at or past ``end`` keep ``F``; slots before
        ``first`` keep their ``Δ`` and shift ``F`` by one constant, the
        change of ``F[first]``, which blocks wholly ahead of the span
        take as a lazy offset; only ``[first, end)`` is re-accumulated
        and only its blocks are rescanned. A block whose offset grew
        since its last scan is rescanned only if its bound could still
        win. Slots before ``_det_lo`` (head-inserted vertices, or every
        slot after a static peel) join the span. An empty span leaves
        the state and ``S^P`` as they stand. The earliest slot wins a
        tie, as in :func:`~repro.core.peel.best_community`; ``S^P`` is
        rebuilt only when the winning suffix could have changed.
        """
        lo, hi, det_lo = self._lo, self._hi, self._det_lo
        first, end = span
        if lo < det_lo:
            first, end = lo, max(end, det_lo)
            self._det_lo = lo
        if first >= end:
            return set()  # no slot rewritten (always so for an empty sequence)
        fb = ffi.from_buffer
        b = lib.detect(
            fb("double[]", self._F), fb("double[]", self._delta),
            fb("double[]", self._off), fb("double[]", self._pend),
            fb("double[]", self._bmax), fb("int64_t[]", self._barg),
            lo, hi, first, end, self._block,
        )
        best = int(self._barg[b])
        self._best_g = float(self._bmax[b])
        if hi - best == len(self._community) and end <= best:
            return set()  # same size, and the reorder wrote only before it
        new_comm = set(map(int, self._order[best:hi]))
        fresh = new_comm - self._community
        self._community = new_comm
        return {self._ext_of[v] for v in fresh}

    def detect(self) -> Tuple[Set[Hashable], float]:
        """Current fraudulent community and its density (paper ``Detect``)."""
        return self.community_external(), self._best_g

    def _suffix_densities(self) -> np.ndarray:
        """``g(S_j)`` of every slot, materialised from the block state."""
        lo, hi = self._lo, self._hi
        slots = np.arange(lo, hi)
        return (self._F[lo:hi] + self._off[(hi - 1 - slots) // self._block]) / (hi - slots)

    # ------------------------------------------------------------------
    # front-gap management for head insertions of new vertices
    # ------------------------------------------------------------------
    def _ensure_front_gap(self, m: int) -> None:
        if self._lo >= m:
            return
        pad = max(64, m, (self._hi - self._lo) // 4)
        shift = pad - self._lo + m
        for name in ("_order", "_delta", "_F"):
            old = getattr(self, name)
            grown = np.empty(len(old) + shift, dtype=old.dtype)
            grown[shift:] = old
            setattr(self, name, grown)
        # Block ids count back from _hi, so existing blocks keep theirs and
        # the new ones, all ahead of the sequence, start without offsets.
        extra = -(-len(self._order) // self._block) - len(self._off)
        for name in ("_off", "_pend", "_bmax", "_barg"):
            old = getattr(self, name)
            setattr(self, name, np.concatenate((old, np.zeros(extra, dtype=old.dtype))))
        self._barg += shift
        self._lo += shift
        self._hi += shift
        self._det_lo += shift  # F and the block state moved with their slots
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
        # The kernel's views of the slot arrays; nothing reallocates them
        # during a reorder.
        fb = ffi.from_buffer
        c_order, c_delta, c_pos = (
            fb("int64_t[]", order), fb("double[]", delta), fb("int64_t[]", pos)
        )
        white_run = lib.white_run
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
            # stays strictly below Δ_min (at Δ = Δ_min the pop branch
            # takes over). The kernel scans the run and moves it to
            # ``out``; the run stops at the next black or gray slot.
            while gray_heap and gray_heap[0] <= k:
                heapq.heappop(gray_heap)
            nb = black_pos[bi] if bi < len(black_pos) else end
            ng = gray_heap[0] if gray_heap else end
            event = white_run(c_order, c_delta, c_pos, k, out, min(nb, ng, end), dmin)
            out += event - k
            k = event
        return (first, stop) if first is not None else (end, end)

    # ------------------------------------------------------------------
    # public update APIs (paper Listing 1)
    # ------------------------------------------------------------------
    def insert_edge(self, src: Hashable, dst: Hashable, amount: float = 1.0) -> Set[Hashable]:
        """InsertEdge: apply one edge and reorder (§4.1). Returns new fraudsters."""
        return self.insert_batch([(src, dst, amount)])

    def insert_batch(
        self,
        edges: Sequence[EdgeLike],
        priors: Optional[Dict[Hashable, Optional[float]]] = None,
    ) -> Set[Hashable]:
        """InsertBatchEdges: apply ``ΔE`` and reorder once (Algorithm 2).

        Buffered benign edges arrived first, so they join the batch ahead
        of ``edges`` and the buffer empties once the batch is applied. The
        batch is validated as a whole first: a rejected batch raises
        ``ValueError`` and leaves the engine and the buffer untouched.
        """
        buffered = self._benign_buffer
        if buffered and edges is not buffered:
            edges = buffered + list(edges)
        cs, new_a = self._weigh(edges, priors or {})
        for ext, a in new_a.items():
            self._insert_head(self._intern(ext, a))
        fresh = self._refresh_detection(self._reorder(self._add_edges(edges, cs)))
        if buffered:
            self._benign_buffer = []
            self._buffered_in.clear()
        return fresh

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
        The edge is validated on arrival at the in-degree its object
        vertex will have when the buffer is flushed; every later insert
        applies the buffer ahead of its own edges, so those degrees hold.
        A call that raises leaves the graph, the sequence and the buffer
        as they were.
        """
        self._weigh([(src, dst, amount)], {}, queued=self._buffered_in)
        urgent = not self.is_benign(src, dst, amount)
        self._benign_buffer.append((src, dst, amount))
        self._buffered_in[dst] += 1
        if urgent or (max_buffer is not None and len(self._benign_buffer) >= max_buffer):
            try:
                return self.flush_buffer()
            except ValueError:
                self._benign_buffer.pop()
                self._buffered_in[dst] -= 1
                raise
        return set()

    def flush_buffer(self) -> Set[Hashable]:
        """Force-apply any buffered benign edges (end-of-stream flush).

        The buffer is emptied only once its batch is applied: a rejected
        flush raises ``ValueError`` and keeps every buffered edge.
        """
        if not self._benign_buffer:
            return set()
        return self.insert_batch(self._benign_buffer)
