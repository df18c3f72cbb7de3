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
whites are emitted *in bulk*: the walk scans forward to the first
``Δ >= Δ_min`` or the first black or gray slot and moves the run down
to the output slot. The walk touches only the affected area ``G_T``
(T entries, pops, and gray recoveries) plus the slots it moves, which
is what makes per-edge maintenance orders of magnitude faster than a
scratch peel.

Emissions are written back in place as the frontier advances, and
``Detect`` keeps ``f`` per suffix size under per-block lazy offsets and
each block's best ``g``, so an update re-accumulates suffix weights and
rescans only over the whole blocks its reorder rewrote (the compiled
kernel in :mod:`repro.core.kernel`), and only over the suffixes short
enough to win: none of more than ``f(S_0) / g(S^P)`` vertices can, since
every ``Δ`` is >= 0. That span update is the only way
``Detect`` is computed: a static peel enters as one span over every
slot, head-inserted slots join their batch's span (or are the span, when
the reorder rewrote nothing), and an empty batch rewrites an empty span.
A head insertion only adds longer suffixes, so a front-gap regrow moves
the slot arrays alone.

The graph is one row per vertex in a shared numpy pool (see
:mod:`repro.core.kernel`): a row fills its room, then moves to the
pool's end with twice the room, and the pool doubles when it is full.
The walk runs in the kernel over those rows, the slot arrays and one
colour byte per vertex, and returns to Python only when the head of
``T`` must pop; what stays in Python is ``T``'s ``heapq`` heap of
``(w, vid)`` entries, which are live or not by the kernel's weights
``tw`` and colour bytes, the only record of ``T``'s weights.

Complexity: ``O(|E_T| log |V_T|)`` heap work per update in Python (a
push per vertex entering ``T`` and per weight update of a ``T`` member,
a pop per emission), one kernel call per pop, plus work in C in proportion to the edges of the
recovered, popped and relaxed vertices and to the slots the walk moves
(the white-run scans, one ``memmove`` of ``O`` and ``Δ`` per run and
the ``pos`` rewrite), plus ``O(span + BLOCK)`` for ``Detect``'s one pass
over the rewritten span's whole blocks below its window ``D``, which
re-accumulates their suffix weights and rescans them, plus ``O(D)`` for
``Detect`` to shift the longer kept suffixes' offsets and pick the best
block, plus one ``O(BLOCK)`` pass per stale block (offset not 0) whose
bound still wins and per block the window grows by. The window holds the
blocks of the suffixes of at most ``f(S_0) / g(S^P)`` vertices (6 of 182
blocks on grab2_lite DW), so a span beyond it costs ``O(1)``; where that
bound excludes nothing, ``D`` is every block and the cost is the
``O(span + n / BLOCK)`` of keeping them all. Every edge, loaded or
inserted, is applied by one kernel call per batch (``add_edges``), in
``O(min(deg u, deg v))`` per edge: it scans the shorter endpoint row for
a parallel edge and reaches the twin entry in
the other row through the pool's ``mate`` index.

A ``bulk_load`` of an empty engine weighs its load on columns instead:
``_weigh_columns`` checks and weighs the whole load with numpy and one
``pd.factorize``, calling ``esusp`` once per edge. Each row then gets
room for its distinct neighbours, in vid order (one ``np.unique`` of the
pair keys), so the same ``add_edges`` leaves the pool as CSR; the static
peel of :func:`~repro.core.peel.peel_sequence` runs its
``O(|E| log |V|)`` heap loop in C over it.
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

#: Per-vertex arrays, grown together by ``_reserve``, and the value a new
#: vid's entry starts with: its absolute slot, its row in the pool, its
#: suspiciousness ``a_i``, ``w_v(S_0)`` (``a_v`` plus its incident weight),
#: its in-degree (FD's object degree), the reorder's colour byte, the
#: walk's scratch space (see :mod:`repro.core.kernel`), and ``Detect``'s
#: ``F``, one entry per suffix size instead (see ``_refresh_detection``).
_VERTEX = (("_pos", np.int64, -1), ("_rstart", np.int64, 0), ("_rlen", np.int64, 0),
           ("_rcap", np.int64, 0), ("_a", np.float64, 0.0), ("_w0", np.float64, 0.0),
           ("_in_deg", np.int64, 0), ("_color", np.uint8, 0),
           ("_tw", np.float64, 0.0), ("_pv", np.int64, 0),
           ("_black", np.int64, 0), ("_touched", np.int64, 0), ("_F", np.float64, 0.0))

#: ``Detect``'s block arrays, one entry per ``BLOCK`` vertices, grown with
#: the vertex arrays.
_BLOCKS = (("_off", np.float64, 0.0), ("_bmax", np.float64, 0.0), ("_barg", np.int64, 0))

#: The kernel state's array fields; each points at the engine attribute of
#: the same name with a leading underscore.
_POINTERS = [(name, field.type) for name, field in ffi.typeof("spade_t").fields
             if field.type.kind == "pointer"]


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
        # The combined in+out weighted adjacency: row v is _nbr/_c over
        # [_rstart[v], _rstart[v] + _rlen[v]), with room for _rcap[v]
        # entries, and _mate[j] is the index of entry j's twin; the kernel
        # state holds how much of the pool is used.
        self._nbr = np.empty(0, dtype=np.int64)
        self._c = np.empty(0, dtype=np.float64)
        self._mate = np.empty(0, dtype=np.int64)
        for name, dtype, _ in _VERTEX + _BLOCKS:
            setattr(self, name, np.empty(0, dtype=dtype))
        self._f_total = np.zeros(1)  # f(S_0), which the kernel adds to
        self._n_edges = 0
        # --- peeling sequence (front-gapped numpy backing arrays) ----------
        self._order = np.empty(0, dtype=np.int64)  # valid slots: [_lo, _hi)
        self._delta = np.empty(0, dtype=np.float64)  # aligned with _order
        self._lo = 0
        self._hi = 0
        # --- detection state ----------------------------------------------
        # _F and the block arrays above are indexed by suffix size, in
        # blocks of _block suffixes (see _refresh_detection).
        self._block = BLOCK
        self._best_g = 0.0
        self._community: Set[int] = set()
        # --- edge grouping -------------------------------------------------
        self._benign_buffer: List[EdgeLike] = []
        self._buffered_in: Counter = Counter()  # buffered edges per object vertex
        # --- the kernel's view of the arrays above -------------------------
        self._ctx = ffi.new("spade_t *")
        self._point()

    def _point(self) -> None:
        """Point the kernel state at the engine's arrays.

        Called whenever one of them is reallocated: the vertex and block
        arrays, the pool, or the slot arrays.
        """
        s, fb = self._ctx, ffi.from_buffer
        for name, ctype in _POINTERS:
            setattr(s, name, fb(ctype, getattr(self, "_" + name)))
        s.size = len(self._nbr)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_ctx"]
        # The pool's fill and Detect's window; the rest of the struct lasts one call.
        state["_used"], state["_D"] = self._ctx.used, self._ctx.D
        return state

    def __setstate__(self, state: dict) -> None:
        used, D = state.pop("_used"), state.pop("_D")
        self.__dict__.update(state)
        self._ctx = ffi.new("spade_t *")
        self._point()
        self._ctx.used, self._ctx.D = used, D

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
        return float(self._f_total[0])

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
        """The graph as ``(n, adj, a)`` for scratch comparisons.

        ``adj[v]`` is a fresh dict of row ``v`` in row order, so it holds
        the floats a dict adjacency would, in its key order.
        """
        n = self.n_vertices
        used = self._ctx.used
        nbr, c = self._nbr[:used].tolist(), self._c[:used].tolist()
        adj = [dict(zip(nbr[p : p + k], c[p : p + k]))
               for p, k in zip(self._rstart[:n].tolist(), self._rlen[:n].tolist())]
        return n, adj, self._a[:n].tolist()

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
                deg = int(self._in_deg[vid]) if vid is not None else 0
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

    def _add_vertices(self, ids: Sequence[Hashable], a: Sequence[float]) -> None:
        """Register the new vertices ``ids`` with suspiciousness ``a`` (validated).

        They take the next vids in order, and their mass joins ``f_total``
        one vertex at a time, in vid order.
        """
        n, k = len(self._ext_of), len(ids)
        self._vid_of.update(zip(ids, range(n, n + k)))
        self._ext_of.extend(ids)
        self._reserve(n + k)
        self._a[n : n + k] = self._w0[n : n + k] = a
        f_total = float(self._f_total[0])
        for x in a:
            f_total += x
        self._f_total[0] = f_total

    def _reserve(self, n: int) -> None:
        """Grow the vertex arrays (doubling, from 64) to hold vids below ``n``,
        and the block arrays with them."""
        size = len(self._pos)
        if n <= size:
            return
        while size < n:
            size = max(64, 2 * size)
        for arrays, length in ((_VERTEX, size), (_BLOCKS, -(-size // self._block))):
            for name, dtype, fill in arrays:
                old = getattr(self, name)
                grown = np.full(length, fill, dtype=dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
        self._point()

    def _grow_pool(self, size: int) -> None:
        """Reallocate the pool to ``size`` entries, keeping the used ones."""
        used = self._ctx.used
        for name in ("_nbr", "_c", "_mate"):
            old = getattr(self, name)
            grown = np.empty(size, dtype=old.dtype)
            grown[:used] = old[:used]
            setattr(self, name, grown)
        self._point()

    def _add_edges(self, u: Sequence[int], v: Sequence[int], c: Sequence[float]) -> None:
        """Apply the validated edges ``(u[i], v[i], c[i])`` in order.

        One kernel ``add_edges`` call applies them to the rows, ``_w0``,
        ``_in_deg`` and ``f_total``; where the pool runs short, it doubles
        (from 64 entries) and the call resumes at that edge.
        """
        s, m = self._ctx, len(c)
        i = lib.add_edges(s, 0, m, u, v, c)
        while i < m:
            self._grow_pool(max(64, 2 * len(self._nbr)))
            i = lib.add_edges(s, i, m, u, v, c)
        self._n_edges += m

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
        was. The load is weighed on columns (:meth:`_weigh_columns`);
        each row gets room for its distinct neighbours, in vid order, so
        ``add_edges`` fills the pool as CSR, and the static peel runs over
        it. It leaves the same rows, vertex weights, degrees, vids and
        ``f_total``, to the bit, as ``insert_batch`` of the same edges
        would.
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
        self._add_vertices(new, new_a)
        # Row x's room is its number of distinct neighbours, rows in vid
        # order; the pool keeps 2m entries, as many as the load's half-edges.
        pairs = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
        room = np.bincount(pairs // n, minlength=n) + np.bincount(pairs % n, minlength=n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(room, out=ptr[1:])
        self._rstart[:n] = ptr[:-1]
        self._rcap[:n] = room
        self._grow_pool(2 * m)
        self._ctx.used = int(ptr[n])
        fb = ffi.from_buffer
        self._add_edges(fb("int64_t[]", u), fb("int64_t[]", v), fb("double[]", c))
        del u, v, c, pairs  # free the load's columns before the peel
        self._rebuild_sequence(ptr)

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

    def _rebuild_sequence(self, ptr: np.ndarray) -> None:
        """Static peel of the loaded graph, whose rows are CSR ``ptr`` (``bulk_load``).

        Allocates the slot arrays behind a front gap for head insertions
        and enters the whole sequence into Detect as one rewritten span.
        """
        n, m = self.n_vertices, int(ptr[-1])
        order, delta = peel_sequence(n, ptr, self._nbr[:m], self._c[:m], self._a[:n])
        pad = max(64, n // 4)
        self._order = np.empty(pad + n, dtype=np.int64)
        self._order[pad:] = order
        self._delta = np.empty(pad + n, dtype=np.float64)
        self._delta[pad:] = delta
        self._lo = pad
        self._hi = pad + n
        self._pos[self._order[pad:]] = np.arange(pad, pad + n, dtype=np.int64)
        self._point()
        self._refresh_detection((self._lo, self._hi))

    # ------------------------------------------------------------------
    # detection (the paper's Detect): argmax_i g(S_i) over the sequence
    # ------------------------------------------------------------------
    def _refresh_detection(self, span: Tuple[int, int]) -> Set[Hashable]:
        """Update the suffix densities; return the *new* fraudsters (ext ids).

        ``span = (first, end)`` is the slot range whose ``Δ`` changed:
        the reorder's rewritten span joined with any head-inserted slots,
        or the whole sequence after a static peel. The state is indexed by
        suffix size: ``r`` is the suffix of ``r + 1`` vertices ending at
        the tail, from slot ``_hi - 1 - r``, so ``f = _F[r] + _off[r //
        _block]`` and ``g = f / (r + 1)``. ``_off[b]`` is the gain block
        ``b`` has had since it was last exact, and ``_bmax[b]``/``_barg[b]``
        its best ``g`` and longest best suffix as of then. A head insertion
        only adds longer suffixes, so no index moves when the sequence
        grows at the head or its front gap regrows. Only the blocks below
        the window ``D`` (the kernel state's ``D``) are kept: every ``Δ``
        is >= 0, so ``g`` of a suffix of more than ``D * _block`` vertices
        is at most ``f_total / (D * _block + 1)``, and while that bound is
        below the best, none of them can win. Suffixes shorter than the
        span keep ``F``, and longer ones keep their ``Δ`` and shift ``f``
        by one constant, the change of ``f`` at the span's longest suffix.
        The span's kept blocks are re-accumulated and rescanned whole; the
        longer kept blocks take the shift as a lazy offset, and such a
        stale block is rescanned only if its bound could still win. When
        the bound beyond the window reaches the best, the window grows a
        block at a time, each re-accumulated from the block below it;
        after the query it drops to the first block the bound excludes,
        above the winner's. An empty span leaves the state and ``S^P`` as
        they stand. The longest suffix, the earliest slot, wins a tie, as in
        :func:`~repro.core.peel.best_community`; ``S^P`` is rebuilt only
        when the winning suffix could have changed.
        """
        lo, hi = self._lo, self._hi
        first, end = span
        if first >= end:
            return set()  # no slot rewritten (always so for an empty sequence)
        b = lib.detect(self._ctx, lo, hi, first, end, self._block)
        best = hi - 1 - int(self._barg[b])
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
        """``g(S_j)`` of every slot, materialised without writing any state:
        from the block state below the window, and beyond it summed up from
        the window's edge as ``detect`` would re-accumulate it."""
        n, B = self._hi - self._lo, self._block
        k = min(self._ctx.D * B, n)  # the suffixes the block state keeps
        r = np.arange(n)
        f = self._F[:n] + self._off[r // B]
        anchor = f[k - 1] if k else 0.0
        f[k:] = np.cumsum(self._delta[self._lo : self._hi][::-1][k:]) + anchor
        return (f / (r + 1))[::-1]  # slot _lo + i starts suffix n - 1 - i

    # ------------------------------------------------------------------
    # front-gap management for head insertions of new vertices
    # ------------------------------------------------------------------
    def _ensure_front_gap(self, m: int) -> None:
        """Make room for ``m`` slots ahead of ``_lo``, moving the sequence back."""
        if self._lo >= m:
            return
        pad = max(64, m, (self._hi - self._lo) // 4)
        shift = pad - self._lo + m
        for name in ("_order", "_delta"):
            old = getattr(self, name)
            grown = np.empty(len(old) + shift, dtype=old.dtype)
            grown[shift:] = old
            setattr(self, name, grown)
        self._lo += shift
        self._hi += shift
        self._pos[self._order[self._lo : self._hi]] += shift
        self._point()

    def _insert_head(self, k: int) -> None:
        """Place the ``k`` newest vertices at the head of the sequence (§4.1).

        They take the slots one-at-a-time head insertion leaves them in,
        the last-seen first. Each stored ``Δ`` is initialized to 0 exactly
        as in the paper. This is load-bearing for correctness, not just
        convention: the stored Δ of the frontier slot lower-bounds every
        pending vertex's weight (Case 1 pops only below it), and 0 is the
        only sound bound for a slot with no greedy history. The vertices
        are always black, so their true weights are recovered on reorder.
        """
        self._ensure_front_gap(k)
        n, lo = self.n_vertices, self._lo - k
        self._lo = lo
        self._order[lo : lo + k] = np.arange(n - 1, n - k - 1, -1)
        self._delta[lo : lo + k] = 0.0
        self._pos[n - k : n] = np.arange(lo + k - 1, lo - 1, -1)

    # ------------------------------------------------------------------
    # the incremental reorder (Algorithm 2; 𝒯 is the |ΔE|=1 case)
    # ------------------------------------------------------------------
    def _reorder(self, black: Set[int]) -> Tuple[int, int]:
        """Reorder the sequence for a batch whose endpoints are ``black``.

        Returns the slot range ``(first, end)`` it rewrote, empty
        (``first >= end``) when every emission landed in place or the
        batch is empty.

        The kernel's ``walk`` moves the frontier (white runs, recoveries,
        in-place emissions, gray colouring, the write-back) and stops when
        the head of T must pop, handing over the vids that entered T or
        changed weight since. Here each joins the pending queue ``T`` at
        its kernel weight ``tw[v]``: a ``heapq`` min-heap on ``(w, vid)``
        with lazy deletion. An entry is live iff its vertex is not the one
        just popped, still has the ``IN_T`` colour bit and weighs ``w``;
        the popped vertex leaves T only inside ``relax``, and an edge too
        light to change a weight (``tw - c == tw``, weights 2^53 or more
        apart) queues a twin of a live entry. The paper pops on
        ``Δ_min < Δ_k``; the walk pops on *equality* too, an equally valid
        greedy tie-break (pending weights are still ``>= Δ_k >= Δ_min``)
        that is load-bearing for performance: integer-weight metrics (DG)
        produce long Δ-plateaus, and a queued vertex that cannot pop at its
        own weight would ride the whole plateau, dragging every gray
        neighbour into T (the paper's own IncDG is ~1000x slower than
        IncFD for exactly this reason). ``relax`` then writes the popped
        vertex, updates its neighbours in T and walks on from the new head
        weight.
        """
        if not black:
            return (self._hi, self._hi)
        s, pv, tw, color = self._ctx, self._pv, self._ctx.tw, self._ctx.color
        push, pop, relax, in_t = heapq.heappush, heapq.heappop, lib.relax, lib.IN_T
        self._black[: len(black)] = list(black)
        s.end = self._hi
        heap: List[Tuple[float, int]] = []
        queued = lib.walk(s, len(black))
        while queued >= 0:
            for v in pv[:queued].tolist():
                push(heap, (tw[v], v))
            # The head is live: the prune after the last pop left a live
            # head with no smaller entry under it, and a vertex whose weight
            # fell since came back with a smaller entry.
            _, vmin = pop(heap)
            # vmin leaves T in relax; an absorbed edge (tw - c == tw) can queue its twin.
            while heap:
                w, v = heap[0]
                if v != vmin and color[v] & in_t and tw[v] == w:
                    break
                pop(heap)
            queued = relax(s, vmin, heap[0][0] if heap else math.inf)
        return s.first, s.stop

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
        k = len(new_a)
        if k:
            self._add_vertices(list(new_a), list(new_a.values()))
            self._insert_head(k)
        vid_of = self._vid_of
        u = [vid_of[e[0]] for e in edges]
        v = [vid_of[e[1]] for e in edges]
        self._add_edges(u, v, cs)
        first, end = self._reorder(set(u).union(v))
        if k:  # the head-inserted slots join the span, or are the span
            end = max(end, self._lo + k) if first < end else self._lo + k
            first = self._lo
        fresh = self._refresh_detection((first, end))
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
        deg = (int(self._in_deg[v]) if v is not None else 0) + 1
        c = float(self.metric.esusp(float(amount), deg))
        w_u = float(self._w0[u]) if u is not None else self._default_a
        w_v = float(self._w0[v]) if v is not None else self._default_a
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
