"""The compiled kernel: its build cache and warnings, the engine's vertex
arrays against its state's pointers, the walk's white run
and ``detect`` against numpy, the rows, vertex sums and mates that ``add_edges`` leaves
against a dict oracle, also where it stops short and resumes, and the
input checks that guard ``peel``."""
import copy
import math
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import DW, SpadeEngine, kernel
from repro.core import peel as peel_mod
from tests.helpers import assert_engine_valid, white_run_reference

SRC = Path(kernel.__file__).resolve().parents[2]


def test_second_import_reuses_the_cached_module(monkeypatch):
    path = kernel._build()
    assert path.name.startswith(f"_spade_kernel_{kernel._key(kernel.SOURCE)}")
    before = path.stat()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", "import repro.core.engine"], env=env, check=True)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached module was rebuilt")

    monkeypatch.setattr(kernel.subprocess, "run", no_compiler)
    assert kernel._build() == path


def test_key_covers_source_and_flags(monkeypatch):
    key = kernel._key(kernel.SOURCE)
    assert kernel._key(kernel.SOURCE + "\n/* changed */\n") != key
    assert kernel._key(kernel.SOURCE, kernel.CDEF + "\n") != key
    monkeypatch.setattr(kernel, "FLAGS", kernel.FLAGS + ["-O3"])
    assert kernel._key(kernel.SOURCE) != key


def test_failed_build_raises_with_compiler_output():
    with pytest.raises(ImportError, match="error: expected expression"):
        kernel._build("int broken(void) { return }", "int broken(void);")
    leftovers = [p for p in kernel._BUILD_DIR.iterdir() if p.is_dir()]
    assert leftovers == [], "a failed build left its temporary directory behind"


def test_source_compiles_with_warnings_as_errors(tmp_path):
    """The kernel's C source, on its own, compiles clean under -Wall -Wextra."""
    source = tmp_path / "kernel.c"
    source.write_text(kernel.SOURCE)
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    done = subprocess.run([*cc, "-c", *kernel.FLAGS, "-Wall", "-Wextra", "-Werror",
                           str(source), "-o", str(tmp_path / "kernel.o")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_vertex_array_is_a_kernel_pointer():
    """Each per-vertex array the engine grows is a pointer field of the
    kernel state, and each pointer field has an engine array of its name,
    so the engine keeps no array the kernel never reads."""
    pointers = {name for name, field in kernel.ffi.typeof("spade_t").fields
                if field.type.kind == "pointer"}
    vertex = {name[1:] for name, _, _ in engine_mod._VERTEX}
    assert vertex <= pointers, vertex - pointers
    eng = SpadeEngine(DW)
    assert all(isinstance(getattr(eng, "_" + name, None), np.ndarray) for name in pointers)


@st.composite
def white_runs(draw):
    """A sequence, a white frontier ``k`` with ``out <= k`` and what stops
    the run at ``limit > k``: the sequence's end, or a gray or black slot
    there. Δ values repeat often."""
    n = draw(st.integers(1, 24))
    order = draw(st.permutations(range(n)))
    delta = draw(st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    out = draw(st.integers(0, k))
    limit = draw(st.integers(k + 1, n))
    stop = "end" if limit == n else draw(st.sampled_from(["end", "gray", "black"]))
    dmin = draw(st.one_of(st.just(math.inf), st.sampled_from(delta),
                          st.floats(-1.0, 5.0, allow_nan=False)))
    return order, delta, k, out, limit, stop, dmin


def kernel_state(arrays):
    """A kernel state pointing at ``arrays``, a dict of its field names to
    numpy arrays, which the caller keeps alive."""
    s = kernel.ffi.new("spade_t *")
    fields = dict(kernel.ffi.typeof("spade_t").fields)
    for name, arr in arrays.items():
        setattr(s, name, kernel.ffi.from_buffer(fields[name].type, arr))
    return s


def walk_state(order, delta, pos, color, a):
    """A kernel state over these arrays, with no edges; returns it and the
    arrays it points at, which the caller keeps alive."""
    n = len(pos)
    arrays = {"order": order, "delta": delta, "pos": pos, "color": color, "a": a,
              "rstart": np.zeros(n, dtype=np.int64), "rlen": np.zeros(n, dtype=np.int64),
              "tw": np.zeros(n), "pv": np.zeros(n, dtype=np.int64),
              "touched": np.zeros(n, dtype=np.int64)}
    return kernel_state(arrays), arrays


@settings(max_examples=300, deadline=None)
@given(white_runs())
# dmin = inf: the run reaches the end
@example(([2, 0, 3, 1], [0.0, 1.0, 2.0, 3.0], 0, 0, 4, "end", math.inf))
# dmin equals a stored Δ: equality stops the run
@example(([0, 1, 2, 3, 4], [0.0, 1.0, 2.0, 2.0, 1.0], 1, 0, 5, "end", 2.0))
# only slot k is emitted, in place or moved
@example(([0, 1, 2], [0.0, 1.0, 2.0], 1, 0, 2, "end", math.inf))
@example(([0, 1, 2], [0.0, 1.0, 2.0], 1, 1, 2, "gray", math.inf))
# out < k with the moved range overlapping its source, stopped by a black slot
@example(([6, 5, 4, 3, 2, 1, 0], [3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0], 2, 1, 5, "black", 4.0))
# a run of 10 slots moved down by one, the largest overlap
@example((list(range(11, -1, -1)), [4.0] + [0.0, 1.0] * 5 + [2.0], 1, 0, 12, "end", math.inf))
def test_walk_white_run_matches_numpy_reference(case):
    """The walk ``relax`` resumes after a pop, at a white frontier ``k``
    with T non-empty, moves the white run that :func:`white_run_reference` moves.
    The case gets a slot in front, holding an edgeless vertex in T that
    ``relax`` pops to the slot before ``out``, so every slot of the case
    sits one further on. A gray or black slot at ``limit`` stops the run;
    its vertex, whose weight is out of reach, then enters T, and the
    sequence's end follows it, so the walk stops there for the pop."""
    order, delta, k, out, limit, stop, dmin = case
    n = len(order) + 1
    popped = n - 1
    order = np.array([popped, *order], dtype=np.int64)
    delta = np.array([0.0, *delta], dtype=np.float64)
    k, out, limit = k + 1, out + 1, limit + 1
    pos = np.full(n + 3, -7, dtype=np.int64)  # vids past n are not in the sequence
    pos[order] = np.arange(n)
    color = np.zeros(n + 3, dtype=np.uint8)
    color[popped] = kernel.lib.IN_T
    a = np.full(n + 3, 1e300)
    end = limit if stop == "end" else limit + 1
    if stop != "end":
        color[order[limit]] = {"gray": 2, "black": 1}[stop]
    s, keep = walk_state(order, delta, pos, color, a)
    keep["tw"][popped] = 0.25
    s.k, s.out, s.end, s.nT, s.first = k, out - 1, end, 2, -1
    want = [order.copy(), delta.copy(), pos.copy()]
    want[0][out - 1], want[1][out - 1], want[2][popped] = popped, 0.25, out - 1
    before = [x.copy() for x in want]
    queued = kernel.lib.relax(s, popped, dmin)

    assert (order[out - 1], delta[out - 1], pos[popped]) == (popped, 0.25, out - 1)
    assert not color[popped] & kernel.lib.IN_T
    if dmin <= delta[k]:  # the head of T pops before any white slot
        want_event = k
    else:
        want_event = white_run_reference(*want, k, out, limit, dmin)
    for got, exp in zip((order, delta, pos), want):
        np.testing.assert_array_equal(got, exp)
    entered = stop != "end" and want_event == limit and delta[limit] < dmin
    assert queued == int(entered)
    assert (s.k, s.out) == (want_event + entered, out + want_event - k)
    if entered:
        assert (s.pv[0], s.first, color[order[limit]] & 4) == (order[limit], limit, 4)
    moved = np.zeros(n, dtype=bool)
    moved[out : out + want_event - k] = out != k
    for got, old in zip((order, delta), before):
        np.testing.assert_array_equal(got[~moved], old[~moved])
    kept = np.ones(n + 3, dtype=bool)
    kept[order[moved]] = False
    np.testing.assert_array_equal(pos[kept], before[2][kept])


B = 4  # slots per Detect block in the kernel's detect tests


def tail_sums(delta):
    """``f(S_j)`` of every slot: the sum of ``delta`` from ``j`` to the end."""
    return np.cumsum(delta[::-1])[::-1]


def block_best(g, b):
    """Best of block ``b`` of ``g``, indexed by suffix, and its longest best
    suffix (the earliest slot)."""
    block = g[b * B : (b + 1) * B]
    i = len(block) - 1 - int(np.argmax(block[::-1]))
    return block[i], b * B + i


@st.composite
def detect_cases(draw):
    """A Detect block state for the slots ``[lo, hi)``, exact for the old Δ
    under its offsets, the gain each block has had since it was last exact, the span
    ``[first, end)`` a reorder rewrote and the span's new Δ. Integer Δs and
    offsets keep every ``f(S_j)`` exact, so equal densities are equal
    doubles: ties are real ties."""
    lo = draw(st.integers(0, 3))
    hi = lo + draw(st.integers(1, 22))
    first = draw(st.integers(lo, hi - 1))
    end = draw(st.integers(first + 1, hi))
    nb = -(-(hi - lo) // B)
    small = st.integers(0, 3).map(float)
    old = draw(st.lists(small, min_size=hi - lo, max_size=hi - lo))
    new = draw(st.lists(small, min_size=end - first, max_size=end - first))
    off = draw(st.lists(st.integers(-5, 5).map(float), min_size=nb, max_size=nb))
    return lo, hi, first, end, old, new, off


@settings(max_examples=400, deadline=None)
@given(detect_cases())
# a span from a block's bottom slot: only earlier blocks take the shift
@example((0, 12, 4, 10, [1.0, 2.0, 0.0, 3.0] * 3, [3.0] * 6, [2.0, -1.0, 4.0]))
# a span that ends at hi, the anchor f = 0
@example((1, 13, 5, 13, [2.0, 1.0, 0.0] * 4, [0.0, 1.0] * 4, [1.0, -3.0, 5.0]))
# a span inside one block, with slots of that block on both sides of it
@example((1, 13, 6, 8, [0.0, 3.0, 1.0] * 4, [3.0, 3.0], [-2.0, 4.0, 1.0]))
# first == lo: every slot is re-accumulated from the span down
@example((2, 11, 2, 7, [1.0] * 9, [2.0, 0.0, 3.0, 1.0, 1.0], [3.0, -5.0, 2.0]))
# boundary blocks with nonzero offsets, which the span takes whole
@example((0, 16, 3, 10, [1.0, 0.0, 2.0, 3.0] * 4, [2.0] * 7, [5.0, -4.0, 3.0, -2.0]))
# a Δ plateau: g = 2 on every slot, across every block boundary; the
# earliest slot wins, also over stale blocks whose bound ties
@example((0, 14, 5, 9, [2.0] * 14, [2.0] * 4, [1.0, -1.0, 2.0, 0.0]))
@example((3, 15, 7, 12, [2.0] * 12, [2.0] * 5, [0.0, 4.0, -3.0]))
# block 2, ahead of the span, has a positive offset and wins on its
# bound: the query rescans it, adding the offset into F
@example((0, 12, 8, 10, [3.0] * 4 + [1.0] * 8, [2.0, 2.0], [0.0, 0.0, 3.0]))
# block 2 is stale and ties exact block 1 (g = 15/9 = 10/6), but its bound
# 12/9 + 3/9 rounds below 10/6: the tie must still go to the earlier slot
@example((2, 11, 8, 9, [2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 0.0, 1.0, 1.0], [3.0], [0.0, 0.0, 0.0]))
def test_detect_matches_full_recompute(case):
    """``detect`` after a span rewrite, with ``F`` and the blocks indexed by
    suffix: ``r`` is the suffix of ``r + 1`` slots ending at ``hi``, and
    block ``b`` holds the suffixes ``b*4 .. b*4 + 3``. ``F`` plus its
    block's offset is every suffix's new ``f``, the span's blocks end exact
    with no offset, each block without an offset holds its exact best and
    longest best suffix, and the block returned holds the sequence's best
    slot, the earliest on a tie. Nothing past the ``n`` suffixes and their
    blocks is written, and ``delta`` is only read."""
    lo, hi, first, end, old, new, off = case
    n, nb = hi - lo, len(off)
    r = np.arange(n)
    blk = r // B
    delta = np.full(hi + 2, 7.0)
    delta[lo:hi] = old
    f_old = tail_sums(delta[lo:hi])[::-1]
    off = np.array(off + [9.0])  # one block past nb, which detect must not touch
    F = np.full(n + 2, 5.0)
    F[:n] = f_old - off[blk]
    bmax, barg = np.full(nb + 1, 9.0), np.full(nb + 1, -9, dtype=np.int64)
    for b in range(nb):  # as of each block's last exact state, before off was gained
        bmax[b], barg[b] = block_best(F[:n] / (r + 1), b)
    delta[first:end] = new
    f = tail_sums(delta[lo:hi])[::-1]
    g = f / (r + 1)
    arrays = {"F": F, "delta": delta, "off": off, "bmax": bmax, "barg": barg}
    outside = [F[n:].copy(), delta.copy()]

    b = kernel.lib.detect(kernel_state(arrays), lo, hi, first, end, B)

    np.testing.assert_array_equal(F[:n] + off[blk], f)
    assert (hi - 1 - barg[b], bmax[b]) == (lo + int(np.argmax(g[::-1])), g.max())
    span_blocks = range((hi - end) // B, (hi - 1 - first) // B + 1)
    for k in range(nb):
        assert k not in span_blocks or off[k] == 0.0, f"span block {k} kept an offset"
        if off[k] == 0.0:
            assert (bmax[k], barg[k]) == block_best(g, k), f"block {k}"
        else:  # still a bound: g in block k exceeds bmax by at most off / size
            size = r[blk == k] + 1
            assert np.all(g[blk == k] <= bmax[k] + off[k] / size + 1e-12), f"block {k}"
    for got, want in zip([F[n:], delta], outside):
        np.testing.assert_array_equal(got, want)
    assert (off[nb], bmax[nb], barg[nb]) == (9.0, 9.0, -9)


def dict_rows(eng, edges, adj):
    """Apply ``edges`` to the dict oracle ``adj`` under DW (``c`` is the amount)."""
    for src, dst, c in edges:
        u, v = eng._vid_of[src], eng._vid_of[dst]
        for x, y in ((u, v), (v, u)):
            while len(adj) <= x:
                adj.append({})
            adj[x][y] = adj[x].get(y, 0.0) + c


def assert_rows_match(eng, adj):
    """Every row holds the oracle's neighbours in its key order and the bits
    of its weights, within the row's room and the pool's fill."""
    n = eng.n_vertices
    assert len(adj) == n
    assert np.all(eng._rlen[:n] <= eng._rcap[:n])
    assert np.all(eng._rstart[:n] + eng._rcap[:n] <= eng._ctx.used)
    assert eng._ctx.used <= len(eng._nbr)
    for v in range(n):
        p, k = eng._rstart[v], eng._rlen[v]
        assert eng._nbr[p : p + k].tolist() == list(adj[v])
        assert eng._c[p : p + k].tobytes() == np.array(list(adj[v].values())).tobytes()


HUB_AMOUNTS = st.one_of(st.just(0.1), st.sampled_from([0.3, 1.0, 7.25]),
                        st.floats(1e-3, 1e3, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30), HUB_AMOUNTS),
                         min_size=1, max_size=40), min_size=1, max_size=6))
def test_rows_match_dict_oracle(batches):
    """Batches around two hubs (ids 0 and 1 take a third of the endpoints),
    after a packed bulk load: rows move as they fill and parallel edges pile
    up, and every row must equal ``adj[u][v] = adj[u].get(v, 0.0) + c``."""
    eng = SpadeEngine(DW)
    initial = [("h0", "x2", 1.0), ("x2", "x3", 0.5), ("h1", "x3", 0.1), ("h0", "h1", 2.0)]
    eng.bulk_load(initial)
    adj = []
    dict_rows(eng, initial, adj)
    name = lambda i: f"h{i}" if i < 2 else f"x{i}"  # noqa: E731
    for raw in batches:
        batch = [(name(u % 2 if u > 20 else u), name(v), c) for u, v, c in raw]
        batch = [e for e in batch if e[0] != e[1]]
        eng.insert_batch(batch)
        dict_rows(eng, batch, adj)
        assert_rows_match(eng, adj)
    assert_engine_valid(eng)


def test_pool_grows_in_the_middle_of_a_batch(monkeypatch):
    """A hub's row moves at every doubling and the pool grows several times
    within one batch; more than 8 parallel 0.1 edges sum one by one."""
    grown = []
    grow = SpadeEngine._grow_pool

    def counted(eng, need):
        grown.append((eng._ctx.used, len(eng._nbr)))
        grow(eng, need)

    monkeypatch.setattr(SpadeEngine, "_grow_pool", counted)
    eng = SpadeEngine(DW)
    initial = [("hub", "x0", 1.0), ("x0", "x1", 0.5)]
    eng.bulk_load(initial)
    adj = []
    dict_rows(eng, initial, adj)
    hub = eng._vid_of["hub"]
    starts = set()
    batch = [("hub", f"x{i}", 0.1 * i + 0.1) for i in range(2, 150)] + [("x0", "hub", 0.1)] * 13
    for i in range(0, len(batch), 7):
        eng.insert_batch(batch[i : i + 7])
        dict_rows(eng, batch[i : i + 7], adj)
        starts.add(int(eng._rstart[hub]))
    assert len(starts) >= 6, "the hub's row did not move as it filled"
    assert_rows_match(eng, adj)

    big = [(f"y{i}", "hub", 0.1) for i in range(1200)] + [("hub", "y0", 0.1)] * 9
    grown.clear()
    eng.insert_batch(big)
    dict_rows(eng, big, adj)
    assert len(grown) >= 2, "the pool did not grow within the batch"
    assert_rows_match(eng, adj)
    assert adj[hub][eng._vid_of["x0"]] == eng._c[eng._rstart[hub]]  # 1.0 + 13 x 0.1, in order
    assert_engine_valid(eng)


class _NoKernel:
    """Stands in for the kernel: any call means unchecked input reached C."""

    def __getattr__(self, name):
        raise AssertionError(f"the kernel's {name} was called")


@pytest.mark.parametrize("n, adj, a", [
    (2, [{1: 1.0}, {0: 1.0, 2: 1.0}], [0.0, 0.0]),  # neighbour id == n
    (2, [{1: 1.0, 7: 2.0}, {0: 1.0}], [0.0, 0.0]),  # neighbour id > n
    (2, [{-1: 1.0}, {}], [0.0, 0.0]),  # negative neighbour id
    (2, [{1: 1.0}, {0: 1.0}], [0.0]),  # len(a) < n
    (2, [{1: 1.0}, {0: 1.0}], [0.0, 0.0, 1.0]),  # len(a) > n
    (3, [{1: 1.0}, {0: 1.0}], [0.0, 0.0, 0.0]),  # len(adj) < n
])
def test_peel_rejects_malformed_input_before_the_kernel(monkeypatch, n, adj, a):
    before = copy.deepcopy((adj, a))
    monkeypatch.setattr(peel_mod, "lib", _NoKernel())
    with pytest.raises(ValueError):
        peel_mod.peel_sequence(n, *peel_mod.csr(adj), a)
    assert (adj, a) == before


@st.composite
def edge_batches(draw):
    """Rows among ``n`` vertices already in the pool, a batch of edges to
    apply after them, and the ``w0``, ``in_deg`` and ``f_total`` the edges
    add to.

    Weights come from a small set with many 0.1s, so parallel edges pile
    up, and vertex 0 takes a third of the endpoints, so its row moves.
    """
    n = draw(st.integers(2, 10))
    weights = st.one_of(st.sampled_from([0.1, 0.1, 0.3, 1.0, 7.25]),
                        st.floats(1e-3, 1e3, allow_nan=False))
    end = st.one_of(st.just(0), st.integers(0, n - 1), st.integers(0, n - 1))
    pair = st.tuples(end, end).filter(lambda p: p[0] != p[1])
    edge = st.tuples(pair, weights).map(lambda t: (*t[0], t[1]))
    rows = draw(st.lists(edge, max_size=12))
    batch = draw(st.lists(edge, max_size=42))
    w0 = draw(st.lists(st.floats(0, 50, allow_nan=False), min_size=n, max_size=n))
    in_deg = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    f_total = draw(st.floats(0, 1e3, allow_nan=False))
    return n, rows, batch, w0, in_deg, f_total


def dict_apply(n, edges, w0, in_deg, f_total):
    """The dict oracle: ``adj[u][v] = adj[u].get(v, 0.0) + c`` and the
    vertex sums, edge by edge. Returns ``(adj, w0, in_deg, f_total)``."""
    adj, w0, in_deg = [{} for _ in range(n)], list(w0), list(in_deg)
    for u, v, c in edges:
        adj[u][v] = adj[u].get(v, 0.0) + c
        adj[v][u] = adj[v].get(u, 0.0) + c
        w0[u] += c
        w0[v] += c
        in_deg[v] += 1
        f_total += c
    return adj, w0, in_deg, f_total


def columns(edges):
    """The lists ``u``, ``v``, ``c`` of ``(u, v, c)`` edges."""
    return ([e[i] for e in edges] for i in range(3))


def assert_pool_matches(eng, want):
    """The pool holds ``want`` (``dict_apply``'s result) to the bit, and
    every live entry's mate is its twin: in the other endpoint's row, and
    its own mate."""
    adj, w0, in_deg, f_total = want
    n = len(adj)
    assert_rows_match(eng, adj)
    assert eng._w0[:n].tobytes() == np.array(w0, dtype=np.float64).tobytes()
    assert eng._in_deg[:n].tolist() == in_deg
    assert eng.f_total.hex() == f_total.hex()
    for x in range(n):
        for j in range(eng._rstart[x], eng._rstart[x] + eng._rlen[x]):
            y, twin = eng._nbr[j], eng._mate[j]
            assert eng._mate[twin] == j
            assert eng._rstart[y] <= twin < eng._rstart[y] + eng._rlen[y]
            assert eng._nbr[twin] == x


@settings(max_examples=300, deadline=None)
@given(edge_batches())
# More than 8 parallel 0.1 edges onto one pair: a pairwise sum would
# round differently from the sequential one.
@example((3, [], [(0, 1, 0.1)] * 13 + [(2, 1, 0.1), (1, 2, 0.1)] * 5 + [(2, 0, 0.3)],
          [0.0, 0.5, 0.0], [1, 0, 0], 0.7))
# A hub as src: its row moves at every doubling, the leaves' rows never do.
@example((10, [(0, 1, 1.0)], [(0, j, 0.1 * j) for j in range(1, 10)] * 2,
          [0.0] * 10, [0] * 10, 0.0))
# Repeated edges into a hub: each is found in the leaf's shorter row.
@example((8, [(1, 0, 0.3), (2, 0, 0.3)], [(j, 0, 0.1) for j in range(1, 8)] * 3,
          [0.0] * 8, [0] * 8, 0.0))
# A parallel edge after both of its rows moved in the same batch.
@example((8, [(0, 1, 1.0), (1, 0, 0.1)],
          [(0, 2, 1.0), (0, 3, 1.0), (1, 4, 7.25), (1, 5, 0.1), (1, 0, 0.1),
           (0, 6, 0.3), (0, 7, 0.3), (0, 1, 0.1)],
          [0.0] * 8, [0] * 8, 0.0))
def test_add_edges_matches_dict_oracle(case):
    """``add_edges`` onto rows already in a full pool, applied through the
    engine: wherever a call stops short, the edges before that index are
    applied to the bit and the edge at it is not; the pool then doubles
    and the next call resumes there."""
    n, rows, batch, w0, in_deg, f_total = case
    eng = SpadeEngine(DW)
    eng._add_vertices(range(n), [0.0] * n)
    eng._w0[:n], eng._in_deg[:n], eng._f_total[0] = w0, in_deg, f_total
    eng._add_edges(*columns(rows))
    assert_pool_matches(eng, dict_apply(n, rows, w0, in_deg, f_total))
    eng._grow_pool(eng._ctx.used)  # no free room: the first new pair stops the call

    calls = []

    class Recording:
        def __getattr__(self, name):
            return getattr(kernel.lib, name)

        def add_edges(self, s, i, m, u, v, c):
            got = kernel.lib.add_edges(s, i, m, u, v, c)
            calls.append((i, got, len(eng._nbr)))
            assert_pool_matches(eng, dict_apply(n, rows + batch[:got], w0, in_deg, f_total))
            return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "lib", Recording())
        eng._add_edges(*columns(batch))
    m = len(batch)
    assert calls[0][0] == 0 and calls[-1][1] == m
    for (_, stop, size), (start, _, grown) in zip(calls, calls[1:]):
        assert stop == start < m and grown == max(64, 2 * size)
