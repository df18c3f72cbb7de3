"""The compiled kernel: its build cache, ``white_run`` against numpy,
``ingest`` against a dict oracle, and the input checks that guard
``peel``."""
import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_mod
from repro.core import kernel
from repro.core import peel as peel_mod

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


def white_run_reference(order, delta, pos, k, out, limit, dmin):
    """The numpy scan-and-shift that ``white_run`` replaced in ``_reorder``."""
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


@st.composite
def white_runs(draw):
    """A sequence and a frontier ``k`` with ``out <= k``; Δ values repeat often."""
    n = draw(st.integers(1, 24))
    order = draw(st.permutations(range(n)))
    delta = draw(st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    out = draw(st.integers(0, k))
    limit = draw(st.integers(0, n))
    dmin = draw(st.one_of(st.just(math.inf), st.sampled_from(delta),
                          st.floats(-1.0, 5.0, allow_nan=False)))
    return order, delta, k, out, limit, dmin


@settings(max_examples=300, deadline=None)
@given(white_runs())
# dmin = inf: the run reaches limit = end
@example(([2, 0, 3, 1], [0.0, 1.0, 2.0, 3.0], 0, 0, 4, math.inf))
# dmin equals a stored Δ: equality stops the run
@example(([0, 1, 2, 3, 4], [0.0, 1.0, 2.0, 2.0, 1.0], 1, 0, 5, 2.0))
# limit <= k + 1: only slot k is emitted, in place or moved
@example(([0, 1, 2], [0.0, 1.0, 2.0], 2, 0, 2, math.inf))
@example(([0, 1, 2], [0.0, 1.0, 2.0], 1, 1, 1, math.inf))
# out < k with the moved range overlapping its source
@example(([6, 5, 4, 3, 2, 1, 0], [3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0], 2, 1, 7, 4.0))
def test_white_run_matches_numpy_reference(case):
    order, delta, k, out, limit, dmin = case
    n = len(order)
    order = np.array(order, dtype=np.int64)
    delta = np.array(delta, dtype=np.float64)
    pos = np.full(n + 3, -7, dtype=np.int64)  # vids past n are not in the sequence
    pos[order] = np.arange(n)
    before = [order.copy(), delta.copy(), pos.copy()]
    want = [x.copy() for x in before]
    want_event = white_run_reference(*want, k, out, limit, dmin)
    fb = kernel.ffi.from_buffer
    event = kernel.lib.white_run(fb("int64_t[]", order), fb("double[]", delta),
                                 fb("int64_t[]", pos), k, out, limit, dmin)
    assert event == want_event
    for got, exp in zip((order, delta, pos), want):
        np.testing.assert_array_equal(got, exp)
    moved = np.zeros(n, dtype=bool)
    moved[out : out + event - k] = out != k
    for got, old in zip((order, delta), before):
        np.testing.assert_array_equal(got[~moved], old[~moved])
    kept = np.ones(n + 3, dtype=bool)
    kept[order[moved]] = False
    np.testing.assert_array_equal(pos[kept], before[2][kept])


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
def ingests(draw):
    """A load of edges among ``n`` vertices, and the ``w0``, ``in_deg`` and
    ``f_total`` it adds to.

    Weights come from a small set with many 0.1s, so parallel edges pile
    up.
    """
    n = draw(st.integers(2, 10))
    weights = st.one_of(st.sampled_from([0.1, 0.1, 0.3, 1.0, 7.25]),
                        st.floats(1e-3, 1e3, allow_nan=False))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(pair, weights).map(lambda t: (*t[0], t[1])),
                          max_size=42))
    w0 = draw(st.lists(st.floats(0, 50, allow_nan=False), min_size=n, max_size=n))
    in_deg = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    f_total = draw(st.floats(0, 1e3, allow_nan=False))
    return n, edges, w0, in_deg, f_total


def dict_ingest(adj, edges, w0, in_deg, f_total):
    """The dict oracle: ``SpadeEngine._add_edges``'s arithmetic, edge by edge."""
    for u, v, c in edges:
        adj[u][v] = adj[u].get(v, 0.0) + c
        adj[v][u] = adj[v].get(u, 0.0) + c
        w0[u] += c
        w0[v] += c
        in_deg[v] += 1
        f_total += c
    return f_total


@settings(max_examples=300, deadline=None)
@given(ingests())
# More than 8 parallel 0.1 edges onto one pair: a pairwise sum (as
# np.add.reduceat takes) would round differently from the sequential one.
@example((3, [(0, 1, 0.1)] * 13 + [(2, 1, 0.1), (1, 2, 0.1)] * 5 + [(2, 0, 0.3)],
          [0.0, 0.5, 0.0], [1, 0, 0], 0.7))
# New neighbours arriving in both directions.
@example((4, [(3, 1, 1.0), (0, 3, 0.1), (1, 3, 0.1), (2, 0, 7.25), (3, 0, 0.1)],
          [0.0] * 4, [0] * 4, 0.0))
def test_ingest_matches_dict_oracle(case):
    n, edges, w0, in_deg, f_total = case
    want_adj = [{} for _ in range(n)]
    want_w0, want_deg = list(w0), list(in_deg)
    want_f = dict_ingest(want_adj, edges, want_w0, want_deg, f_total)

    cols = np.array(edges, dtype=np.float64).reshape(-1, 3)
    u, v = (np.ascontiguousarray(cols[:, i], dtype=np.int64) for i in (0, 1))
    got_w0 = np.array(w0, dtype=np.float64)
    got_deg = np.array(in_deg, dtype=np.int64)
    ptr, nbr, c, got_f = engine_mod._ingest(u, v, cols[:, 2].copy(), got_w0, got_deg, f_total)

    want_ptr, want_nbr, want_c = peel_mod.csr(want_adj)
    np.testing.assert_array_equal(ptr, want_ptr)
    np.testing.assert_array_equal(nbr, want_nbr)  # first-appearance order per row
    assert c.tobytes() == want_c.tobytes()
    assert got_w0.tobytes() == np.array(want_w0, dtype=np.float64).tobytes()
    assert got_deg.tolist() == want_deg
    assert got_f == want_f
