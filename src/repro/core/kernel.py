"""The engine's compiled kernel: C source, cffi build and cache.

The C source is kept here as a string, so it ships with the package and
any digest of the package's Python files covers it. At first import it
is compiled by cffi in a ``sys.executable`` subprocess (the compiler's
memory never joins the importing process) into ``_build/`` next to this
file, under a module name keyed by a hash of the source, the compile
flags and the interpreter's extension-module ABI tag. The finished module is
published with an atomic rename, so concurrent importers either find a
whole module or build their own; later imports load the cached one. A
failed build raises ``ImportError`` carrying the compiler's output.

The kernel has four entry points. ``detect`` is the engine's ``Detect``
update (see
:meth:`~repro.core.engine.SpadeEngine._refresh_detection`): the slots are
split into blocks of ``B`` counted backward from ``hi``, so block ``b``
holds the slots ``j`` with ``(hi - 1 - j) / B == b`` and its shortest
suffix has ``b*B + 1`` vertices. ``F`` holds ``f(S_j)`` minus the offset
``off`` of the slot's block; each block keeps ``bmax``/``barg``, its best
``g`` and earliest best slot as of its last scan, and ``pend``, the
offset added since that scan. ``detect`` returns the id of the block
holding the best slot.

``white_run`` is the reorder's Case 2(b) (see
:meth:`~repro.core.engine.SpadeEngine._reorder`): it emits the white
frontier slot ``k`` and every later slot below ``limit`` whose ``Δ`` is
below ``dmin``, stopping at the first ``Δ >= dmin``. When ``out < k`` it
moves those slots down to start at ``out`` and rewrites ``pos`` for
them. It returns the first slot it did not emit. The T queue, the gray
heap and every other branch of the reorder stay in Python.

``peel`` is the static greedy peel (Algorithm 1, see
:func:`~repro.core.peel.peel_sequence`) over a CSR adjacency: a binary
min-heap on ``(w, vid)`` with lazy deletion, filling ``order`` and
``delta``. ``w`` and ``removed`` are ``n`` long and the heap arrays
``hw``/``hv`` hold ``n + ptr[n]`` entries; the caller checks that every
neighbour id lies in ``[0, n)``.

``ingest`` lays a load of ``m`` edges ``(u, v, c)`` among ``n`` vertices
out as CSR (see :meth:`~repro.core.engine.SpadeEngine.bulk_load`). It
adds each edge to ``w0`` of both endpoints, to ``in_deg`` of ``v`` and to
``f_total``, in arrival order, and writes the CSR to ``ptr``/``nbr``/``cw``
(``nbr`` and ``cw`` hold ``2m`` entries, the bucketed half-edges before
they are compacted): a row lists its neighbours in order of first
appearance, and parallel edges add to their entry one by one in arrival
order. These are the floats a dict adjacency gets from ``adj[u][v] =
adj[u].get(v, 0.0) + c``. It returns the new ``f_total``; ``hptr`` and
``where`` (``n`` long) are scratch.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

CDEF = """
int64_t detect(double *F, const double *delta, double *off, double *pend,
               double *bmax, int64_t *barg, int64_t lo, int64_t hi,
               int64_t first, int64_t end, int64_t B);
int64_t white_run(int64_t *order, double *delta, int64_t *pos, int64_t k,
                  int64_t out, int64_t limit, double dmin);
void peel(int64_t n, const int64_t *ptr, const int64_t *nbr, const double *c,
          const double *a, int64_t *order, double *delta, double *w, double *hw,
          int64_t *hv, uint8_t *removed);
double ingest(int64_t n, int64_t m, const int64_t *u, const int64_t *v,
              const double *c, double *w0, int64_t *in_deg, double f_total,
              int64_t *hptr, int64_t *where, int64_t *ptr, int64_t *nbr, double *cw);
"""

SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* First slot of block b: its range is [bottom, hi - b*B). */
static int64_t bottom(int64_t lo, int64_t hi, int64_t B, int64_t b)
{
    int64_t j = hi - (b + 1) * B;
    return j > lo ? j : lo;
}

/* Exact best g and earliest best slot of block b; clears its pending offset. */
static void scan(const double *F, const double *off, double *pend, double *bmax,
                 int64_t *barg, int64_t lo, int64_t hi, int64_t B, int64_t b)
{
    int64_t top = hi - b * B, j = bottom(lo, hi, B, b), arg = j;
    double o = off[b], best = -INFINITY;
    for (; j < top; j++) {
        double g = (F[j] + o) / (double)(hi - j);
        if (g > best) {
            best = g;
            arg = j;
        }
    }
    bmax[b] = best;
    barg[b] = arg;
    pend[b] = 0.0;
}

/* Move block b's offset into its stored F outside [first, end). */
static void fold(double *F, double *off, int64_t lo, int64_t hi, int64_t B,
                 int64_t b, int64_t first, int64_t end)
{
    int64_t top = hi - b * B, bot = bottom(lo, hi, B, b), j;
    double o = off[b];
    if (o == 0.0)
        return;
    for (j = bot; j < first && j < top; j++)
        F[j] += o;
    for (j = end > bot ? end : bot; j < top; j++)
        F[j] += o;
    off[b] = 0.0;
}

int64_t detect(double *F, const double *delta, double *off, double *pend,
               double *bmax, int64_t *barg, int64_t lo, int64_t hi,
               int64_t first, int64_t end, int64_t B)
{
    int64_t nb = (hi - lo + B - 1) / B;
    int64_t bf = (hi - 1 - first) / B, be = (hi - end) / B, b, j;
    double anchor = end < hi ? F[end] + off[(hi - 1 - end) / B] : 0.0;
    double old = first > lo ? F[first] + off[bf] : 0.0, s = 0.0;

    /* 1. The span's blocks drop their offsets: the boundary blocks fold
          theirs into the slots the span does not rewrite. */
    fold(F, off, lo, hi, B, bf, first, end);
    if (be != bf)
        fold(F, off, lo, hi, B, be, first, end);
    for (b = be + 1; b < bf; b++)
        off[b] = 0.0;

    /* 2. Re-accumulate f(S_j) over the span, anchored at the true F[end]. */
    for (j = end - 1; j >= first; j--) {
        s += delta[j];
        F[j] = s + anchor;
    }

    /* 3. Slots ahead of the span shift by the change d of F[first]: the
          head of the first block directly, earlier blocks lazily. */
    if (first > lo && F[first] != old) {
        double d = F[first] - old;
        for (j = bottom(lo, hi, B, bf); j < first; j++)
            F[j] += d;
        for (b = bf + 1; b < nb; b++) {
            off[b] += d;
            pend[b] += d;
        }
    }

    /* 4. Rescan every block the span touched. */
    for (b = be; b <= bf; b++)
        scan(F, off, pend, bmax, barg, lo, hi, B, b);

    /* Query: a block's g can exceed bmax by at most max(pend, 0) over its
       shortest suffix. Take the highest bound, ties to the earlier slots;
       a stale winner is rescanned and the query repeats. */
    for (;;) {
        int64_t top = 0;
        double bound = -INFINITY;
        for (b = 0; b < nb; b++) {
            double u = bmax[b] + (pend[b] > 0.0 ? pend[b] : 0.0) / (double)(b * B + 1);
            u += 1e-12 * fabs(u);
            if (u >= bound) {
                bound = u;
                top = b;
            }
        }
        if (pend[top] == 0.0)
            return top;
        scan(F, off, pend, bmax, barg, lo, hi, B, top);
    }
}

int64_t white_run(int64_t *order, double *delta, int64_t *pos, int64_t k,
                  int64_t out, int64_t limit, double dmin)
{
    int64_t event = k + 1, j;

    /* Slot k is emitted; the run extends while the next slot below limit
       has a Δ below dmin. */
    while (event < limit && delta[event] < dmin)
        event++;
    /* out < k: a forward copy reads each slot before any write lands on it. */
    if (out != k)
        for (j = k; j < event; j++, out++) {
            order[out] = order[j];
            delta[out] = delta[j];
            pos[order[out]] = out;
        }
    return event;
}

/* Heap entry i orders before entry j: (w, vid) compared as a tuple. */
static int before(const double *hw, const int64_t *hv, int64_t i, int64_t j)
{
    return hw[i] < hw[j] || (hw[i] == hw[j] && hv[i] < hv[j]);
}

static void swap(double *hw, int64_t *hv, int64_t i, int64_t j)
{
    double tw = hw[i];
    int64_t tv = hv[i];
    hw[i] = hw[j];
    hv[i] = hv[j];
    hw[j] = tw;
    hv[j] = tv;
}

static void sift_down(double *hw, int64_t *hv, int64_t size, int64_t i)
{
    for (;;) {
        int64_t l = 2 * i + 1, m = i;
        if (l < size && before(hw, hv, l, m))
            m = l;
        if (l + 1 < size && before(hw, hv, l + 1, m))
            m = l + 1;
        if (m == i)
            return;
        swap(hw, hv, i, m);
        i = m;
    }
}

void peel(int64_t n, const int64_t *ptr, const int64_t *nbr, const double *c,
          const double *a, int64_t *order, double *delta, double *w, double *hw,
          int64_t *hv, uint8_t *removed)
{
    int64_t size = n, k = 0, v, i, j;

    /* w_v(S_0) = a_v + the incident weights, summed in adjacency order. */
    for (v = 0; v < n; v++) {
        double s = 0.0;
        for (j = ptr[v]; j < ptr[v + 1]; j++)
            s += c[j];
        w[v] = a[v] + s;
        hw[v] = w[v];
        hv[v] = v;
        removed[v] = 0;
    }
    for (i = n / 2 - 1; i >= 0; i--)
        sift_down(hw, hv, size, i);

    /* Pop the least (w, vid); an entry is stale once its vertex is removed
       or its weight has dropped since the push (lazy deletion). Every live
       entry is a distinct (w, vid), so the pop order is that of any exact
       min-heap on the same entries. The heap holds at most n + ptr[n]. */
    while (size > 0) {
        double wv = hw[0];
        v = hv[0];
        size--;
        hw[0] = hw[size];
        hv[0] = hv[size];
        sift_down(hw, hv, size, 0);
        if (removed[v] || wv != w[v])
            continue;
        removed[v] = 1;
        order[k] = v;
        delta[k] = wv;
        k++;
        for (j = ptr[v]; j < ptr[v + 1]; j++) {
            int64_t u = nbr[j];
            if (removed[u])
                continue;
            w[u] -= c[j];
            /* Push (w[u], u) and sift it up. */
            i = size++;
            hw[i] = w[u];
            hv[i] = u;
            while (i > 0 && before(hw, hv, i, (i - 1) / 2)) {
                swap(hw, hv, i, (i - 1) / 2);
                i = (i - 1) / 2;
            }
        }
    }
}

double ingest(int64_t n, int64_t m, const int64_t *u, const int64_t *v,
              const double *c, double *w0, int64_t *in_deg, double f_total,
              int64_t *hptr, int64_t *where, int64_t *ptr, int64_t *nbr, double *cw)
{
    int64_t i, x, j, k = 0;

    /* 1. Vertex weights, object degrees and f, edge by edge in arrival order. */
    for (i = 0; i < m; i++) {
        w0[u[i]] += c[i];
        w0[v[i]] += c[i];
        in_deg[v[i]]++;
        f_total += c[i];
    }

    /* 2. Bucket the half-edges by endpoint into nbr/cw, in arrival order
          within a bucket; afterwards bucket x is [hptr[x - 1], hptr[x]). */
    for (x = 0; x < n; x++)
        hptr[x] = 0;
    for (i = 0; i < m; i++) {
        hptr[u[i]]++;
        hptr[v[i]]++;
    }
    for (x = 0, j = 0; x < n; x++) {
        int64_t d = hptr[x];
        hptr[x] = j;
        j += d;
    }
    for (i = 0; i < m; i++) {
        j = hptr[u[i]]++;
        nbr[j] = v[i];
        cw[j] = c[i];
        j = hptr[v[i]]++;
        nbr[j] = u[i];
        cw[j] = c[i];
    }

    /* 3. Compact each bucket into its row, in place: the next entry k never
          passes the half-edge j being read. A neighbour seen before adds to
          its entry (where[y] is its index), so parallel edges sum left to
          right in arrival order and every neighbour keeps the place of its
          first appearance. */
    for (x = 0; x < n; x++)
        where[x] = -1;
    for (x = 0; x < n; x++) {
        int64_t start = k;
        ptr[x] = k;
        for (j = x ? hptr[x - 1] : 0; j < hptr[x]; j++) {
            int64_t y = nbr[j];
            if (where[y] >= 0) {
                cw[where[y]] += cw[j];
            } else {
                where[y] = k;
                nbr[k] = y;
                cw[k++] = cw[j];
            }
        }
        for (j = start; j < k; j++)
            where[nbr[j]] = -1;
    }
    ptr[n] = k;
    return f_total;
}
"""

FLAGS = ["-O2", "-ffp-contract=off"]

_BUILD_DIR = Path(__file__).with_name("_build")

# Runs in the subprocess: reads the build request as JSON on stdin and
# leaves the compiled module in the given temporary directory.
_COMPILE = """
import json, sys
import cffi
req = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(req["cdef"])
ffi.set_source(req["name"], req["source"], extra_compile_args=req["flags"])
print(ffi.compile(tmpdir=req["tmpdir"]))
"""


def _key(source: str, cdef: str = CDEF) -> str:
    """Cache key: the source, its declarations, the flags and the ABI tag."""
    h = hashlib.sha256()
    for part in (source, cdef, " ".join(FLAGS), sysconfig.get_config_var("EXT_SUFFIX")):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def _build(source: str = SOURCE, cdef: str = CDEF) -> Path:
    """Path of the compiled module for ``source``, compiling it if absent."""
    name = f"_spade_kernel_{_key(source, cdef)}"
    target = _BUILD_DIR / (name + sysconfig.get_config_var("EXT_SUFFIX"))
    if target.exists():
        return target
    _BUILD_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=name + ".", dir=_BUILD_DIR)
    try:
        request = {"name": name, "cdef": cdef, "source": source, "flags": FLAGS,
                   "tmpdir": tmpdir}
        done = subprocess.run([sys.executable, "-c", _COMPILE], input=json.dumps(request),
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise ImportError(f"building the engine kernel failed:\n{done.stdout}{done.stderr}")
        os.replace(done.stdout.strip().splitlines()[-1], target)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return target


def _load(path: Path):
    """Import a compiled module by path; returns its ``(ffi, lib)``."""
    spec = importlib.util.spec_from_file_location(path.name.split(".")[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


ffi, lib = _load(_build())
