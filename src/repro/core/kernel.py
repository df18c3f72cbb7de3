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

An engine's state lives in its numpy arrays. One ``spade_t`` struct per
engine points at them (see :meth:`~repro.core.engine.SpadeEngine._point`),
holds the pool's fill and carries the reorder's walk from one call to the
next. The graph is one row per vertex in a shared pool: row ``x`` is
``nbr``/``c`` over ``[rstart[x], rstart[x] + rlen[x])``, with room for
``rcap[x]`` entries; ``used`` of the pool's ``size`` entries are taken.
Each edge has an entry in both its endpoints' rows, and ``mate[j]`` is
the index of entry ``j``'s twin in the other row. The kernel has five
entry points.

``add_edges(s, i, m, u, v, c)`` applies the edges ``i..m-1`` of the
columns ``u``, ``v``, ``c`` in order, to both rows, to ``w0`` of both
endpoints, to ``in_deg`` of ``v`` and to ``*f_total``. It scans the
shorter of the two rows for the pair: a pair seen before adds ``c`` to
its entry and, through ``mate``, to the twin, so parallel weights sum in
arrival order and a row keeps its neighbours in order of first
appearance: the floats a dict adjacency gets from ``adj[u][v] =
adj[u].get(v, 0.0) + c``. A new neighbour is appended; a full row first
moves to the pool's end with twice its room. It returns ``m``, or the
index of the first edge whose rows the pool lacks the room for; that
edge is not applied, so the caller grows the pool and resumes there.
``bulk_load`` gives each row room for its distinct neighbours first, in
vid order, so the same calls leave the pool as CSR.

``walk`` and ``relax`` run the reorder's frontier walk (see
:meth:`~repro.core.engine.SpadeEngine._reorder`); only the T heap stays
with the caller, and ``tw`` with the colour bytes are the only record of
T's weights. Each vertex has a colour byte: black, gray and in T.
``walk(s, nblack)`` starts a walk from the ``nblack > 0`` black vids in
``black`` (it sorts their slots there). The walk emits runs of white
slots whose ``Δ`` is below ``dmin``, each moved down to ``out`` by one
``memmove`` of ``order`` and one of ``delta`` and a pass that rewrites
``pos`` for the moved slots. It recovers the weight of black and gray
vertices, emits those whose weight is unchanged in place, and puts the
others in T at weight ``tw``, colouring their neighbours ahead gray. It
returns the number of vids queued in ``pv`` that the caller must push
onto its T heap, each at its ``tw``, before the head of T pops, or -1
once the walk has ended: then ``[first, stop)`` is the rewritten span
and every colour is cleared. ``relax(s, vmin, h)`` pops ``vmin``: it
writes it at ``out``, clears its ``IN_T`` bit, takes its edges off the
``tw`` of its neighbours in T and queues them, sets ``dmin`` to the
least of ``h`` (the caller's heap head once ``vmin`` is off it) and
those weights, and resumes the walk.

``detect`` is the engine's ``Detect`` update (see
:meth:`~repro.core.engine.SpadeEngine._refresh_detection`): the slots are
split into blocks of ``B`` counted backward from ``hi``, so block ``b``
holds the slots ``j`` with ``(hi - 1 - j) / B == b`` and its shortest
suffix has ``b*B + 1`` vertices. ``f(S_j)`` is ``F[j]`` plus the offset
``off`` of the slot's block: the gain the block has had since it was
last exact, when ``bmax``/``barg``, its best ``g`` and earliest best
slot, were taken. The rewritten span widens to whole blocks, and one pass
down them re-accumulates ``F`` and rescans each; the blocks ahead of the
span take the change of ``f`` at its first slot as offset. A block is
stale iff its offset is not 0; the query rescans a stale winner, adding
its offset into ``F``. ``detect`` returns the id of the block holding the
best slot.

``peel`` is the static greedy peel (Algorithm 1, see
:func:`~repro.core.peel.peel_sequence`) over a CSR adjacency: a binary
min-heap on ``(w, vid)`` with lazy deletion, filling ``order`` and
``delta``. ``w`` and ``removed`` are ``n`` long and the heap arrays
``hw``/``hv`` hold ``n + ptr[n]`` entries; the caller checks that every
neighbour id lies in ``[0, n)``.
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

#: The engine state the kernel sees and the bits of its colour byte,
#: declared once for the cdef and the source.
STRUCT = """
enum { BLACK = 1, GRAY = 2, IN_T = 4 };

typedef struct {
    int64_t *order, *pos, *barg;
    double *delta, *F, *off, *bmax;
    int64_t *rstart, *rlen, *rcap, *nbr, *mate, *in_deg;
    double *c, *a, *w0, *f_total;
    int64_t used, size;
    uint8_t *color;
    double *tw;
    int64_t *black, *touched, *pv;
    int64_t nblack, bi, ntouched, nT, npend, k, out, end, first, stop;
    double dmin;
} spade_t;
"""

CDEF = STRUCT + """
int64_t add_edges(spade_t *s, int64_t i, int64_t m, const int64_t *u, const int64_t *v,
                  const double *c);
int64_t walk(spade_t *s, int64_t nblack);
int64_t relax(spade_t *s, int64_t vmin, double h);
int64_t detect(spade_t *s, int64_t lo, int64_t hi, int64_t first, int64_t end, int64_t B);
void peel(int64_t n, const int64_t *ptr, const int64_t *nbr, const double *c,
          const double *a, int64_t *order, double *delta, double *w, double *hw,
          int64_t *hv, uint8_t *removed);
"""

SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
""" + STRUCT + r"""
/* First slot of block b: its range is [bottom, hi - b*B). */
static int64_t bottom(int64_t lo, int64_t hi, int64_t B, int64_t b)
{
    int64_t j = hi - (b + 1) * B;
    return j > lo ? j : lo;
}

/* Take slot j into a block's best g so far. A scan that runs down the
   slots keeps a tie, so the earliest best slot wins. */
static void keep(const double *F, int64_t hi, int64_t j, double *best, int64_t *arg)
{
    double g = F[j] / (double)(hi - j);

    if (g >= *best) {
        *best = g;
        *arg = j;
    }
}

/* Make block b exact: add its offset into F and rescan it. */
static void scan(double *F, double *off, double *bmax, int64_t *barg, int64_t lo,
                 int64_t hi, int64_t B, int64_t b)
{
    int64_t bot = bottom(lo, hi, B, b), j, arg = bot;
    double best = -INFINITY;

    for (j = hi - b * B - 1; j >= bot; j--) {
        F[j] += off[b];
        keep(F, hi, j, &best, &arg);
    }
    bmax[b] = best;
    barg[b] = arg;
    off[b] = 0.0;
}

/* Index of y in row x, or -1. */
static int64_t find(const spade_t *s, int64_t x, int64_t y)
{
    int64_t j, top = s->rstart[x] + s->rlen[x];

    for (j = s->rstart[x]; j < top; j++)
        if (s->nbr[j] == y)
            return j;
    return -1;
}

/* The room a full row of room r moves to. */
static int64_t grown(int64_t r)
{
    return r ? 2 * r : 2;
}

/* Move row x to the pool's end with twice its room; the twins of its
   entries follow them. */
static void move(spade_t *s, int64_t x)
{
    int64_t from = s->rstart[x], i;

    for (i = 0; i < s->rlen[x]; i++) {
        int64_t j = s->used + i;

        s->nbr[j] = s->nbr[from + i];
        s->c[j] = s->c[from + i];
        s->mate[j] = s->mate[from + i];
        s->mate[s->mate[j]] = j;
    }
    s->rstart[x] = s->used;
    s->rcap[x] = grown(s->rcap[x]);
    s->used += s->rcap[x];
}

/* Append y to row x with weight c, moving a full row first; returns its index. */
static int64_t append(spade_t *s, int64_t x, int64_t y, double c)
{
    int64_t j;

    if (s->rlen[x] == s->rcap[x])
        move(s, x);
    j = s->rstart[x] + s->rlen[x]++;
    s->nbr[j] = y;
    s->c[j] = c;
    return j;
}

int64_t add_edges(spade_t *s, int64_t i, int64_t m, const int64_t *u, const int64_t *v,
                  const double *c)
{
    for (; i < m; i++) {
        int64_t x = u[i], y = v[i], jx, jy;
        double w = c[i];

        /* Rows are symmetric: y is in row x exactly when x is in row y, so
           the shorter row tells, and the entry's mate is its twin. */
        if (s->rlen[x] <= s->rlen[y]) {
            jx = find(s, x, y);
            jy = jx < 0 ? -1 : s->mate[jx];
        } else {
            jy = find(s, y, x);
            jx = jy < 0 ? -1 : s->mate[jy];
        }
        if (jx >= 0) {
            s->c[jx] += w;
            s->c[jy] += w;
        } else {
            int64_t need = s->used;

            if (s->rlen[x] == s->rcap[x])
                need += grown(s->rcap[x]);
            if (s->rlen[y] == s->rcap[y])
                need += grown(s->rcap[y]);
            if (need > s->size)
                return i;
            jx = append(s, x, y, w);
            jy = append(s, y, x, w);
            s->mate[jx] = jy;
            s->mate[jy] = jx;
        }
        s->w0[x] += w;
        s->w0[y] += w;
        s->in_deg[y]++;
        *s->f_total += w;
    }
    return m;
}

/* Colour v; a vertex coloured for the first time joins touched. */
static void paint(spade_t *s, int64_t v, uint8_t colour)
{
    if (!s->color[v])
        s->touched[s->ntouched++] = v;
    s->color[v] |= colour;
}

static int ascending(const void *x, const void *y)
{
    int64_t p = *(const int64_t *)x, q = *(const int64_t *)y;

    return (p > q) - (p < q);
}

/* Walk from slot k until the head of T must pop (returns the number of
   vids queued in pv) or the walk ends (returns -1). out is the next output
   slot: a segment has emitted no more vertices than it has consumed (the
   difference is |T|), so out <= k, every write lands on a slot already
   read, and out == k exactly when T is empty. */
static int64_t run(spade_t *s)
{
    int64_t *order = s->order, *pos = s->pos, *black = s->black, *nbr = s->nbr;
    double *delta = s->delta;
    uint8_t *color = s->color;
    int64_t k = s->k, out = s->out, bi = s->bi, end = s->end, nblack = s->nblack;
    int64_t j, result;
    double dmin = s->dmin;

    for (;;) {
        int64_t v;
        double dk;

        if (!s->nT) {
            /* T empty: everything up to the next black keeps its slot (the
               stored deltas are exact again). */
            while (bi < nblack && black[bi] < k)
                bi++;
            if (bi == nblack) {
                result = -1;
                break;
            }
            k = out = black[bi];
        }
        /* Case 1: the head of T pops, on equality too (see _reorder). */
        dk = k < end ? delta[k] : INFINITY;
        if (dmin <= dk) {
            result = s->npend;
            break;
        }
        v = order[k];
        if (color[v] & (BLACK | GRAY)) {
            /* Case 2(a): recover v's weight, its edges to T and to the slots
               ahead, in row order. */
            int64_t top = s->rstart[v] + s->rlen[v];
            double w = s->a[v];

            while (bi < nblack && black[bi] <= k)
                bi++;
            for (j = s->rstart[v]; j < top; j++)
                if ((color[nbr[j]] & IN_T) || pos[nbr[j]] > k)
                    w += s->c[j];
            if (w <= dk + 1e-9 * (1.0 + fabs(dk))) {
                /* Unchanged: a global minimum like a white vertex, emitted
                   in place without entering T or colouring anything. */
                if (out != k) {
                    order[out] = v;
                    delta[out] = dk;
                    pos[v] = out;
                }
                out++;
                k++;
                continue;
            }
            if (s->first < 0)
                s->first = k;
            color[v] |= IN_T;
            s->tw[v] = w;
            s->nT++;
            s->pv[s->npend++] = v;
            if (w < dmin)
                dmin = w;
            /* Only neighbours ahead of the frontier are still tested. */
            for (j = s->rstart[v]; j < top; j++)
                if (!(color[nbr[j]] & (IN_T | GRAY)) && pos[nbr[j]] > k)
                    paint(s, nbr[j], GRAY);
            k++;
            continue;
        }
        /* Case 2(b): a white vertex's stored delta is exact. Emit it and the
           run of white slots after it whose delta stays below dmin (at
           equality the pop takes over), moving the run down to out. */
        for (j = k + 1; j < end && delta[j] < dmin && !(color[order[j]] & (BLACK | GRAY)); j++)
            ;
        if (out == k)
            out = j;
        else {
            int64_t top = out + (j - k);

            memmove(order + out, order + k, (size_t)(j - k) * sizeof *order);
            memmove(delta + out, delta + k, (size_t)(j - k) * sizeof *delta);
            for (; out < top; out++)
                pos[order[out]] = out;
        }
        k = j;
    }
    if (result < 0) {
        for (j = 0; j < s->ntouched; j++)
            color[s->touched[j]] = 0;
        s->ntouched = 0;
        if (s->first < 0)
            s->first = s->stop = end;
    }
    s->k = k;
    s->out = out;
    s->bi = bi;
    s->dmin = dmin;
    return result;
}

int64_t walk(spade_t *s, int64_t nblack)
{
    int64_t i;

    for (i = 0; i < nblack; i++) {
        paint(s, s->black[i], BLACK);
        s->black[i] = s->pos[s->black[i]];
    }
    qsort(s->black, (size_t)nblack, sizeof *s->black, ascending);
    s->nblack = nblack;
    s->bi = s->nT = s->npend = 0;
    s->k = s->out = s->black[0];
    s->first = -1;
    s->stop = s->end;
    s->dmin = INFINITY;
    return run(s);
}

int64_t relax(spade_t *s, int64_t vmin, double h)
{
    int64_t j, top = s->rstart[vmin] + s->rlen[vmin];

    s->npend = 0;
    s->dmin = h;
    s->order[s->out] = vmin;
    s->delta[s->out] = s->tw[vmin];
    s->pos[vmin] = s->out;
    s->stop = ++s->out;
    s->color[vmin] &= (uint8_t)~IN_T;
    s->nT--;
    for (j = s->rstart[vmin]; j < top; j++) {
        int64_t u = s->nbr[j];

        if (s->color[u] & IN_T) {
            double w = s->tw[u] -= s->c[j];

            s->pv[s->npend++] = u;
            if (w < s->dmin)
                s->dmin = w;
        }
    }
    return run(s);
}

int64_t detect(spade_t *s, int64_t lo, int64_t hi, int64_t first, int64_t end, int64_t B)
{
    double *F = s->F, *off = s->off, *bmax = s->bmax;
    const double *delta = s->delta;
    int64_t *barg = s->barg;
    int64_t nb = (hi - lo + B - 1) / B;
    int64_t bf = (hi - 1 - first) / B, be = (hi - end) / B, b, j;
    double anchor, old, sum = 0.0;

    /* The span widens to its blocks, be up to bf: [bottom(bf), hi - be*B). */
    first = bottom(lo, hi, B, bf);
    end = hi - be * B;
    anchor = end < hi ? F[end] + off[be - 1] : 0.0;
    old = first > lo ? F[first] + off[bf] : 0.0;

    /* One descending pass re-accumulates f(S_j) over the span, anchored at
       the true F[end], and rescans each of its blocks, now exact. */
    for (b = be; b <= bf; b++) {
        int64_t bot = bottom(lo, hi, B, b), arg = bot;
        double best = -INFINITY;

        for (j = hi - b * B - 1; j >= bot; j--) {
            sum += delta[j];
            F[j] = sum + anchor;
            keep(F, hi, j, &best, &arg);
        }
        bmax[b] = best;
        barg[b] = arg;
        off[b] = 0.0;
    }

    /* Blocks ahead of the span shift by the change of F[first], lazily. */
    if (first > lo) {
        double d = F[first] - old;

        for (b = bf + 1; b < nb; b++)
            off[b] += d;
    }

    /* Query: a block's g can exceed bmax by at most max(off, 0) over its
       shortest suffix. Take the highest bound, ties to the earlier slots;
       a stale winner (off != 0) is rescanned and the query repeats. */
    for (;;) {
        int64_t top = 0;
        double bound = -INFINITY;
        for (b = 0; b < nb; b++) {
            double u = bmax[b] + (off[b] > 0.0 ? off[b] : 0.0) / (double)(b * B + 1);
            u += 1e-12 * fabs(u);
            if (u >= bound) {
                bound = u;
                top = b;
            }
        }
        if (off[top] == 0.0)
            return top;
        scan(F, off, bmax, barg, lo, hi, B, top);
    }
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
