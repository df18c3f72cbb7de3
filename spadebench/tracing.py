"""Spans and counters around the layers, installed from outside ``src/``.

:class:`Tracer` wraps the public engine calls, the two internal phases of
an update (``SpadeEngine._reorder`` and ``_refresh_detection``),
``build_engine`` and ``run_stream``, and swaps the engine module's
``peel_sequence`` and ``heapq`` references for counting shims. Each
wrapper records a span ``[name, start, end, parent, update, info]``;
spans of one top-level engine call share an update id. Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines.

The ``_reorder`` wrapper diffs ``_order`` before and after the call to
get the rewritten span, an O(n) copy, which is why end-to-end numbers
come only from untraced runs.
"""
from __future__ import annotations

import functools
import heapq
import json
import time
from typing import Dict, List

import numpy as np

_ENGINE_CALLS = ("bulk_load", "insert_edge", "insert_batch", "is_benign",
                 "insert_grouped", "flush_buffer")


class _CountingHeapq:
    """Stands in for ``heapq`` inside the engine module, counting calls."""

    def __init__(self):
        self.push = 0
        self.pop = 0

    def heappush(self, heap, item):
        self.push += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pop += 1
        return heapq.heappop(heap)

    def __getattr__(self, name):
        return getattr(heapq, name)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.updates = 0
        self.front_regrows = 0
        self.heap = _CountingHeapq()
        self._saved: List[tuple] = []

    # -- span bookkeeping ------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0 and self.spans[parent][0].startswith("engine."):
            update = self.spans[parent][4]
        else:
            self.updates += 1
            update = self.updates
        self.spans.append([name, time.perf_counter(), None, parent, update, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, owner, attr: str, name: str, probe=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = probe(*args, **kwargs) if probe else None
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                tracer.spans[idx][5] = after(out)
            return out

        setattr(owner, attr, traced)

    # -- probes: called before the wrapped call, return a post-call hook --
    def _batch_probe(self, eng, edges, *args, **kwargs):
        n0 = eng.n_vertices
        return lambda out: {"edges": len(edges), "new": eng.n_vertices - n0,
                            "fresh": len(out)}

    def _reorder_probe(self, eng, black):
        before = eng._order[eng._lo : eng._hi].copy()
        push, pop = self.heap.push, self.heap.pop

        def after(_):
            diff = np.flatnonzero(before != eng._order[eng._lo : eng._hi])
            return {"black": len(black), "push": self.heap.push - push,
                    "pop": self.heap.pop - pop,
                    "span": int(diff[-1] - diff[0] + 1) if len(diff) else 0}

        return after

    def install(self) -> "Tracer":
        import repro.core.engine as engine_mod
        from repro.spark import builder, streaming

        eng_cls = engine_mod.SpadeEngine
        for call in _ENGINE_CALLS:
            probe = {"insert_batch": self._batch_probe,
                     "is_benign": lambda *a, **k: (lambda out: {"benign": bool(out)})}.get(call)
            self._wrap(eng_cls, call, f"engine.{call}", probe)
        self._wrap(eng_cls, "_reorder", "engine._reorder", self._reorder_probe)
        self._wrap(eng_cls, "_refresh_detection", "engine._refresh_detection",
                   lambda *a: (lambda out: {"changed": bool(out)}))
        self._wrap(engine_mod, "peel_sequence", "peel.peel_sequence")
        self._wrap(builder, "build_engine", "builder.build_engine")
        self._wrap(streaming, "run_stream", "streaming.run_stream")

        regrow = eng_cls._ensure_front_gap
        self._saved.append((eng_cls, "_ensure_front_gap", regrow))

        def counted(eng, m):
            self.front_regrows += eng._lo < m
            return regrow(eng, m)

        eng_cls._ensure_front_gap = counted
        self._saved.append((engine_mod, "heapq", engine_mod.heapq))
        engine_mod.heapq = self.heap
        return self

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, update, info in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "update": update,
                                    "info": info}) + "\n")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return _pct(values, 50)


def layer_metrics(tracer: Tracer, measurement, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced measurement.

    Spans inside a timed pass count as timed; shares are busy time inside
    the passes over their total length.
    """
    spans = tracer.spans
    windows = measurement.windows

    def timed(s):
        return any(a <= s[1] and s[2] <= b for a, b in windows)

    def dur(s):
        return s[2] - s[1]

    child_time: Dict[int, float] = {}
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + dur(s)
    by: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s[0], []).append(i)

    def pick(name, only_timed=True, parent=None):
        out = [i for i in by.get(name, []) if not only_timed or timed(spans[i])]
        if parent is not None:
            out = [i for i in out if spans[i][3] >= 0 and spans[spans[i][3]][0] in parent]
        return out

    window = sum(b - a for a, b in windows) or 1.0
    reorder = pick("engine._reorder")
    detect = pick("engine._refresh_detection")
    batches = pick("engine.insert_batch")
    benign = pick("engine.is_benign")
    flushes = pick("engine.insert_batch", parent={"engine.insert_grouped", "engine.flush_buffer"})
    info = lambda idx, key: [spans[i][5][key] for i in idx]  # noqa: E731
    ms = lambda idx: [1e3 * dur(spans[i]) for i in idx]  # noqa: E731

    m = {
        "engine.reorder_ms_p50": _pct(ms(reorder), 50),
        "engine.reorder_ms_p99": _pct(ms(reorder), 99),
        "engine.reorder_share": sum(dur(spans[i]) for i in reorder) / window,
        "engine.heap_push_p50": _pct(info(reorder, "push"), 50),
        "engine.heap_push_p99": _pct(info(reorder, "push"), 99),
        "engine.heap_pop_p50": _pct(info(reorder, "pop"), 50),
        "engine.heap_pop_p99": _pct(info(reorder, "pop"), 99),
        "engine.rewrite_span_p50": _pct(info(reorder, "span"), 50),
        "engine.rewrite_span_p99": _pct(info(reorder, "span"), 99),
        "engine.black_p50": _pct(info(reorder, "black"), 50),
        "engine.black_p99": _pct(info(reorder, "black"), 99),
        "engine.detect_ms_p50": _pct(ms(detect), 50),
        "engine.detect_share": sum(dur(spans[i]) for i in detect) / window,
        "engine.detect_changed_ratio": (
            float(np.mean(info(detect, "changed"))) if detect else 0.0),
        "engine.insert_batch_ms_p50": _pct(ms(batches), 50),
        "engine.insert_batch_ms_p99": _pct(ms(batches), 99),
        "engine.apply_share": sum(dur(spans[i]) - child_time.get(i, 0.0)
                                  for i in batches) / window,
        "engine.new_vertices": float(sum(info(batches, "new"))),
        "engine.front_regrows": float(tracer.front_regrows),
        "engine.is_benign_us_p50": _pct([1e6 * dur(spans[i]) for i in benign], 50),
        "engine.is_benign_calls": float(len(benign)),
        "engine.urgent_frac": (
            1.0 - float(np.mean(info(benign, "benign"))) if benign else 0.0),
        "engine.flushes": float(len(flushes)),
        "engine.flush_edges_p50": _pct(info(flushes, "edges"), 50),
        "engine.flush_edges_p99": _pct(info(flushes, "edges"), 99),
        "engine.flush_fraud_ratio": (
            float(np.mean([f > 0 for f in info(flushes, "fresh")])) if flushes else 0.0),
        "engine.bulk_load_s": _median([dur(spans[i]) for i in pick("engine.bulk_load", False)]),
        "peel.peel_sequence_s": _median(
            [dur(spans[i]) for i in pick("peel.peel_sequence", False)]),
    }
    builds = pick("builder.build_engine", False)
    m["builder.build_engine_s"] = _median([dur(spans[i]) for i in builds])
    m["builder.collect_s"] = _median([dur(spans[i]) - child_time.get(i, 0.0) for i in builds])
    # stream_dw's first set-up is the only one that launches a JVM.
    m["builder.cold_setup_s"] = measurement.setup_s[0] if builds else 0.0

    last = measurement.passes[-1]
    prog = last.batch_ms
    engine_ms = ms(pick("engine.insert_batch", parent={"streaming.run_stream"}))
    engine_ms = engine_ms[-len(prog.get("addBatch", [])):] if prog else []
    for key in ("addBatch", "walCommit", "commitOffsets", "latestOffset", "getBatch",
                "queryPlanning"):
        m[f"streaming.{key}_ms_p50"] = _median(prog.get(key, []))
    m["streaming.engine_ms_p50"] = _median(engine_ms)
    m["streaming.collect_ms_p50"] = _median(
        [a - e for a, e in zip(prog.get("addBatch", []), engine_ms)])
    first = measurement.first_trigger_ms
    m["streaming.first_trigger_ms"] = 0.0 if first != first else float(first)
    m["streaming.batches"] = float(len(prog.get("addBatch", [])))

    m.update(extra)
    return m
