"""The benchmark's tracer still fits the engine's private hooks.

``spadebench/tracing.py`` wraps ``SpadeEngine._reorder``,
``_refresh_detection`` and ``_ensure_front_gap`` by name and swaps the
engine module's ``peel_sequence`` and ``heapq``. A refactor that renames
or reshapes one of them would silently empty the per-layer metrics, so
this drives every update path under the tracer without Spark.
"""
import heapq

import repro.core.engine as engine_mod
from repro.core import DW, SpadeEngine
from repro.core.peel import peel_sequence
from spadebench.tracing import Tracer
from tests.helpers import assert_engine_valid, random_edges

_HOOKS = ("bulk_load", "insert_edge", "insert_batch", "is_benign", "insert_grouped",
          "flush_buffer", "_reorder", "_refresh_detection", "_ensure_front_gap")


def test_tracer_records_every_engine_layer():
    originals = {name: SpadeEngine.__dict__[name] for name in _HOOKS}
    tracer = Tracer().install()
    try:
        eng = SpadeEngine(DW, vertex_prior=0.2)
        eng.bulk_load(random_edges(1, n=8, m=20, continuous=True))
        gap = eng._lo
        eng.insert_batch([(f"n{i}", f"v{i % 8}", 0.3 + i / 100) for i in range(gap + 5)])
        eng.insert_edge("v1", "v2", 3.0)
        eng.insert_batch([])
        eng.insert_grouped("v1", "v3", 0.01)
        eng.flush_buffer()
        eng.insert_grouped("v2", "v4", 0.01, max_buffer=1)
    finally:
        tracer.uninstall()

    reorder = [s for s in tracer.spans if s[0] == "engine._reorder"]
    detect = [s for s in tracer.spans if s[0] == "engine._refresh_detection"]
    assert len(reorder) == 5
    assert all(set(s[5]) == {"black", "push", "pop", "span"} for s in reorder)
    assert any(s[5]["push"] > 0 and s[5]["span"] > 0 for s in reorder)
    assert len(detect) == 6  # bulk_load's static span plus one per reorder
    assert any(s[0] == "peel.peel_sequence" for s in tracer.spans)
    assert tracer.front_regrows >= 1
    assert {name: SpadeEngine.__dict__[name] for name in _HOOKS} == originals
    assert engine_mod.heapq is heapq
    assert engine_mod.peel_sequence is peel_sequence
    assert eng.buffered_edges == 0
    assert_engine_valid(eng)
