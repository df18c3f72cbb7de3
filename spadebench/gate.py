"""The correctness gate, run on the final engine of every run, untimed.

The engine under test is compared with a reference built from the input
rows alone: a fresh engine bulk-loaded with the initial edges plus the
applied increments in arrival order (``bulk_load`` evaluates ``esusp``
exactly as ``insert_edge`` does). Self-consistency checks of the final
state run alongside.

Each check is one attempted operation; a failed check counts as a failed
operation and marks the run incorrect. The run is still reported.
"""
from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core import SpadeEngine, metric_by_name
from repro.core.peel import peel
from repro.core.validate import validate_peeling

REL_TOL = 1e-9


def reference_engine(inputs, applied: int) -> SpadeEngine:
    """A fresh engine holding the initial graph plus the first ``applied`` increments.

    Priors reach only the vertices of the initial graph, as in the
    engine under test: a vertex first seen in an increment gets the
    default prior.
    """
    known = {x for e in inputs.initial for x in e[:2]}
    priors = {v: p for v, p in inputs.priors.items() if v in known}
    ref = SpadeEngine(metric_by_name(inputs.workload.metric))
    ref.bulk_load(inputs.initial + inputs.increments[:applied], priors=priors)
    return ref


def named_graph(eng: SpadeEngine) -> Tuple[Dict, Dict]:
    """Vertex weights and edge weights keyed by external vertex ids."""
    n, adj, a = eng.snapshot_graph()
    ext = eng._ext_of
    weights = {ext[u]: a[u] for u in range(n)}
    edges = {(ext[u], ext[v]): c for u in range(n) for v, c in adj[u].items()}
    return weights, edges


def same_values(got: Dict, want: Dict) -> str:
    """Empty if both maps hold the same keys and values within ``REL_TOL``."""
    if got.keys() != want.keys():
        return f"{len(got.keys() ^ want.keys())} keys differ"
    bad = [k for k, w in want.items() if abs(got[k] - w) > REL_TOL * max(1.0, abs(w))]
    return f"{len(bad)} values differ, e.g. {bad[0]!r}: {got[bad[0]]!r} != {want[bad[0]]!r}" if bad else ""


def check_engine(eng: SpadeEngine, inputs, applied: int) -> List[Tuple[str, str]]:
    """Failures of the engine-state checks, as ``(check, reason)`` pairs."""
    failures = []
    n, adj, a = eng.snapshot_graph()
    order = [eng._vid_of[x] for x in eng.order_external()]
    try:
        validate_peeling(n, adj, a, order, list(eng.deltas()))
    except AssertionError as exc:
        failures.append(("validate_peeling", str(exc)))
    if eng.n_edges != inputs.n_initial + applied:
        failures.append(("n_edges", f"engine holds {eng.n_edges}, expected "
                         f"{inputs.n_initial + applied}"))
    ref = reference_engine(inputs, applied)
    got, want = named_graph(eng), named_graph(ref)
    for what, g, w in (("vertex_weights", got[0], want[0]), ("edge_weights", got[1], want[1])):
        reason = same_values(g, w)
        if reason:
            failures.append((what, reason))
    scratch = peel(*ref.snapshot_graph()).best_density
    if abs(eng.best_density - scratch) > REL_TOL * abs(scratch):
        failures.append(
            ("best_density", f"engine {eng.best_density!r} != scratch peel {scratch!r}")
        )
    return failures


ENGINE_CHECKS = 5


def check_batches(detections, file_last_ts: List[float]) -> List[Tuple[str, str]]:
    """Each micro-batch applied exactly once, file by file, in order."""
    ids = [d.batch_id for d in detections]
    if ids != list(range(len(file_last_ts))):
        return [("batch_ids", f"applied batch ids {ids}")]
    got = [d.last_ts for d in detections]
    if got != file_last_ts:
        return [("batch_files", "a micro-batch did not hold exactly its file's edges")]
    return []


def run_gate(inputs, measurement):
    """Run every check; returns ``(n_checks, failures, seconds)``."""
    t0 = time.perf_counter()
    eng = measurement.engine
    last = measurement.passes[-1]
    n_checks = ENGINE_CHECKS
    failures = []
    if inputs.workload.mode == "grouped":
        # The timed pass ends with flush_buffer(); nothing may be left over.
        n_checks += 1
        if eng.buffered_edges:
            failures.append(("flush", f"{eng.buffered_edges} edges still buffered"))
    failures += check_engine(eng, inputs, last.edges)
    if inputs.workload.mode == "stream":
        n_checks += 2
        failures += check_batches(last.detections, inputs.file_last_ts)
        if last.edges != len(inputs.increments):
            failures.append(("n_increments", f"{last.edges} of {len(inputs.increments)} applied"))
    return n_checks, failures, time.perf_counter() - t0
