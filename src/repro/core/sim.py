"""Discrete-event simulation of response latency and prevention ratio.

Implements the metrics of §4.3 / §5.2:

* **Latency** ``ℒ(ΔG^τ) = Σ (τ_i^r − τ_i)`` (Eq. 4): an edge generated
  at ``τ_i`` is *responded to* at ``τ_i^r``, the completion time of the
  detection run that first covers it. Reported as the mean per edge and
  normalized against the static-rerun policy, exactly how Table 5
  normalizes ``ℒ`` of Inc* to ``ℒ`` of the static algorithm.
* **Prevention ratio** ``ℛ = |{e_i : τ_i > τ_f}| / |{e_i}|``: the share
  of a fraudster's transactions arriving *after* the fraudster was
  first flagged at ``τ_f`` — those are banned, i.e. prevented.

Three response policies are simulated over a timestamped arrival
stream, parameterized by measured processing costs:

* ``static``   — scratch detections run back-to-back, each taking
  ``static_time``; an edge is covered by the first run that *starts*
  at or after its arrival (the run then sees the edge in its snapshot).
* ``batch``    — reordering triggers when ``batch_size`` edges have
  queued (Table 4/5's Inc*-x); processing takes ``proc_time(b)``.
* ``grouping`` — Spade's edge grouping: urgent edges trigger an
  immediate flush of the benign buffer (§4.3); ``urgent`` flags come
  from replaying ``SpadeEngine.is_benign`` over the stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


@dataclass
class SimResult:
    """Per-edge response times for one policy over one arrival stream."""

    response: np.ndarray  # τ_i^r per edge, aligned with the arrival order
    arrivals: np.ndarray  # τ_i per edge

    @property
    def latency(self) -> np.ndarray:
        return self.response - self.arrivals

    @property
    def total_latency(self) -> float:
        """ℒ(ΔG^τ) of Eq. 4 — the *sum* of per-edge latencies."""
        return float(self.latency.sum())

    @property
    def mean_latency(self) -> float:
        return float(self.latency.mean()) if len(self.arrivals) else 0.0


def simulate_static(arrivals: Sequence[float], static_time: float) -> SimResult:
    """Back-to-back scratch reruns of a peeling algorithm.

    Run ``k`` starts at ``k * static_time`` (the first run starts with
    the stream) and completes one ``static_time`` later; an edge arriving
    at ``τ`` is first *seen* by the run starting at
    ``ceil(τ / static_time) * static_time`` and responded to when that
    run completes.
    """
    t = np.asarray(arrivals, dtype=np.float64)
    start = np.ceil(t / static_time) * static_time
    return SimResult(response=start + static_time, arrivals=t)


def simulate_batch(
    arrivals: Sequence[float],
    batch_size: int,
    proc_time: Callable[[int], float],
) -> SimResult:
    """Fixed-size batch reordering: queue ``batch_size`` edges, process.

    The trigger time ``τ_s`` is the arrival of the batch's last edge;
    all edges of the batch respond at ``τ_f = τ_s + proc_time(b)``. The
    trailing partial batch flushes at end-of-stream (the last arrival).
    """
    t = np.asarray(arrivals, dtype=np.float64)
    n = len(t)
    resp = np.empty(n, dtype=np.float64)
    for s in range(0, n, batch_size):
        e = min(s + batch_size, n)
        resp[s:e] = t[e - 1] + proc_time(e - s)
    return SimResult(response=resp, arrivals=t)


def simulate_grouping(
    arrivals: Sequence[float],
    urgent: Sequence[bool],
    proc_time: Callable[[int], float],
    max_buffer: Optional[int] = None,
) -> SimResult:
    """Edge grouping: benign edges queue; an urgent edge flushes the buffer.

    ``urgent[i]`` says whether edge ``i`` was classified urgent by
    Definition 4.1 at replay time. ``max_buffer`` mirrors the engine's
    optional cap so purely-benign streams still flush.
    """
    t = np.asarray(arrivals, dtype=np.float64)
    u = np.asarray(urgent, dtype=bool)
    n = len(t)
    resp = np.empty(n, dtype=np.float64)
    start = 0
    for i in range(n):
        pending = i - start + 1
        if u[i] or (max_buffer is not None and pending >= max_buffer):
            tau_f = t[i] + proc_time(pending)
            resp[start : i + 1] = tau_f
            start = i + 1
    if start < n:  # end-of-stream flush of the trailing benign buffer
        tau_f = t[-1] + proc_time(n - start)
        resp[start:n] = tau_f
    return SimResult(response=resp, arrivals=t)


def prevention_ratio(
    fraud_arrivals: Sequence[float], detection_time: Optional[float]
) -> float:
    """ℛ for one fraudster: share of its transactions after ``τ_f``.

    ``detection_time`` is the completion time of the run that first
    flagged the fraudster; ``None`` (never detected) gives ℛ = 0.
    """
    t = np.asarray(fraud_arrivals, dtype=np.float64)
    if len(t) == 0:
        return 0.0
    if detection_time is None or math.isinf(detection_time):
        return 0.0
    return float((t > detection_time).sum() / len(t))
