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

Two response policies are simulated over a timestamped arrival
stream, parameterized by measured processing costs:

* ``static``  — scratch detections run back-to-back, each taking
  ``static_time``; an edge is covered by the first run that *starts*
  at or after its arrival (the run then sees the edge in its snapshot).
* ``flushes`` — the reorders an engine replay actually made: fixed-size
  batches (Table 4/5's Inc*-x, ``replay``) or edge-grouping flushes
  (§4.3, ``replay_grouped``: an urgent edge flushes the benign buffer).
  The flush sizes are the replay's ``BatchDetection.n_edges``, so the
  simulation never restates a flush rule; processing a flush of ``b``
  edges takes ``proc_time(b)``.
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


def simulate_flushes(
    arrivals: Sequence[float],
    sizes: Sequence[int],
    proc_time: Callable[[int], float],
) -> SimResult:
    """Replay a recorded flush sequence: flush ``i`` covers the next ``sizes[i]`` edges.

    A flush triggers at the arrival of its last edge and all its edges
    respond ``proc_time(sizes[i])`` later; ``sizes`` sum to
    ``len(arrivals)``, as a replay's ``BatchDetection.n_edges`` do.
    """
    t = np.asarray(arrivals, dtype=np.float64)
    b = np.asarray(sizes, dtype=np.int64)
    done = t[np.cumsum(b) - 1] + np.array([proc_time(int(k)) for k in b], dtype=np.float64)
    return SimResult(response=np.repeat(done, b), arrivals=t)


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
