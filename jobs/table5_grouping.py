"""Reproduce Table 5: elapsed time ε and normalized latency ℒ, plus ℛ.

For each Grab-like dataset and metric this harness measures, as in the
paper's Table 5:

* ``ε`` — average elapsed engine time per edge (µs) for the static
  algorithm (scratch per detection), Inc*-1K batch replay, and Inc*G
  edge grouping;
* ``ℒ`` — Eq. 4 response latency per policy from a discrete-event
  simulation driven by the measured processing times, normalized to the
  static policy (the paper's ℒ columns normalize Inc* to DG/DW/FD).
  Per §4.3, ℒ is defined over *labeled fraudulent activities* — the
  campaign edges — not the whole stream; this is why edge grouping
  achieves ~0.005-0.03 normalized latency in the paper (fraud edges are
  urgent, hence processed immediately) while benign edges may queue;
* ``ℛ`` — prevention ratio over the planted fraud blocks (§5.2 /
  Fig. 9a: IncDGG 88.34 %, IncDWG 86.53 %, IncFDG 92.47 %; Inc*-1K
  28.6 % / 41.18 % / 92.47 %).

Arrival-rate calibration (DESIGN.md §3): increment timestamps are
rescaled so the mean inter-arrival equals ``static_time / 1000`` —
i.e. a 1K batch fills in about one static detection period, the
operating point of the paper's Grab streams (1M increments against a
12-28 s detector). Without a rate anchor the latency normalization
would be an artifact of the synthetic stream duration. The anchor is
the median of five compiled peels
(:func:`repro.spark.streaming.static_time`), the same peel the engine
starts from. It is still a measured time, so ℒ and ℛ differ between
identical runs (EXPERIMENTS.md, Table 5).

Run: ``python jobs/table5_grouping.py [--quick]``.
"""
from __future__ import annotations

import argparse
from typing import List, Optional

import numpy as np
import pandas as pd

from repro.core import SpadeEngine, metric_by_name
from repro.core.sim import prevention_ratio, simulate_flushes, simulate_static
from repro.datasets import edge_rows, load_preset
from repro.datasets.generator import GraphData
from repro.spark.streaming import replay, replay_grouped, static_time

GRAB_SETS = ["grab1_lite", "grab2_lite", "grab3_lite", "grab4_lite"]
METRICS = ["DG", "DW", "FD"]
BATCH = 1_000


def _calibrated_arrivals(data: GraphData, static_s: float, batch: int) -> np.ndarray:
    """Increment timestamps rescaled to the paper's operating point."""
    ts = data.increments["ts"].to_numpy(dtype=np.float64)
    ts = ts - ts[0]
    span = ts[-1] if ts[-1] > 0 else 1.0
    target_span = len(ts) * static_s / batch
    return ts * (target_span / span)


def _detection_response(result, sim, blocks) -> List[Optional[float]]:
    """Per fraud block: response time of the batch that first flagged it.

    ``sim`` was simulated from ``result``'s own flush sizes, so flush
    ``i`` covers the next ``result.detections[i].n_edges`` edges; the
    sim response of a flush is the response of its edges.
    """
    # Build per-batch response: batches are contiguous edge ranges.
    responses: List[Optional[float]] = [None] * len(blocks)
    start = 0
    for i, det in enumerate(result.detections):
        stop = start + det.n_edges
        batch_resp = float(sim.response[stop - 1])
        for bidx, members in enumerate(blocks):
            if responses[bidx] is None and det.new_fraudsters & members:
                responses[bidx] = batch_resp
        start = stop
    return responses


def _block_prevention(
    data: GraphData, arrivals: np.ndarray, responses: List[Optional[float]]
) -> float:
    """Mean ℛ over planted campaigns (0 when a campaign is never found)."""
    inc = data.increments.reset_index(drop=True)
    offset = len(data.established_blocks)  # campaign block ids follow
    ratios = []
    for bidx, members in enumerate(data.fraud_blocks):
        mask = (inc["block"] == offset + bidx).to_numpy()
        if not mask.any():
            continue  # campaign fully inside the initial graph
        ratios.append(prevention_ratio(arrivals[mask], responses[bidx]))
    return float(np.mean(ratios)) if ratios else 0.0


def run(
    datasets: Optional[List[str]] = None,
    scale: float = 1.0,
    batch: int = BATCH,
) -> pd.DataFrame:
    """The full Table 5 sweep (driver-side; no SparkSession needed)."""
    rows = []
    for name in datasets or GRAB_SETS:
        data = load_preset(name, scale=scale)
        inc = data.increments
        row = {"dataset": name, "inc_edges": len(inc)}
        for m in METRICS:
            metric = metric_by_name(m)
            # --- static ε: scratch peel per detection --------------------
            static_s = static_time(data, metric)
            arrivals = _calibrated_arrivals(data, static_s, batch)

            # --- Inc-1K batch replay ------------------------------------
            eng_b = SpadeEngine(metric)
            eng_b.bulk_load(edge_rows(data.initial), priors=data.priors)
            res_b = replay(eng_b, inc, batch)
            batch_times = [d.elapsed_s for d in res_b.detections]
            mean_bt = float(np.mean(batch_times))

            # --- edge grouping replay -----------------------------------
            eng_g = SpadeEngine(metric)
            eng_g.bulk_load(edge_rows(data.initial), priors=data.priors)
            res_g, urgent = replay_grouped(eng_g, inc, max_buffer=10 * batch)

            # --- latency simulation (Eq. 4, over labeled fraud edges) ---
            sim_s = simulate_static(arrivals, static_s)
            # The replays' recorded flushes: the flush rules live only there.
            sizes_b = [d.n_edges for d in res_b.detections]
            sim_b = simulate_flushes(arrivals, sizes_b, lambda b: mean_bt * b / batch)
            per_edge_g = res_g.total_elapsed_s / max(1, res_g.total_edges)
            sizes_g = [d.n_edges for d in res_g.detections]
            sim_g = simulate_flushes(arrivals, sizes_g, lambda b: per_edge_g * b)
            n_est = len(data.established_blocks)
            fraud_mask = (
                inc["block"].to_numpy() >= n_est
            )  # campaign (labeled fraudulent) activities
            if not fraud_mask.any():
                fraud_mask = np.ones(len(inc), dtype=bool)

            def L(sim) -> float:
                return float(sim.latency[fraud_mask].mean())

            # --- prevention ratio ---------------------------------------
            resp_b = _detection_response(res_b, sim_b, data.fraud_blocks)
            resp_g = _detection_response(res_g, sim_g, data.fraud_blocks)
            r_batch = _block_prevention(data, arrivals, resp_b)
            r_group = _block_prevention(data, arrivals, resp_g)

            L_static = L(sim_s)
            row.update(
                {
                    f"{m}_static_eps_s": round(static_s, 4),
                    f"Inc{m}-1K_eps_us": round(res_b.per_edge_us, 1),
                    f"Inc{m}G_eps_us": round(res_g.per_edge_us, 1),
                    f"Inc{m}-1K_L": round(L(sim_b) / L_static, 4),
                    f"Inc{m}G_L": round(L(sim_g) / L_static, 4),
                    f"Inc{m}-1K_R": round(r_batch, 4),
                    f"Inc{m}G_R": round(r_group, 4),
                    f"{m}_urgent_frac": round(float(np.mean(urgent)), 4),
                }
            )
        rows.append(row)
        print(f"[table5] {name}: done", flush=True)
    return pd.DataFrame(rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    if args.quick:
        df = run(["grab1_lite"], scale=0.2, batch=200)
    else:
        df = run(scale=args.scale)
    print("\n== Table 5: elapsed eps, normalized latency L, prevention R ==")
    print(df.to_string(index=False))


if __name__ == "__main__":
    main()
