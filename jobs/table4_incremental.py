"""Reproduce Table 4: incremental maintenance vs batch size vs static.

For every dataset and every metric (DG/DW/FD) this harness measures:

* the static from-scratch peeling time (the paper's columns 2-4,
  seconds per detection) on the full graph, the median of five peels;
* the average per-edge time (µs) of the Spade engine replaying the
  timestamp-ordered increments with batch sizes |ΔE| ∈
  {1, 10, 100, 1K, 10K} — 10K standing in for the paper's 100K at the
  1:100 dataset scale (DESIGN.md §3).

Per-edge timing includes detection after every batch, matching the
paper's workflow (every insertion returns the new fraudster set). The
|ΔE|=1 replay is capped at ``--max-single`` edges to bound job time;
the cap is recorded in the output. Every incremental cell is measured
``REPEATS`` times, in rounds that each measure every cell once, so a
slow spell of the machine spreads over all cells rather than landing on
one; a cell's column holds the median and its ``_iqr`` column, beside
it, the interquartile range.

Run: ``python jobs/table4_incremental.py [--quick] [--json PATH]``.
``--json`` appends one record to the JSON list at ``PATH`` (created if
absent): the run's rows, the git sha of the checkout, whether ``src/``
differs from that commit, the CPU count and the command line.
``BENCH_table4.json`` is that trajectory for ``--quick`` runs.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd

from repro.core import SpadeEngine, metric_by_name
from repro.datasets import PRESETS, edge_rows, load_preset
from repro.datasets.generator import GraphData
from repro.spark.streaming import replay, static_time

BATCH_SIZES = [1, 10, 100, 1_000, 10_000]
METRICS = ["DG", "DW", "FD"]
#: Measurements of every incremental cell.
REPEATS = 5


def incremental_per_edge_us(
    data: GraphData,
    metric_name: str,
    batch_size: int,
    max_edges: Optional[int] = None,
) -> float:
    """Average µs/edge replaying increments at one batch size."""
    eng = SpadeEngine(metric_by_name(metric_name))
    eng.bulk_load(edge_rows(data.initial), priors=data.priors)
    inc = data.increments
    if max_edges is not None:
        inc = inc.head(max_edges)
    return replay(eng, inc, batch_size).per_edge_us


def run(
    datasets: Optional[List[str]] = None,
    scale: float = 1.0,
    max_single: int = 5_000,
) -> pd.DataFrame:
    """The full Table 4 sweep. Pure driver-side work (no SparkSession)."""
    rows = []
    for name in datasets or list(PRESETS):
        data = load_preset(name, scale=scale)
        row = {"dataset": name, "inc_edges": len(data.increments)}
        for m in METRICS:
            row[f"{m}_static_s"] = round(static_time(data, metric_by_name(m)), 4)
        cells = [(b, m) for b in BATCH_SIZES for m in METRICS]
        times = {cell: [] for cell in cells}
        for _ in range(REPEATS):
            for b, m in cells:
                cap = max_single if b == 1 else None
                times[b, m].append(incremental_per_edge_us(data, m, b, max_edges=cap))
        for b, m in cells:
            q1, med, q3 = np.percentile(times[b, m], [25, 50, 75])
            row[f"Inc{m}-{b}_us"] = round(float(med), 1)
            row[f"Inc{m}-{b}_us_iqr"] = round(float(q3 - q1), 1)
        rows.append(row)
        print(f"[table4] {name}: {row}", flush=True)
    return pd.DataFrame(rows)


def _checkout() -> Tuple[Optional[str], Optional[bool]]:
    """The checkout's HEAD sha and whether ``src/`` differs from it."""
    root = Path(__file__).resolve().parents[1]
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if head.returncode != 0:
            return None, None
        diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=root)
    except OSError:  # no git executable
        return None, None
    return head.stdout.strip(), diff.returncode != 0


def append_json(path: str, df: pd.DataFrame, command: List[str]) -> None:
    """Append one run's rows and provenance to the JSON list at ``path``."""
    sha, src_modified = _checkout()
    target = Path(path)
    records = json.loads(target.read_text()) if target.exists() else []
    records.append({
        "git_sha": sha,
        "src_modified": src_modified,
        "cpus": os.cpu_count(),
        "command": command,
        "rows": df.to_dict(orient="records"),
    })
    target.write_text(json.dumps(records, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small subset, 0.2x scale")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--max-single", type=int, default=5_000)
    ap.add_argument("--datasets", nargs="*", default=None)
    ap.add_argument("--json", metavar="PATH", help="append the rows to this JSON list")
    args = ap.parse_args(argv)
    if args.quick:
        df = run(["grab1_lite", "wikivote_lite"], scale=0.2, max_single=1_000)
    else:
        df = run(args.datasets, scale=args.scale, max_single=args.max_single)
    print("\n== Table 4: static (s) vs incremental per-edge (us) by batch size ==")
    print(df.to_string(index=False))
    if args.json:
        command = sys.argv[1:] if argv is None else argv
        append_json(args.json, df, ["jobs/table4_incremental.py", *command])


if __name__ == "__main__":
    main()
