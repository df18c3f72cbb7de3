"""Spade benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 spadebench/run.py --workload edge_fd --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first measures untraced throughput, then installs the
span tracer and measures again, and reports the per-layer metrics plus
the tracing overhead. Either way the correctness gate runs on the final
engine, outside every timer. The last line of standard output is the
result object; the line before it holds the run's provenance. Traces and
run records are written under ``spadebench/out/``.

Exits with code 1 after printing the result when an operation or a gate
check failed, and with code 2, printing no result, when the repository's
``src/`` package is not next to this directory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

def declared_units(key: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them under ``key``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="preset scale; below 1 only for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"spadebench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["TMPDIR"] = str(OUT / "tmp")
    import workloads as W
    from gate import run_gate

    if args.workload not in W.WORKLOADS:
        print(f"spadebench: unknown workload {args.workload!r}; choose from "
              f"{sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    stack = W.SparkStack(work) if wl.mode == "stream" else None
    try:
        inputs = W.make_inputs(wl, args.seed, work, scale=args.scale)
        if args.trace:
            base = W.measure(inputs, args.seconds, setups=1, stack=stack)
            untraced_eps = W.figures(inputs, base)["edges_per_s"]
            del base
            from tracing import Tracer

            tracer = Tracer().install()
            try:
                meas = W.measure(inputs, args.seconds, stack=stack)
            finally:
                tracer.uninstall()
        else:
            meas = W.measure(inputs, args.seconds, stack=stack)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_checks, failures, check_s = run_gate(inputs, meas)
        spark_master = stack.master if stack else None
    finally:
        if stack:
            stack.stop()
        W.clean(work)

    attempted = sum(p.calls for p in meas.passes) + n_checks
    failed = sum(p.failed for p in meas.passes) + len(failures)
    for check, reason in failures:
        print(f"spadebench: check {check} failed: {reason}", file=sys.stderr)

    figures = W.figures(inputs, meas)
    prevented = figures.pop("prevented_frac")
    if args.trace:
        from tracing import layer_metrics

        values = layer_metrics(tracer, meas, {
            "validate.check_s": check_s,
            "datasets.gen_s": inputs.gen_s,
            "trace.overhead_frac": untraced_eps / figures["edges_per_s"] - 1.0,
        })
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.jsonl")
    else:
        values = {**figures, "peak_rss_mb": rss_mb, "ok_frac": 1.0 - failed / attempted}
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    import pyspark

    provenance = {
        "workload": wl.name, "preset": wl.preset, "metric": wl.metric, "mode": wl.mode,
        "increments": len(inputs.increments), "initial_edges": inputs.n_initial,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "passes": len(meas.passes), "setups": len(meas.setup_s),
        "git_sha": git_sha(), "src_sha256": source_digest(), "nproc": os.cpu_count(),
        "spark_master": spark_master, "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "rate_edges_per_s": W.GROUPED_RATE if wl.mode == "grouped" else None,
        "max_buffer": W.GROUPED_MAX_BUFFER if wl.mode == "grouped" else None,
        "prevented_frac": prevented,
        "slowdown_per_pass": W.pass_slowdowns(meas),
        "failures": failures,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=1))
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
