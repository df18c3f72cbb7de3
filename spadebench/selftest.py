"""Self-test of the benchmark, at tiny scale.

Checks that

* every workload, untraced and traced, prints every metric that
  ``BENCHMARK.json`` declares, with its declared unit, and passes the gate;
* the speed correction scales by the probes' slowdown and caps an
  interrupted probe;
* the correctness gate trips on deliberately corrupted engine copies (two
  swapped Δ entries, two swapped sequence slots, a wrong density, a lost
  edge), on a self-consistent engine that stored one edge with the wrong
  weight, and on a micro-batch applied twice;
* the benchmark refuses to run, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.

Run from the repository root: ``python3 spadebench/selftest.py``
(about five minutes; ``--quick`` skips the two ``stream_dw`` runs).
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "spadebench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def metrics_complete(quick: bool) -> None:
    """Every workload, declared or not, emits every declared metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads as W

    for name in W.WORKLOADS:
        if quick and name == "stream_dw":
            continue
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(name, trace)
            check(out.returncode == 0, f"{name} trace={trace} exited "
                  f"{out.returncode}: {out.stderr[-2000:]}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"result keys {sorted(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace} failed the gate: {out.stderr[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{name} trace={trace}: metrics differ from "
                  f"BENCHMARK.json {key}: {set(got) ^ set(want)}")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  f"{name} trace={trace}: non-numeric value")
            print(f"ok  {name} trace={trace}: {len(got)} metrics", flush=True)


def gate_trips() -> None:
    from types import SimpleNamespace

    import numpy as np
    import workloads as W
    from gate import check_batches, check_engine

    out = HERE / "out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    inputs = W.make_inputs(W.WORKLOADS["edge_dw"], 3, out, scale=float(SCALE))
    applied = 50

    def replayed(amount_of=lambda i, amount: amount):
        e = W.bulk_loaded(inputs)
        for i, (src, dst, amount) in enumerate(inputs.increments[:applied]):
            e.insert_edge(src, dst, amount_of(i, amount))
        return e

    eng = replayed()
    check(check_engine(eng, inputs, applied) == [], "gate fails on a sound engine")

    def corrupted(mutate):
        bad = copy.deepcopy(eng)
        mutate(bad)
        return [c for c, _ in check_engine(bad, inputs, applied)]

    def swap(arr, lo):
        # Two adjacent slots whose Δ differ, so the swap is visible.
        d = eng._delta[lo : eng._hi]
        i = lo + int(np.flatnonzero(np.diff(d) != 0)[0])
        arr[[i, i + 1]] = arr[[i + 1, i]]

    check("validate_peeling" in corrupted(lambda e: swap(e._delta, e._lo)),
          "gate missed two swapped Δ entries")
    check("validate_peeling" in corrupted(lambda e: swap(e._order, e._lo)),
          "gate missed two swapped sequence slots")
    check("best_density" in corrupted(lambda e: setattr(e, "_best_g", e._best_g * (1 + 1e-6))),
          "gate missed a wrong density")
    check("n_edges" in corrupted(lambda e: setattr(e, "_n_edges", e._n_edges - 1)),
          "gate missed a lost edge")
    # Self-consistent but wrong: one increment applied with a doubled amount.
    # Order and Δ agree with the stored graph, which differs from the input rows.
    wrong = [c for c, _ in check_engine(
        replayed(lambda i, amount: 2 * amount if i == 7 else amount), inputs, applied)]
    check("validate_peeling" not in wrong and "edge_weights" in wrong,
          f"gate missed an edge stored with the wrong weight: {wrong}")

    dets = [SimpleNamespace(batch_id=i, last_ts=float(i)) for i in range(3)]
    check(check_batches(dets, [0.0, 1.0, 2.0]) == [], "batch check fails on sound batches")
    check(check_batches(dets + dets[-1:], [0.0, 1.0, 2.0]) != [],
          "batch check missed a batch applied twice")
    check(check_batches(dets, [0.0, 2.0, 1.0]) != [],
          "batch check missed batches out of file order")
    shutil.rmtree(out, ignore_errors=True)
    print("ok  gate trips on corrupted engines and batches", flush=True)


def speed_correction() -> None:
    """Probes k times slower than the reference give a slowdown of k; one
    probe hit by an interrupt is capped."""
    import numpy as np
    import workloads as W

    pace = np.full(201, 1.5 * W.PACE_REF_S)
    pace[100] = 50 * W.PACE_REF_S
    k = W.slowdown(pace, 2 * float(np.median(pace)))
    check(np.allclose(k[:50], 1.5) and np.allclose(k[151:], 1.5),
          "slowdown of uniformly slow probes is not their ratio to the reference")
    check(1.5 < k[100] < 1.6, f"an interrupted probe was not capped: slowdown {k[100]}")
    print("ok  speed correction", flush=True)


def refuses_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "spadebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run("edge_fd", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(res.returncode != 0, "benchmark ran without the repository's sources")
    check('"metrics"' not in res.stdout, "benchmark printed a result without sources")
    print("ok  refuses a directory without the repository's sources", flush=True)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    gate_trips()
    speed_correction()
    refuses_bare_directory()
    metrics_complete(quick="--quick" in sys.argv)
    print("selftest passed")
