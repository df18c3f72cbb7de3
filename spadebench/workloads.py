"""The four benchmark workloads: inputs, set-up, and the timed replay.

Every workload replays a preset's increments in timestamp order. Input
generation (``load_preset``, parquet files for the stream) happens in
:func:`make_inputs`, before any timer starts; the engine only ever sees
the generated rows.

A *pass* applies the workload's whole increment list to a freshly set-up
engine. :func:`measure` sets up ``setups`` times (``setup_s`` is their
median) and runs groups of ``repeats`` passes until the timed phase has
lasted at least the requested number of seconds, so a faster program
measures more groups of the same work rather than a longer prefix of
different work.

Every call and every set-up is paired with speed probes, a fixed slice
of interpreter work timed on its own, and the figures scale each time by
how much slower than a fast core the machine ran around it
(:func:`slowdown`; README "Speed correction").
"""
from __future__ import annotations

import os
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core import SpadeEngine, metric_by_name
from repro.datasets import load_preset


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    metric: str
    mode: str  # edge | grouped | stream
    n_increments: int
    repeats: int  # passes whose per-call minimum gives one set of figures


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        # Why each workload, and why these sizes: README.md.
        Workload("edge_fd", "grab1_lite", "FD", "edge", 1_000, 2),
        Workload("edge_dw", "grab2_lite", "DW", "edge", 10_000, 2),
        Workload("grouped_dg", "grab4_lite", "DG", "grouped", 25_000, 1),
        Workload("stream_dw", "grab1_lite", "DW", "stream", 7_500, 3),
    ]
}

#: Open-loop offered rate of ``grouped_dg`` (edges/s on the virtual clock):
#: about a third of the seed engine's closed-loop grouped throughput,
#: 1,300-1,700 edges/s on a 4-core x86 container.
GROUPED_RATE = 500.0
GROUPED_MAX_BUFFER = 1_000
STREAM_FILES = 30
#: Set-ups per run: a bulk load takes ~1 s; a stream set-up takes 3-8 s.
SETUPS = {"edge": 5, "grouped": 5, "stream": 3}
#: Speed probe: loop length; the probes on each side of an engine call
#: whose mean stands for the core's speed during the call; the sampling
#: period during set-ups and stream passes.
PACE_ITERS = 300
PACE_WINDOW = 25
PACE_PERIOD_S = 0.01
#: The probe's time on a fast core: its fast state on the 4-core x86
#: container the bounds were set on. Corrected times are times on a core
#: that runs the probe this fast.
PACE_REF_S = 16.3e-6
_PACE_DATA = [float(i) for i in range(32)]


def pace() -> float:
    """Seconds a fixed slice of pure-Python work takes now on this core.

    It allocates nothing that outlives it, so the engine's garbage does
    not make it slower.
    """
    data = _PACE_DATA
    t0 = time.perf_counter()
    s = 0.0
    for i in range(PACE_ITERS):
        s += data[i & 31] * 0.5
    return time.perf_counter() - t0


class PaceSampler:
    """Samples the probe every ``PACE_PERIOD_S`` on a background thread
    while the ``with`` block runs.

    Each sample is the second of two back-to-back probes: a first probe
    after the thread wakes reads ~2.4x slower even on an idle machine.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PACE_PERIOD_S):
            pace()
            self.samples.append(pace())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def slowdown(pace_s: np.ndarray, cap: float) -> np.ndarray:
    """Per probe: mean time of the nearest ``2 * PACE_WINDOW + 1`` probes over ``PACE_REF_S``.

    Each probe is first capped at ``cap``, so one hit by an interrupt
    does not stand for the core's speed.
    """
    x = np.minimum(pace_s, cap)
    n, w = len(x), PACE_WINDOW
    c = np.concatenate([[0.0], np.cumsum(x)])
    i = np.arange(n)
    lo, hi = np.clip(i - w, 0, n), np.clip(i + w + 1, 0, n)
    return (c[hi] - c[lo]) / (hi - lo) / PACE_REF_S


@dataclass
class Inputs:
    """Generated rows of one workload; built before any timer starts."""

    workload: Workload
    initial: List[tuple]
    increments: List[tuple]
    priors: Dict
    campaign: np.ndarray  # per increment: campaign index, -1 for others
    campaigns: List[frozenset]
    n_initial: int
    gen_s: float
    # stream_dw only: where the initial graph and the increment files live
    initial_path: Optional[Path] = None
    increments_dir: Optional[Path] = None
    warmup_dir: Optional[Path] = None  # one tiny file for the set-up query
    file_last_ts: List[float] = field(default_factory=list)


def make_inputs(wl: Workload, seed: int, work_dir: Path, scale: float = 1.0) -> Inputs:
    """The preset's rows for ``seed``, split into initial graph and replay.

    The replay starts at the first increment of a campaign (fraud block
    planted in the increment tail), so every window holds campaign edges
    for ℒ; on some seeds a campaign starts over 1,000 increments into the
    tail. The increments before it join the initial graph, which the
    engine would reach by replaying them anyway.
    """
    t0 = time.perf_counter()
    data = load_preset(wl.preset, scale=scale, seed=seed)
    n_est = len(data.established_blocks)
    block = data.edges["block"].to_numpy()
    start = data.n_initial + int(np.argmax(block[data.n_initial :] >= n_est))
    initial = data.edges.iloc[:start]
    inc = data.edges.iloc[start : start + wl.n_increments]
    cols = ["src", "dst", "amount"]
    campaign = np.where(block[start : start + len(inc)] >= n_est,
                        block[start : start + len(inc)] - n_est, -1)
    inputs = Inputs(
        workload=wl,
        initial=list(initial[cols].itertuples(index=False, name=None)),
        increments=list(inc[cols].itertuples(index=False, name=None)),
        priors=data.priors,
        campaign=campaign,
        campaigns=list(data.fraud_blocks),
        n_initial=len(initial),
        gen_s=0.0,
    )
    if wl.mode == "stream":
        from repro.spark.streaming import write_increment_files

        inputs.initial_path = work_dir / "initial.parquet"
        initial.to_parquet(inputs.initial_path, index=False)
        inputs.increments_dir = work_dir / "increments"
        n_files = max(1, min(STREAM_FILES, len(inc)))
        write_increment_files(inc, str(inputs.increments_dir), n_files)
        ts = inc["ts"].to_numpy()
        stops = np.cumsum([len(c) for c in np.array_split(np.arange(len(inc)), n_files)])
        inputs.file_last_ts = [float(ts[s - 1]) for s in stops]
        inputs.warmup_dir = work_dir / "warmup"
        inputs.warmup_dir.mkdir()
        initial.head(8).to_parquet(inputs.warmup_dir / "batch-000000.parquet", index=False)
    inputs.gen_s = time.perf_counter() - t0
    return inputs


# ----------------------------------------------------------------------
# one timed pass
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one timed pass recorded, call by call.

    A *call* is one engine call on the engine workloads and one Spark
    micro-batch on ``stream_dw``. Every pass of a run replays the same
    increments on an identically set-up engine, so call ``i`` does the
    same work in every pass.
    """

    wall_s: float
    edges: int
    failed: int
    call_s: np.ndarray  # duration of each call (stream: triggerExecution)
    rounds: np.ndarray  # bool per call: the call ran Detect
    applied_by: np.ndarray  # per edge: the call that applied it
    fresh: List[set]  # per call: the fraudsters it returned
    batch_ms: Dict[str, List[float]] = field(default_factory=dict)  # stream_dw
    detections: list = field(default_factory=list)  # stream_dw
    pace_s: np.ndarray = field(default_factory=lambda: np.empty(0))  # probes (edge: one per call)

    @property
    def calls(self) -> int:
        return len(self.call_s)


def bulk_loaded(inputs: Inputs) -> SpadeEngine:
    eng = SpadeEngine(metric_by_name(inputs.workload.metric))
    eng.bulk_load(inputs.initial, priors=inputs.priors)
    return eng


def edge_pass(inputs: Inputs, eng: SpadeEngine) -> Pass:
    """Closed loop, one caller: ``insert_edge`` per increment."""
    lat, fresh, paces, failed = [], [], [], 0
    clock = time.perf_counter
    t_start = clock()
    for src, dst, amount in inputs.increments:
        t0 = clock()
        try:
            f = eng.insert_edge(src, dst, amount)
        except Exception:
            f, failed = set(), failed + 1
        lat.append(clock() - t0)
        paces.append(pace())
        fresh.append(f)
    wall = clock() - t_start
    lat = np.array(lat)
    n = len(lat)
    return Pass(wall, n, failed, lat, np.ones(n, bool), np.arange(n), fresh,
                pace_s=np.array(paces))


def grouped_pass(inputs: Inputs, eng: SpadeEngine) -> Pass:
    """Open loop: ``insert_grouped`` per increment, then ``flush_buffer``."""
    lat, fresh, rounds, paces, failed = [], [], [], [], 0
    n = len(inputs.increments)
    applied_by = np.empty(n, dtype=np.int64)
    pending = 0
    clock = time.perf_counter
    t_start = clock()
    for i, (src, dst, amount) in enumerate(inputs.increments):
        t0 = clock()
        try:
            f = eng.insert_grouped(src, dst, amount, max_buffer=GROUPED_MAX_BUFFER)
        except Exception:
            f, failed = set(), failed + 1
        lat.append(clock() - t0)
        paces.append(pace())
        fresh.append(f)
        # A benign edge always lands in the buffer, so an empty buffer
        # after the call means this call flushed (urgent or cap hit).
        flushed = eng.buffered_edges == 0
        rounds.append(flushed)
        if flushed:
            applied_by[pending : i + 1] = i
            pending = i + 1
    t0 = clock()
    try:
        f = eng.flush_buffer()
    except Exception:
        f, failed = set(), failed + 1
    lat.append(clock() - t0)
    paces.append(pace())
    wall = clock() - t_start
    fresh.append(f)
    rounds.append(pending < n)
    applied_by[pending:] = n
    lat = np.array(lat)
    return Pass(wall, n, failed, lat, np.array(rounds), applied_by, fresh,
                pace_s=np.array(paces))


# ----------------------------------------------------------------------
# stream_dw: Spark set-up and the Structured Streaming backlog drain
# ----------------------------------------------------------------------
class ProgressLog:
    """Collects Spark's per-micro-batch progress through a query listener."""

    def __init__(self):
        from pyspark.sql.streaming import StreamingQueryListener

        log = self

        class _Listener(StreamingQueryListener):
            def onQueryStarted(self, event):
                pass

            def onQueryProgress(self, event):
                p = event.progress
                if p.numInputRows > 0:
                    with log.lock:
                        log.events.append((str(p.runId), p.batchId, dict(p.durationMs)))

            def onQueryIdle(self, event):
                pass

            def onQueryTerminated(self, event):
                pass

        self.listener = _Listener()
        self.lock = threading.Lock()
        self.events: List[tuple] = []

    def runs(self) -> Dict[str, List[dict]]:
        """Per query run: progress durations in batch order."""
        with self.lock:
            events = list(self.events)
        out: Dict[str, List[tuple]] = {}
        for run, bid, dur in events:
            out.setdefault(run, []).append((bid, dur))
        return {r: [d for _, d in sorted(v, key=lambda x: x[0])] for r, v in out.items()}

    def wait_new_run(self, known: set, n_batches: int, timeout: float = 30.0) -> List[dict]:
        """Progress of the first run not in ``known`` once all batches reported.

        Listener events arrive asynchronously, possibly after the query
        has terminated.
        """
        deadline = time.monotonic() + timeout
        while True:
            fresh = [v for r, v in self.runs().items() if r not in known]
            done = [v for v in fresh if len(v) >= n_batches]
            if done:
                return done[0]
            if time.monotonic() > deadline:
                return max(fresh, key=len, default=[])
            time.sleep(0.05)


class SparkStack:
    """A local Spark driver session, and the JVM behind it, owned by the benchmark.

    :meth:`start` with ``cold=True`` launches a new JVM; :meth:`stop`
    with ``jvm=True`` shuts the JVM down and waits for it to exit.
    """

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.spark = None
        self.progress: Optional[ProgressLog] = None
        self.cores = min(4, os.cpu_count() or 1)
        self.master = f"local[{self.cores}]"

    def start(self):
        from pyspark.sql import SparkSession

        tmp = self.work_dir / "tmp"
        tmp.mkdir(exist_ok=True)
        # The JVM's scratch space stays inside the checkout even where the
        # environment names another one.
        os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
        self.spark = (
            SparkSession.builder.master(self.master)
            .appName("spadebench")
            .config("spark.driver.memory", "2g")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.sql.shuffle.partitions", str(self.cores))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.local.dir", str(tmp))
            .config("spark.sql.warehouse.dir", str(self.work_dir / "warehouse"))
            .config("spark.driver.extraJavaOptions",
                    f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        self.progress = ProgressLog()
        self.spark.streams.addListener(self.progress.listener)
        return self.spark

    def stop(self, jvm: bool = True):
        from pyspark import SparkContext

        if self.spark is not None:
            self.spark.stop()
            self.spark = None
        gw = SparkContext._gateway
        if jvm and gw is not None:
            gw.shutdown()
            proc = getattr(gw, "proc", None)
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            SparkContext._gateway = None
            SparkContext._jvm = None


def build(inputs: Inputs, stack: SparkStack) -> SpadeEngine:
    from repro.spark import builder

    initial = stack.spark.read.parquet(str(inputs.initial_path))
    return builder.build_engine(
        stack.spark, initial, metric_by_name(inputs.workload.metric), priors=inputs.priors
    )


def stream_setup(inputs: Inputs, stack: SparkStack) -> tuple:
    """Session start, ``build_engine`` and a first query, which compiles the
    file-source plan, into a throwaway engine.

    Returns the engine and the first query's first-trigger time in ms.
    """
    from repro.spark import streaming

    stack.start()
    eng = build(inputs, stack)
    known = set(stack.progress.runs())
    streaming.run_stream(
        stack.spark, SpadeEngine(eng.metric), str(inputs.warmup_dir),
        str(stack.work_dir / f"ckpt-warm-{time.time_ns()}"),
    )
    first = stack.progress.wait_new_run(known, 1)
    return eng, (first[0]["triggerExecution"] if first else float("nan"))


def stream_pass(inputs: Inputs, eng: SpadeEngine, stack: SparkStack) -> Pass:
    """Closed backlog drain: ``run_stream`` over every increment file."""
    from repro.spark import streaming

    n_files = len(inputs.file_last_ts)
    known = set(stack.progress.runs())
    t0 = time.perf_counter()
    with PaceSampler() as sampler:
        try:
            dets = streaming.run_stream(
                stack.spark, eng, str(inputs.increments_dir),
                str(stack.work_dir / f"ckpt-{time.time_ns()}"),
            ).detections
        except Exception:
            dets = []
    wall = time.perf_counter() - t0
    prog = stack.progress.wait_new_run(known, n_files)
    trig = np.array([p["triggerExecution"] / 1e3 for p in prog])
    sizes = [d.n_edges for d in dets]
    failed = n_files - len(dets)
    if len(trig) != len(dets):
        # Spark reported other batches than the handler saw: count the
        # mismatch as a failure and spread the pass time over the batches.
        trig, failed = np.full(len(dets), wall / max(1, len(dets))), max(failed, 1)
    return Pass(
        wall, sum(sizes), failed, trig, np.ones(len(dets), bool),
        np.repeat(np.arange(len(dets)), sizes), [d.new_fraudsters for d in dets],
        {k: [p.get(k, 0) for p in prog] for k in (prog[0] if prog else {})}, dets,
        np.array(sampler.samples),
    )


# ----------------------------------------------------------------------
# one measurement: set-ups, then groups of passes for at least `seconds`
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    setup_s: List[float]
    passes: List[Pass]
    engine: SpadeEngine  # the last pass's engine, for the correctness gate
    windows: List[tuple]  # (start, end) perf_counter interval of each pass
    first_trigger_ms: float = float("nan")
    setup_pace: List[np.ndarray] = field(default_factory=list)  # probes around each set-up


def measure(inputs: Inputs, seconds: float, setups: Optional[int] = None,
            stack: Optional[SparkStack] = None) -> Measurement:
    """Set up ``setups`` times, then run groups of passes for at least ``seconds``.

    The engines of the last set-ups serve the first group; further
    passes set up again, untimed. On ``stream_dw`` only the first set-up
    launches a JVM.
    """
    mode, repeats = inputs.workload.mode, inputs.workload.repeats
    setups = SETUPS[mode] if setups is None else setups
    setup_s: List[float] = []
    setup_pace: List[np.ndarray] = []
    engines: List[SpadeEngine] = []
    first_ms = float("nan")
    for rep in range(setups):
        if mode == "stream":
            stack.stop(jvm=rep == 0)  # untimed; only the first set-up is cold
        t0 = time.perf_counter()
        with PaceSampler() as sampler:
            if mode == "stream":
                eng, ms = stream_setup(inputs, stack)
                first_ms = ms if rep == 0 else first_ms
            else:
                eng = bulk_loaded(inputs)
        setup_s.append(time.perf_counter() - t0)
        setup_pace.append(np.array(sampler.samples))
        engines = (engines + [eng])[-repeats:]
        del eng
    passes: List[Pass] = []
    windows: List[tuple] = []
    while True:
        if engines:
            eng = engines.pop(0)
        else:
            eng = build(inputs, stack) if mode == "stream" else bulk_loaded(inputs)
        t0 = time.perf_counter()
        if mode == "edge":
            passes.append(edge_pass(inputs, eng))
        elif mode == "grouped":
            passes.append(grouped_pass(inputs, eng))
        else:
            passes.append(stream_pass(inputs, eng, stack))
        windows.append((t0, time.perf_counter()))
        if len(passes) % repeats == 0 and sum(p.wall_s for p in passes) >= seconds:
            return Measurement(setup_s, passes, eng, windows, first_ms, setup_pace)


# ----------------------------------------------------------------------
# end-to-end figures of one group of passes
# ----------------------------------------------------------------------
def virtual_clock(call_s: np.ndarray, rate: Optional[float], n_open: int):
    """Due and completion times of consecutive calls, in seconds.

    The first ``n_open`` calls run open loop when ``rate`` is given: call
    ``i`` is due at ``i / rate``, starts at ``max(due, previous
    completion)`` and lasts its measured time. Every other call is due
    when the previous one completes (closed loop).
    """
    due = np.empty(len(call_s))
    end = np.empty(len(call_s))
    t = 0.0
    for i, d in enumerate(call_s):
        due[i] = i / rate if rate and i < n_open else t
        t = max(due[i], t) + d
        end[i] = t
    return due, end


def fraud_response(inputs: Inputs, p: Pass, call_s: np.ndarray):
    """ℒ samples (s) of every campaign edge and ℛ averaged over campaigns.

    An edge is due when the call that carries it is due (on ``stream_dw``,
    when its micro-batch starts); its response ends when the call that
    applied it completes. An edge due at or after the completion of the
    first call that flagged its campaign counts as prevented.
    """
    grouped = inputs.workload.mode == "grouped"
    n = len(inputs.increments)
    due, end = virtual_clock(call_s, GROUPED_RATE if grouped else None, n)
    edge_due = due[:n] if grouped else due[p.applied_by]
    mask = inputs.campaign >= 0
    resp = (end[p.applied_by] - edge_due)[mask]
    ratios = []
    for c, members in enumerate(inputs.campaigns):
        edges = np.flatnonzero(inputs.campaign == c)
        if not len(edges):
            continue  # campaign lies wholly in the initial graph
        hit = next((i for i, f in enumerate(p.fresh) if f & members), None)
        tau = np.inf if hit is None else end[hit]
        ratios.append(float(np.mean(edge_due[edges] >= tau)))
    return resp, (float(np.mean(ratios)) if ratios else 0.0)


def group_figures(inputs: Inputs, group: List[Pass], cap: float) -> Dict[str, float]:
    """End-to-end figures of a group of identical passes.

    Each call's time is first divided by the machine's slowdown around
    it: on the engine workloads the slowdown of the probes next to the
    call, on ``stream_dw`` that of the probes sampled during the pass. Each call's
    time is then the smallest of its measurements in the group, which keeps a slow
    spell of a shared machine that hits one pass out of the figures. A
    group whose passes differ in shape (a failed call or batch) falls
    back to its last pass.
    """
    if len({p.calls for p in group}) > 1 or len({p.edges for p in group}) > 1:
        group = group[-1:]
    if inputs.workload.mode == "stream":
        scale = [np.mean(np.minimum(p.pace_s, cap)) / PACE_REF_S if len(p.pace_s) else 1.0
                 for p in group]
    else:  # a probe after every engine call
        scale = [slowdown(p.pace_s, cap) for p in group]
    call_s = np.min([p.call_s / k for p, k in zip(group, scale)], axis=0)
    p = group[-1]
    resp, prevented = fraud_response(inputs, p, call_s)
    pct = lambda x, q: 1e3 * float(np.percentile(x, q)) if len(x) else 0.0  # noqa: E731
    return {
        "edges_per_s": p.edges / max(float(call_s.sum()), 1e-12),
        "update_ms_p50": pct(call_s, 50),
        "update_ms_p99": pct(call_s, 99),
        "microbatch_ms_p50": pct(call_s[p.rounds], 50),
        "microbatch_ms_p75": pct(call_s[p.rounds], 75),
        "fraud_resp_ms_p50": pct(resp, 50),
        "fraud_resp_ms_p90": pct(resp, 90),
        "prevented_frac": prevented,
    }


def pace_cap(m: Measurement) -> float:
    """Twice the median of the run's probes."""
    return 2.0 * float(np.median(np.concatenate([p.pace_s for p in m.passes] + m.setup_pace)))


def pass_slowdowns(m: Measurement) -> List[float]:
    """Mean slowdown of each pass, for the run record."""
    cap = pace_cap(m)
    return [float(np.mean(np.minimum(p.pace_s, cap))) / PACE_REF_S if len(p.pace_s) else 1.0
            for p in m.passes]


def figures(inputs: Inputs, m: Measurement) -> Dict[str, float]:
    """``setup_s``, then the median over the measurement's groups of each
    group's figures."""
    cap = pace_cap(m)
    setups = [s / (np.mean(np.minimum(p, cap)) / PACE_REF_S if len(p) else 1.0)
              for s, p in zip(m.setup_s, m.setup_pace)]
    r = inputs.workload.repeats
    groups = [group_figures(inputs, m.passes[i : i + r], cap)
              for i in range(0, len(m.passes), r)]
    return {"setup_s": float(np.median(setups)),
            **{k: float(np.median([f[k] for f in groups])) for k in groups[0]}}


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
