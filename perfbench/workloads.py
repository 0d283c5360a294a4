"""The benchmark's workloads and the metrics they report.

Every workload is a closed loop driven from this one process: the
next operation starts only after the previous one returned, as for a
figure script, a CLI campaign or ``submit --wait``.  Timings are host
seconds from :func:`time.perf_counter`, calibrated for host-speed
drift by :class:`HostSpeed`.  Simulated-machine results are checked,
never reported: every operation's output is compared with a
reference, and a mismatch fails the operation.

Untraced runs report the end-to-end metrics.  Traced runs alternate
instrumented and plain operations (see :mod:`tracing`) and report the
per-layer metrics.  Work counts are taken over a fixed *count window*
(the first operations of the run, whose inputs depend only on the
seed), so they repeat exactly for a given seed whatever the host speed.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.service.client import ServiceClient
from repro.service.http import ServerThread

from tracing import RNG_DRAWS, SIM_LAYERS, Tracer

# Held as modules, not names: the traced run swaps their functions for
# spanned wrappers, and calls through the module pick those up.  (The
# ``repro.experiments`` package re-exports functions that shadow some
# submodule names, hence import_module.)
campaign_mod = importlib.import_module("repro.experiments.campaign")
export_mod = importlib.import_module("repro.experiments.export")
scenario_mod = importlib.import_module("repro.experiments.scenario")

#: Samples per fig6 cell: long enough that the sampling loop, not the
#: fixed pre-sample time, dominates a cell (~0.2 s on a 2-core VM).
FIG6_SAMPLES = 400
#: Iterations per fig2 cell (plus the hidden 3-iteration ideal run).
FIG2_ITERATIONS = 1
#: Samples per fig7 campaign cell: short cells, so per-cell fixed cost
#: and pool/store overhead stay visible (the BENCH_campaign shape).
FIG7_SAMPLES = 300
#: Cold work comes in short passes, PASS_CELLS cells each (one per
#: worker and a second round); each pass is timed between its own
#: probes and the run reports the median pass, so a burst of host
#: slowness spoils one pass instead of the whole figure.
PASS_CELLS = 4
COLD_PASSES = 6
COLD_CELLS = PASS_CELLS * COLD_PASSES
JOB_CELLS = 16
WORKERS = 2
#: Count-window sizes: in-process cells per scenario, and warm
#: campaign runs or service jobs.
COUNT_CELLS = {"fig6": 4, "fig2": 2, "fig7": 3}
COUNT_OPS = 10

#: Per-layer metrics: name -> unit.  Layers a workload does not
#: exercise report 0.
LAYER_UNITS = {
    "sim.events": "count", "sim.self_s": "s", "sim.ns_per_event": "ns",
    "rng.draws": "count", "rng.self_s": "s", "rng.ns_per_draw": "ns",
    "kernel.steps": "count", "kernel.self_s": "s",
    "kernel.ns_per_step": "ns", "kernel.syscalls": "count",
    "kernel.switches": "count", "kernel.irqs": "count",
    "kernel.softirqs": "count", "kernel.lock_contended": "count",
    "hw.frames": "count", "hw.self_s": "s", "hw.ns_per_frame": "ns",
    "workloads.self_s": "s", "metrics.self_s": "s",
    "experiments.build_s": "s", "experiments.build_share": "ratio",
    "experiments.export_s": "s",
    "pool.chunks": "count", "pool.efficiency": "ratio",
    "store.gets": "count", "store.get_s_p50": "s", "store.puts": "count",
    "store.put_s_p50": "s", "store.bytes_read": "B",
    "store.bytes_written": "B", "store.hit_ratio": "ratio",
    "store.errors": "count",
    "service.submit_s_p50": "s", "service.wait_s_p50": "s",
    "service.artifact_s_p50": "s", "service.load_s": "s",
    "service.fold_s": "s", "service.dispatch_s": "s",
    "service.http_errors": "count", "service.workers_spawned": "count",
    "observe.trace_overhead": "ratio", "bench.trace_overhead": "ratio",
}

#: Simulated kernel counts from a ``trace=True`` run's tracepoint hits.
KERNEL_HITS = {"kernel.syscalls": "syscall_entry",
               "kernel.switches": "sched_switch",
               "kernel.irqs": "irq_entry",
               "kernel.softirqs": "softirq_entry",
               "kernel.lock_contended": "lock_contended"}


class Failure(Exception):
    """An operation's output did not match its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Failure(what)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


#: Highest percentile a tail is taken at.  Above it, warm-operation
#: latencies on a shared VM follow host hiccups more than the program:
#: over two 10-run sets, serve-fig7's p96 moved 25% while its p50
#: moved 14%.
TAIL_CAP = 0.90


def tail(values: List[float], cap: float = TAIL_CAP
         ) -> Tuple[float, float]:
    """The highest percentile, up to *cap*, with at least ten samples
    beyond it.

    Returns ``(value, percentile)``; with ten samples or fewer there is
    no such percentile and the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return (ordered[-1], 100.0) if ordered else (0.0, 100.0)
    index = min(n - 11, math.ceil(cap * n) - 1)
    return ordered[index], 100.0 * (index + 1) / n


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Outcome:
    """Operations attempted and failed, plus the reported metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: name -> (value, unit, human note)
        self.metrics: Dict[str, Tuple[float, str, str]] = {}

    @contextmanager
    def attempt(self, what: str) -> Iterator[None]:
        """One operation: any exception or mismatch fails it."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def metric(self, name: str, value: float, unit: str,
               note: str = "") -> None:
        self.metrics[name] = (value, unit, note)

    def timings(self, prefix: str, values: List[float], host: List[float],
                alias: str) -> None:
        """Median and tail of calibrated timings, with the sample count
        and the uncalibrated host median."""
        value, pct = tail(values)
        top, top_pct = tail(values, cap=1.0)
        n = len(values)
        self.metric(f"{prefix}_p50", median(values), "s",
                    f"n={n}; {alias}_p50; host {median(host):.6g} s")
        self.metric(f"{prefix}_tail", value, "s",
                    f"p{pct:.1f} of n={n}; {alias}_tail; host "
                    f"{tail(host)[0]:.6g} s; uncapped p{top_pct:.1f} "
                    f"{top:.6g} s")


class HostSpeed:
    """A fixed pure-Python probe, timed between operations.

    On a shared VM the host's speed drifts by tens of percent within
    seconds, and every timing moves with it.  The probe runs before
    and after each operation, and :meth:`scale` rescales the
    operation's host seconds to a host on which the probe takes
    REFERENCE_S.  Single probes jitter more than an operation that
    lasts tens of milliseconds, so the scale uses the median of the
    last WINDOW probes.  The probe is part of the benchmark, so no
    program change moves it.

    The probe is the geometric mean of an arithmetic loop and a
    pure-Python JSON encode: the workloads mix interpreter-bound
    stepping with allocation-heavy exports, and memory-bound code
    slows more than arithmetic when the host is contended.
    """

    REFERENCE_S = 0.004
    WINDOW = 5
    _DOC = {"runs": [{"samples": list(range(i * 300, (i + 1) * 300)),
                      "max_ns": i} for i in range(8)]}

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        mid = time.perf_counter()
        json.dumps(self._DOC, indent=2, sort_keys=True)
        end = time.perf_counter()
        self.samples.append(math.sqrt((mid - start) * (end - mid)))

    def scale(self, elapsed: float) -> float:
        """Calibrate an operation that ended just before the last
        sample."""
        return elapsed * self.REFERENCE_S / statistics.median(
            self.samples[-self.WINDOW:])


class Context:
    def __init__(self, seed: int, seconds: float, run_dir: str,
                 tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.tracer = tracer
        self.out = Outcome()
        self.speed = HostSpeed()
        #: (op id, host seconds, calibrated seconds) per cold pass.
        self.cold: List[Tuple[Optional[int], float, float]] = []
        #: Inputs to the per-layer metrics, filled by the workload.
        self.layers: Dict[str, Any] = {}


def seed_stream(seed: int, salt: str) -> Iterator[int]:
    """Distinct scenario seeds derived from the benchmark seed."""
    rng = random.Random(f"{seed}:{salt}")
    seen = set()
    while True:
        value = rng.randrange(1, 2 ** 31)
        if value not in seen:
            seen.add(value)
            yield value


def export_cell(result: Any) -> str:
    return export_mod.to_json(export_mod.scenario_to_dict(result))


def export_campaign(result: Any) -> str:
    # The CLI's ``--json`` bytes, which the service artifact must match.
    return export_mod.to_json(export_mod.campaign_to_dict(result)) + "\n"


@contextmanager
def instrumented(tracer: Optional[Tracer]) -> Iterator[Optional[int]]:
    """Run the block as one traced operation (or plainly, for None)."""
    if tracer is None:
        yield None
        return
    tracer.install()
    try:
        yield tracer.new_op()
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# In-process scenario cells (fig6-rtc, fig2-determinism)
# ----------------------------------------------------------------------
def _cell_spec(name: str, seed: int) -> Any:
    if name == "fig2":
        knobs: Dict[str, Any] = {"iterations": FIG2_ITERATIONS}
    else:
        knobs = {"samples": FIG7_SAMPLES if name == "fig7"
                 else FIG6_SAMPLES}
    return scenario_mod.scenario(name).configured(seed=seed, **knobs)


def _recorded(spec: Any) -> int:
    m = spec.measurement
    return m.iterations if spec.kind == "determinism" else m.samples


def run_cells(ctx: Context, name: str) -> None:
    """Serial ``run_scenario`` cells of one figure, closed loop."""
    out = ctx.out
    seeds = seed_stream(ctx.seed, name)
    if ctx.tracer is not None:
        trace_cells(ctx, name, seeds, COUNT_CELLS[name],
                    time.perf_counter() + ctx.seconds)
        data = ctx.layers["cells"]
        ctx.layers["main"] = (data["inst"], data["plain"])
        ctx.layers["main_ops"] = data["ops"]
        return
    times: List[float] = []
    host: List[float] = []
    recorded = 0
    first: Optional[Tuple[Any, str]] = None
    end = time.perf_counter() + ctx.seconds
    ctx.speed.sample()
    while time.perf_counter() < end and not out.failed:
        spec = _cell_spec(name, next(seeds))
        with out.attempt(f"{name} seed={spec.seed}"):
            start = time.perf_counter()
            result = scenario_mod.run_scenario(spec)
            elapsed = time.perf_counter() - start
            ctx.speed.sample()
            expect(result.recorder.count == _recorded(spec),
                   f"recorded {result.recorder.count} samples")
            text = export_cell(result)
            host.append(elapsed)
            times.append(ctx.speed.scale(elapsed))
            recorded += result.recorder.count
            if first is None:
                first = (spec, text)
    if first is not None:
        with out.attempt(f"{name} replay seed={first[0].seed}"):
            replay = export_cell(scenario_mod.run_scenario(first[0]))
            expect(replay == first[1], "replayed cell export differs")
    out.timings("op_s", times, host, "cell_s")
    total = sum(times)
    out.metric("cells_per_s", ratio(len(times), total), "1/s",
               f"n={len(times)}; samples_per_s="
               f"{ratio(recorded, total):.6g}; host "
               f"{ratio(len(host), sum(host)):.6g} 1/s")


def trace_cells(ctx: Context, name: str, seeds: Iterator[int],
                window: int, deadline: float) -> None:
    """Each seed runs plain, instrumented and ``trace=True``.

    The three exports must be identical.  The first *window* seeds
    feed the exact counters and the profile.  Order alternates per
    seed so neither mode always runs on a cold cache.
    """
    out = ctx.out
    tracer = ctx.tracer
    assert tracer is not None
    data: Dict[str, Any] = {"plain": [], "inst": [], "obs": [],
                            "events": 0, "hits": Counter(),
                            "build": [], "share": [], "ops": []}
    for i in itertools.count():
        if i >= window and (time.perf_counter() >= deadline
                            or out.failed):
            break
        spec = _cell_spec(name, next(seeds))
        keep = i < window
        modes = (("plain", "inst", "obs") if i % 2 == 0
                 else ("obs", "inst", "plain"))
        with out.attempt(f"traced {name} seed={spec.seed}"):
            texts = {}
            for mode in modes:
                if mode == "inst":
                    tracer.benches.clear()
                    with instrumented(tracer) as op:
                        with tracer.profiled(keep):
                            start = time.perf_counter()
                            result = scenario_mod.run_scenario(spec)
                            elapsed = time.perf_counter() - start
                        texts[mode] = export_cell(result)
                    build = sum(tracer.per_op_total(
                        [op], "build_scenario_bench").values())
                    data["ops"].append(op)
                    data["build"].append(build)
                    data["share"].append(build / elapsed)
                    if keep:
                        data["events"] += sum(b.sim.events_fired
                                              for b in tracer.benches)
                else:
                    start = time.perf_counter()
                    result = scenario_mod.run_scenario(
                        spec, trace=(mode == "obs") or None)
                    elapsed = time.perf_counter() - start
                    texts[mode] = export_cell(result)
                    if mode == "obs" and keep:
                        data["hits"].update(result.trace["hits"])
                data[mode].append(elapsed)
                expect(result.recorder.count == _recorded(spec),
                       f"{mode} recorded {result.recorder.count} samples")
            expect(len(set(texts.values())) == 1,
                   "traced and untraced exports differ")
    ctx.layers["cells"] = data


# ----------------------------------------------------------------------
# campaign-fig7: the CLI CampaignRunner over a result store
# ----------------------------------------------------------------------
def run_campaign(ctx: Context) -> None:
    store = os.path.join(ctx.run_dir, "store")

    def cli(seeds: Tuple[int, ...]) -> Tuple[Any, str]:
        spec = campaign_mod.CampaignSpec(scenarios=("fig7",), seeds=seeds,
                                         samples=FIG7_SAMPLES)
        result = campaign_mod.CampaignRunner(spec, workers=WORKERS,
                                             store=store).run()
        return result, export_campaign(result)

    warm_text: List[str] = []

    def cold(seeds: Tuple[int, ...]) -> None:
        with _cold(ctx):
            result, cold_text = cli(seeds)
        expect(result.cache["computed"] == len(seeds),
               f"cold pass computed {result.cache['computed']} cells")
        expect(cli(seeds)[1] == cold_text,
               "warm export differs from cold export")

    def warm(seeds: Tuple[int, ...]) -> Tuple[float, Any]:
        start = time.perf_counter()
        payload = cli(seeds)
        return time.perf_counter() - start, payload

    def check(payload: Tuple[Any, str]) -> None:
        result, text = payload
        expect(result.cache["hits"] == COLD_CELLS,
               f"warm run hit {result.cache['hits']} cells")
        if not warm_text:
            warm_text.append(text)
        expect(text == warm_text[0], "warm exports differ")

    _store_workload(ctx, "campaign", cold, itertools.repeat, warm, check)


def _store_workload(ctx: Context, what: str, cold: Any, warm_inputs: Any,
                    warm: Any, check: Any) -> None:
    """Cold passes, a warm loop over their cells, more cold passes.

    An untraced run makes a second round of cold passes, on fresh
    seeds, after the warm loop, so the cold figure samples two phases
    of the host's speed drift; the warm loop leaves time for it.
    """
    out = ctx.out
    start = time.perf_counter()
    first, second = _cold_seeds(ctx.seed)
    _cold_passes(ctx, what, cold, first)
    if ctx.tracer is not None:
        trace_cells(ctx, "fig7", seed_stream(ctx.seed, "fig7"),
                    COUNT_CELLS["fig7"], 0.0)
    inputs = warm_inputs(first)
    reserve = (sum(c[1] for c in ctx.cold) + 0.5
               if ctx.tracer is None else 0.0)
    _warm_loop(ctx, f"warm {what}", lambda: warm(next(inputs)), check,
               start + ctx.seconds - reserve)
    if ctx.tracer is None and not out.failed:
        _cold_passes(ctx, what, cold, second)
        host = [PASS_CELLS / c[1] for c in ctx.cold]
        out.metric("cells_per_s",
                   median([PASS_CELLS / c[2] for c in ctx.cold]), "1/s",
                   f"median of {len(ctx.cold)} cold passes of "
                   f"{PASS_CELLS} cells, {WORKERS} workers; "
                   f"cold_cells_per_s; host {median(host):.6g} 1/s")


def _cold_passes(ctx: Context, what: str, cold: Any,
                 seeds: Tuple[int, ...]) -> None:
    for i in range(0, len(seeds), PASS_CELLS):
        with ctx.out.attempt(f"cold {what} pass {len(ctx.cold)}"):
            cold(seeds[i:i + PASS_CELLS])


@contextmanager
def _cold(ctx: Context) -> Iterator[None]:
    """Time one cold pass of a store workload."""
    ctx.speed.sample()
    with instrumented(ctx.tracer) as op:
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
    ctx.speed.sample()
    ctx.cold.append((op, elapsed, ctx.speed.scale(elapsed)))


def _cold_seeds(seed: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    seeds = tuple(itertools.islice(seed_stream(seed, "fig7-cold"),
                                   2 * COLD_CELLS))
    return seeds[:COLD_CELLS], seeds[COLD_CELLS:]


def _warm_loop(ctx: Context, what: str, op_fn: Any, check: Any,
               end: float) -> None:
    """Warm operations until *end*.

    *op_fn* returns ``(seconds, payload)``; *check* validates the
    payload outside the timed and instrumented part.  Traced runs
    alternate instrumented and plain operations, with at least
    COUNT_OPS instrumented ones.
    """
    out = ctx.out
    tracer = ctx.tracer
    inst: List[float] = []
    plain: List[float] = []
    calibrated: List[float] = []
    ops: List[int] = []
    ctx.speed.sample()
    for i in itertools.count():
        window_open = i == 0 or (tracer is not None and i < 2 * COUNT_OPS)
        if not window_open and (time.perf_counter() >= end or out.failed):
            break
        traced = tracer is not None and i % 2 == 0
        with out.attempt(f"{what} #{i}"):
            with instrumented(tracer if traced else None) as op:
                elapsed, payload = op_fn()
            ctx.speed.sample()
            check(payload)
            if op is not None:
                ops.append(op)
            (inst if traced else plain).append(elapsed)
            if not traced:
                calibrated.append(ctx.speed.scale(elapsed))
    if tracer is None:
        out.timings("op_s", calibrated, plain,
                    "warm_job_s" if "job" in what else "warm_run_s")
    ctx.layers["main"] = (inst, plain)
    ctx.layers["main_ops"] = ops


# ----------------------------------------------------------------------
# serve-fig7: the same cells through the HTTP service
# ----------------------------------------------------------------------
def run_serve(ctx: Context) -> None:
    store = os.path.join(ctx.run_dir, "store")
    server = ServerThread(store, workers=WORKERS)
    address = server.start()
    try:
        client = ServiceClient(address, timeout=60.0)

        def http(seeds: Tuple[int, ...]) -> Tuple[Dict[str, Any], bytes]:
            job = {"kind": "campaign", "scenarios": ["fig7"],
                   "seeds": list(seeds), "samples": FIG7_SAMPLES}
            job_id = client.submit(job)["id"]
            status = client.wait(job_id, poll_s=10.0)
            return status, client.artifact(job_id)

        def cli_bytes(seeds: Tuple[int, ...]) -> bytes:
            spec = campaign_mod.CampaignSpec(
                scenarios=("fig7",), seeds=seeds, samples=FIG7_SAMPLES)
            result = campaign_mod.CampaignRunner(
                spec, workers=WORKERS, store=store).run()
            expect(result.cache["computed"] == 0,
                   "CLI reference run missed the store")
            return export_campaign(result).encode("utf-8")

        def cold(seeds: Tuple[int, ...]) -> None:
            with _cold(ctx):
                status, artifact = http(seeds)
            expect(status["state"] == "done",
                   f"cold job {status['state']}")
            expect(artifact == cli_bytes(seeds),
                   "HTTP artifact differs from the CLI export")

        def warm(seeds: Tuple[int, ...]) -> Tuple[float, Any]:
            start = time.perf_counter()
            status, artifact = http(seeds)
            return time.perf_counter() - start, (seeds, status, artifact)

        def check(payload: Tuple[Any, Dict[str, Any], bytes]) -> None:
            seeds, status, artifact = payload
            expect(status["state"] == "done", f"job {status['state']}")
            expect(status["cache_hits"] == JOB_CELLS,
                   f"job hit {status['cache_hits']} of {JOB_CELLS} cells")
            expect(artifact == cli_bytes(seeds),
                   "HTTP artifact differs from the CLI export")

        _store_workload(ctx, "job", cold,
                        lambda seeds: job_windows(ctx.seed, seeds),
                        warm, check)
        assert server.scheduler is not None
        ctx.layers["workers_spawned"] = server.scheduler.workers_spawned
    finally:
        server.stop()


def job_windows(seed: int, cells: Tuple[int, ...]
                ) -> Iterator[Tuple[int, ...]]:
    """Distinct JOB_CELLS-seed windows over the cached cells.

    Each window is a seeded random subset kept in cell order, so every
    job is new to the service (no job-level dedupe) yet every cell is
    a store hit.
    """
    rng = random.Random(f"{seed}:windows")
    seen = set()
    while True:
        picks = tuple(sorted(rng.sample(range(len(cells)), JOB_CELLS)))
        if picks not in seen:
            seen.add(picks)
            yield tuple(cells[i] for i in picks)


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def report_layers(ctx: Context) -> None:
    """Fill every per-layer metric; layers not exercised stay 0."""
    tracer = ctx.tracer
    assert tracer is not None
    layers = ctx.layers
    v: Dict[str, float] = dict.fromkeys(LAYER_UNITS, 0)

    profile = tracer.layer_profile()
    for layer in SIM_LAYERS:
        name = "rng" if layer == "sim.rng" else layer
        v[f"{name}.self_s"] = profile.get(layer, {}).get("self_s", 0.0)
    cells = layers.get("cells")
    if cells is not None:
        v["sim.events"] = cells["events"]
        v["rng.draws"] = tracer.call_count("/repro/sim/rng.py", RNG_DRAWS)
        v["kernel.steps"] = tracer.call_count("/repro/kernel/kernel.py",
                                              ("_step",))
        v["hw.frames"] = tracer.call_count("/repro/hw/cpu.py",
                                           ("push_frame",))
        for metric, hit in KERNEL_HITS.items():
            v[metric] = cells["hits"].get(hit, 0)
        v["experiments.build_s"] = median(cells["build"])
        v["experiments.build_share"] = median(cells["share"])
        v["observe.trace_overhead"] = ratio(median(cells["obs"]),
                                            median(cells["plain"]))
    for name, count in (("sim", "sim.events"), ("rng", "rng.draws"),
                        ("kernel", "kernel.steps"), ("hw", "hw.frames")):
        unit = count.split(".")[1].rstrip("s")
        v[f"{name}.ns_per_{unit}"] = ratio(1e9 * v[f"{name}.self_s"],
                                          v[count])

    inst, plain = layers["main"]
    v["bench.trace_overhead"] = ratio(median(inst), median(plain))
    main_ops = layers["main_ops"]
    every_op = range(1, tracer.op + 1)
    v["experiments.export_s"] = median([
        a + b for a, b in zip(
            tracer.per_op_total(main_ops, "campaign_to_dict").values(),
            tracer.per_op_total(main_ops, "to_json").values())])

    window = set(main_ops[:COUNT_OPS])
    if ctx.cold:
        window.update(c[0] for c in ctx.cold)
        v["pool.chunks"] = tracer.pool_chunks
        if cells is not None:
            v["pool.efficiency"] = (
                COLD_CELLS * median(cells["plain"])
                / (WORKERS * sum(c[1] for c in ctx.cold)))
        gets = tracer.spans_of(window, "ResultStore.get")
        puts = tracer.spans_of(window, "ResultStore.put")
        v["store.gets"] = len(gets)
        v["store.puts"] = len(puts)
        v["store.bytes_read"] = sum(s.attrs.get("bytes", 0) for s in gets)
        v["store.bytes_written"] = sum(s.attrs.get("bytes", 0)
                                       for s in puts)
        v["store.hit_ratio"] = ratio(
            sum(1 for s in gets if s.attrs.get("hit")), len(gets))
        for kind in ("get", "put"):
            spans = tracer.spans_of(every_op, f"ResultStore.{kind}")
            v[f"store.{kind}_s_p50"] = median([s.duration for s in spans])
            v["store.errors"] += sum(1 for s in spans
                                     if "error" in s.attrs)

    if "workers_spawned" in layers:
        for call in ("submit", "wait", "artifact"):
            spans = tracer.spans_of(main_ops, f"ServiceClient.{call}")
            v[f"service.{call}_s_p50"] = median([s.duration
                                                 for s in spans])
        load = tracer.per_op_total(main_ops, "load_cached")
        fold = tracer.per_op_total(main_ops, "fold_job")
        wait = tracer.per_op_total(main_ops, "ServiceClient.wait")
        v["service.load_s"] = median(list(load.values()))
        v["service.fold_s"] = median(list(fold.values()))
        v["service.dispatch_s"] = median(
            [wait[op] - load[op] - fold[op] for op in main_ops])
        v["service.http_errors"] = sum(
            1 for s in tracer.spans if s.name.startswith("ServiceClient.")
            and "error" in s.attrs)
        v["service.workers_spawned"] = int(layers["workers_spawned"])

    for name, unit in LAYER_UNITS.items():
        ctx.out.metric(name, v[name], unit)
