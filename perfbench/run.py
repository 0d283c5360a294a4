"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6-rtc --seed 1 --seconds 25 --trace 0

Workloads: ``fig6-rtc``, ``fig2-determinism``, ``campaign-fig7`` and
``serve-fig7`` (see ``BENCHMARK.json`` and ``perfbench/README.md``).
Every run first replays fig6, fig2 and fig7 at the golden knobs and
compares their exports with ``tests/experiments/golden``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace
1`` it reports the per-layer metrics, the overhead of tracing, and
writes its spans to ``.perfbench-run/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every operation succeeded and every output matched.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".perfbench-run")
GOLDEN = os.path.join(ROOT, "tests", "experiments", "golden",
                      "scenario_outputs.json")
#: The knobs the golden exports were made with; they must match
#: GOLDEN_KNOBS in tests/experiments/test_golden_outputs.py.
GOLDEN_KNOBS = dict(samples=300, iterations=3, duration_ns=150_000_000)
SETUP_REPEATS = 7
#: A run that has not finished after this many seconds is stopped.
TIME_LIMIT_S = 150

WORKLOADS = ("fig6-rtc", "fig2-determinism", "campaign-fig7",
             "serve-fig7")


class Timeout(BaseException):
    """Raised by SIGALRM; a BaseException so no operation swallows it."""


def _on_alarm(_signum: int, _frame: Any) -> None:
    raise Timeout(f"run exceeded {TIME_LIMIT_S}s")


def measure_setup(workload: str, run_dir: str, speed: Any
                  ) -> Tuple[List[float], List[float], Dict[str, float]]:
    """Cold set-up over SETUP_REPEATS fresh interpreters: calibrated
    and host seconds, and the median of each step."""
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    times: List[float] = []
    host: List[float] = []
    steps: Dict[str, List[float]] = {}
    speed.sample()
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, probe, workload,
             os.path.join(run_dir, f"setup{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            check=True)
        speed.sample()
        data = json.loads(proc.stdout.splitlines()[-1])
        host.append(data.pop("ready") - start)
        times.append(speed.scale(host[-1]))
        for key, value in data.items():
            steps.setdefault(key, []).append(value)
    return times, host, {k: statistics.median(v) for k, v in steps.items()}


def golden_gate(out: Any) -> None:
    """fig6, fig2 and fig7 at the golden knobs must export the
    committed golden bytes."""
    from repro.experiments.export import to_json
    from repro.experiments.scenario import run_scenario, scenario
    from workloads import expect, export_cell

    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    for name in ("fig6", "fig2", "fig7"):
        with out.attempt(f"golden {name}"):
            spec = scenario(name).configured(**GOLDEN_KNOBS)
            expect(export_cell(run_scenario(spec)) == to_json(golden[name]),
                   f"{name} export differs from its golden")


def peak_rss_mib() -> float:
    """Max RSS of this process and of its reaped children (pool
    workers, set-up probes)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run(args: argparse.Namespace, run_dir: str) -> Any:
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(args.seed, args.seconds, run_dir, tracer)
    setup = None
    if tracer is None:
        setup = measure_setup(args.workload, run_dir, ctx.speed)
    golden_gate(ctx.out)
    if not ctx.out.failed:
        {"fig6-rtc": lambda: workloads.run_cells(ctx, "fig6"),
         "fig2-determinism": lambda: workloads.run_cells(ctx, "fig2"),
         "campaign-fig7": lambda: workloads.run_campaign(ctx),
         "serve-fig7": lambda: workloads.run_serve(ctx),
         }[args.workload]()
    if ctx.out.failed:
        return ctx.out
    if tracer is not None:
        workloads.report_layers(ctx)
        os.makedirs(RUN_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            RUN_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed})
    else:
        assert setup is not None
        times, host, steps = setup
        ctx.out.metric("setup_s", statistics.median(times), "s",
                       f"n={len(times)}; host "
                       f"{statistics.median(host):.6g} s: " + ", ".join(
                           f"{k}={v:.4f}" for k, v in steps.items()))
        ctx.out.metric("peak_rss_mib", peak_rss_mib(), "MiB",
                       "max of this process and its children")
    return ctx.out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
        import repro.experiments.scenario  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the simulator from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if not os.path.exists(GOLDEN):
        print(f"error: golden exports missing: {GOLDEN}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    run_dir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    # Keep every temporary file inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = run_dir
    try:
        out = run(args, run_dir)
    except Timeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {out.attempted} operations, "
          f"{out.failed} failed "
          f"(error_rate={out.failed / max(out.attempted, 1):.4g})")
    for name, (value, unit, note) in out.metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {note}")
    for error in out.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in out.metrics.items()},
    }))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
