"""Tests for the measurement programs."""

import pytest

from repro.configs.kernels import redhawk_1_4, vanilla_2_4_21
from repro.core.affinity import CpuMask
from repro.experiments.harness import build_bench
from repro.experiments.scenario import all_scenarios, build_scenario_bench
from repro.hw.machine import interrupt_testbed
from repro.kernel.task import SchedPolicy
from repro.workloads.base import spawn
from repro.workloads.determinism import DeterminismTest
from repro.workloads.realfeel import Realfeel
from repro.workloads.registry import measurement_entry, measurement_names
from repro.workloads.rcim_response import RcimResponseTest


@pytest.fixture
def bench():
    b = build_bench(redhawk_1_4(), interrupt_testbed(), seed=11)
    b.start_devices()
    return b


class TestDeterminismProgram:
    def test_unloaded_run_measures_near_ideal(self, bench):
        test = DeterminismTest(iterations=3, loop_ns=50_000_000)
        spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=1_000_000_000)
        assert test.finished
        assert test.recorder.count == 3
        # Unloaded: every iteration within a percent of the loop time.
        for duration in test.recorder.durations:
            assert 50_000_000 <= duration < 51_000_000

    def test_runs_fifo_and_mlocked(self, bench):
        test = DeterminismTest(iterations=1, loop_ns=10_000_000)
        task = spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=1_000_000_000)
        assert task.policy is SchedPolicy.FIFO
        assert task.mm_locked

    def test_affinity_applied(self, bench):
        test = DeterminismTest(iterations=1, loop_ns=10_000_000,
                               affinity=CpuMask([1]))
        task = spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=1_000_000_000)
        assert task.requested_affinity == CpuMask([1])

    def test_jitter_computed_against_forced_ideal(self, bench):
        test = DeterminismTest(iterations=2, loop_ns=20_000_000)
        spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=1_000_000_000)
        test.recorder.set_ideal(20_000_000)
        assert test.recorder.jitter_fraction() >= 0.0
        assert test.jitter_percent() < 5.0  # unloaded


class TestRealfeelProgram:
    def test_collects_requested_samples(self, bench):
        bench.rtc.enable_periodic()
        test = Realfeel(bench.rtc, samples=50)
        spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=test.estimated_sim_ns())
        assert test.finished
        assert test.recorder.count == 50

    def test_unloaded_latencies_tiny(self, bench):
        bench.rtc.enable_periodic()
        test = Realfeel(bench.rtc, samples=100)
        spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=test.estimated_sim_ns())
        # realfeel latency = delta - period: near zero when idle.
        assert test.recorder.max() < 50_000

    def test_direct_latencies_positive(self, bench):
        bench.rtc.enable_periodic()
        test = Realfeel(bench.rtc, samples=20)
        spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=test.estimated_sim_ns())
        assert test.direct.count > 0
        assert test.direct.min() > 0  # wake path cost is never zero


class TestRcimProgram:
    def test_collects_samples_with_plausible_floor(self, bench):
        bench.rcim.enable_timer()
        test = RcimResponseTest(bench.rcim, samples=100,
                                affinity=CpuMask([1]))
        spawn(bench.kernel, test.spec())
        bench.shield_cpu(1)
        bench.set_irq_affinity(bench.rcim.irq, 1)
        bench.run_until_done(test, limit_ns=test.estimated_sim_ns())
        assert test.finished
        rec = test.recorder
        assert rec.count == 100
        # The paper's floor is ~11 us; ours must be single-digit to
        # low-tens of us and bounded well under 100 us on a shield.
        assert 3_000 < rec.min() < 20_000
        assert rec.max() < 100_000

    def test_latency_uses_count_register(self, bench):
        bench.rcim.enable_timer()
        test = RcimResponseTest(bench.rcim, samples=5)
        spawn(bench.kernel, test.spec())
        bench.run_until_done(test, limit_ns=test.estimated_sim_ns())
        # Count-register reads are relative to cycle start: all small.
        assert all(0 < s < bench.rcim.period_ns for s in test.recorder.samples)


def _scenario_for(program):
    for spec in all_scenarios():
        if spec.measurement.program == program:
            return spec
    pytest.fail(f"measurement program {program!r} has no scenario")


def test_every_registered_program_calls_finish_hook():
    """Every program without ``drive`` reports completion via the hook.

    ``run_scenario`` stops unobserved cells through it; a program that
    only set ``finished`` would silently run on to the chunk horizon.
    """
    hooked = []
    for name in measurement_names():
        spec = _scenario_for(name).configured(samples=20, iterations=1)
        bench = build_scenario_bench(spec)
        bench.start_devices()
        if spec.rtc_periodic:
            bench.rtc.enable_periodic()
        if spec.rcim_timer:
            bench.rcim.enable_timer()
        program = measurement_entry(name).build(bench, spec.measurement,
                                                None)
        if hasattr(program, "drive"):
            continue  # runs a fixed duration; nothing to stop early
        calls = []
        program.on_finish = lambda: calls.append(
            (program.finished, program.recorder.count))
        spawn(bench.kernel, program.spec())
        bench.run_until_done(program, limit_ns=program.estimated_sim_ns(),
                             strict_limit=True)
        # Once, after ``finished`` is set, with every sample recorded.
        assert calls == [(True, program.recorder.count)], name
        assert program.recorder.count > 0, name
        hooked.append(name)
    assert {"cyclictest", "determinism", "rcim", "realfeel"} <= set(hooked)
