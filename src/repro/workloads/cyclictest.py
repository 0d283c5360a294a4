"""A cyclictest-style timer-latency benchmark.

The canonical real-time Linux benchmark (it post-dates the paper but
measures exactly the paper's subject): a SCHED_FIFO thread sleeps
until an absolute deadline each cycle and records how late it wakes.
Timer latency combines the timer mechanism's granularity with the
scheduling latency the paper studies, so it cleanly exposes two
RedHawk components at once:

* the POSIX/high-res timers patch (vanilla 2.4 rounds every nanosleep
  up to the next 10 ms jiffy -- a disaster at millisecond periods);
* kernel preemption / shielding (wakeup-to-run latency).
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.kernel.syscalls import UserApi
from repro.kernel.task import SchedPolicy
from repro.metrics.recorder import LatencyRecorder
from repro.sim.simtime import MSEC
from repro.workloads.base import MeasurementProgram, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.affinity import CpuMask


class CyclicTest(MeasurementProgram):
    """Periodic nanosleep wakeup-latency sampler."""

    def __init__(self, interval_ns: int = 1 * MSEC, cycles: int = 1_000,
                 rt_prio: int = 90,
                 affinity: Optional["CpuMask"] = None,
                 name: str = "cyclictest") -> None:
        if interval_ns <= 0:
            raise ValueError("cyclictest interval must be positive")
        self.interval_ns = interval_ns
        self.cycles = cycles
        self.rt_prio = rt_prio
        self.affinity = affinity
        self.name = name
        self.recorder = LatencyRecorder(name, capacity=cycles)

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(name=self.name, body=self._body,
                            policy=SchedPolicy.FIFO, rt_prio=self.rt_prio,
                            affinity=self.affinity)

    def _body(self, api: UserApi) -> Generator:
        yield from api.mlockall()
        yield from api.sched_setscheduler(SchedPolicy.FIFO, self.rt_prio)
        if self.affinity is not None:
            yield from api.sched_setaffinity(self.affinity)
        # clock_nanosleep(TIMER_ABSTIME) loop: next deadline advances
        # by exactly one interval per cycle so latency does not
        # accumulate across cycles.
        now = yield api.tsc()
        next_deadline = now + self.interval_ns
        for _cycle in range(self.cycles):
            now = yield api.tsc()
            wait = max(0, next_deadline - now)
            yield from api.nanosleep(wait)
            woke = yield api.tsc()
            self.recorder.record_latency(woke - next_deadline)
            next_deadline += self.interval_ns
            if next_deadline <= woke:
                # Overran whole periods (coarse timers): resynchronise
                # the way cyclictest does.
                missed = (woke - next_deadline) // self.interval_ns + 1
                next_deadline += missed * self.interval_ns
        self._finish()

    def estimated_sim_ns(self) -> int:
        return int(self.cycles * self.interval_ns * 4) + 10 ** 9
