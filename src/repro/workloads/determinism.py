"""The execution-determinism test (paper section 5.1).

    "The determinism test simply measures the length of time it takes
    to execute a function using double precision arithmetic to compute
    a sine wave.  The sine function is called in a loop such that the
    total execution time of the outer loop should be around one second
    in length.  Before starting this loop, the IA32 TSC register is
    read and at the end of the loop the TSC register is again read."

The test locks its pages and runs SCHED_FIFO.  Each iteration's wall
time goes to a :class:`~repro.metrics.recorder.JitterRecorder`; the
excess of the worst iteration over the ideal is the reported jitter.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.kernel.syscalls import UserApi
from repro.kernel.task import SchedPolicy
from repro.metrics.recorder import JitterRecorder
from repro.sim.simtime import SEC
from repro.workloads.base import MeasurementProgram, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.affinity import CpuMask

#: The paper's ideal loop duration on the unloaded P4 testbed.
PAPER_IDEAL_NS = 1_147_000_000


class DeterminismTest(MeasurementProgram):
    """The CPU-bound sine-loop measurement program."""

    def __init__(self, iterations: int = 60,
                 loop_ns: int = PAPER_IDEAL_NS,
                 rt_prio: int = 90,
                 affinity: Optional["CpuMask"] = None,
                 name: str = "determinism") -> None:
        self.iterations = iterations
        self.loop_ns = loop_ns
        self.rt_prio = rt_prio
        self.affinity = affinity
        self.name = name
        self.recorder = JitterRecorder(name, ideal_ns=None,
                                       capacity=iterations)

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(name=self.name, body=self._body,
                            policy=SchedPolicy.FIFO, rt_prio=self.rt_prio,
                            affinity=self.affinity)

    def _body(self, api: UserApi) -> Generator:
        yield from api.mlockall()
        yield from api.sched_setscheduler(SchedPolicy.FIFO, self.rt_prio)
        if self.affinity is not None:
            yield from api.sched_setaffinity(self.affinity)
        for _i in range(self.iterations):
            t0 = yield api.tsc()
            # The sine loop: pure user-mode double-precision compute.
            # Pages are locked, so this is one unbroken segment whose
            # wall time is stretched only by interrupts and contention.
            yield from api.compute(self.loop_ns, label="sine-loop")
            t1 = yield api.tsc()
            self.recorder.record_duration(t1 - t0)
        self._finish()

    # ------------------------------------------------------------------
    def ideal_ns(self) -> int:
        return self.recorder.ideal()

    def jitter_percent(self) -> float:
        return 100.0 * self.recorder.jitter_fraction()

    def estimated_sim_ns(self) -> int:
        """Rough simulated time needed to finish (for run_until)."""
        # Generous factor-of-two headroom over the unloaded duration.
        return 2 * self.iterations * self.loop_ns + SEC
