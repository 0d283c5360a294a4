"""The RCIM interrupt-response test (paper section 6.2).

The test programs the RCIM's real-time timer for a periodic interrupt,
blocks in an ioctl, and on wakeup reads the memory-mapped count
register: the elapsed count *is* the interrupt-response latency,
measured by the hardware itself with no file-layer exit path in the
way.  On kernels with the generic-ioctl change, the multithreaded RCIM
driver runs without the BKL.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.kernel.syscalls import UserApi
from repro.kernel.task import SchedPolicy
from repro.metrics.recorder import LatencyRecorder
from repro.workloads.base import MeasurementProgram, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.affinity import CpuMask
    from repro.hw.devices.rcim import RcimCard


class RcimResponseTest(MeasurementProgram):
    """RCIM count-register latency sampler."""

    def __init__(self, device: "RcimCard", samples: int = 100_000,
                 rt_prio: int = 90,
                 affinity: Optional["CpuMask"] = None,
                 name: str = "rcim-response") -> None:
        self.device = device
        self.samples = samples
        self.rt_prio = rt_prio
        self.affinity = affinity
        self.name = name
        self.recorder = LatencyRecorder(name, capacity=samples)

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(name=self.name, body=self._body,
                            policy=SchedPolicy.FIFO, rt_prio=self.rt_prio,
                            affinity=self.affinity)

    def _body(self, api: UserApi) -> Generator:
        yield from api.mlockall()
        yield from api.sched_setscheduler(SchedPolicy.FIFO, self.rt_prio)
        if self.affinity is not None:
            yield from api.sched_setaffinity(self.affinity)
        fd = api.open("/dev/rcim")
        while self.recorder.count < self.samples:
            yield from api.ioctl(fd, "RCIM_WAIT_INTERRUPT")
            # Mapped-register read: negligible overhead, done from user
            # space immediately after the ioctl returns.
            latency = yield api.call(self.device.read_count)
            self.recorder.record_latency(latency)
        self._finish()

    def estimated_sim_ns(self) -> int:
        return int(self.samples * self.device.period_ns * 1.5) + 10 ** 9
