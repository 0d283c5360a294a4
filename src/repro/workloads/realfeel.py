"""The realfeel interrupt-response benchmark (paper section 6.1).

realfeel programs the RTC for periodic interrupts at 2048 Hz, then
loops reading ``/dev/rtc``; the time between consecutive returns in
excess of the period is latency.  The measurement therefore runs
through the full wake-up path *including* the generic file-layer exit
the paper blames for the RedHawk tail.
"""

from __future__ import annotations

from typing import Generator, Optional, TYPE_CHECKING

from repro.kernel.syscalls import UserApi
from repro.kernel.task import SchedPolicy
from repro.metrics.recorder import LatencyRecorder
from repro.workloads.base import MeasurementProgram, WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.affinity import CpuMask
    from repro.hw.devices.rtc import RtcDevice


class Realfeel(MeasurementProgram):
    """RTC latency sampler."""

    def __init__(self, device: "RtcDevice", samples: int = 100_000,
                 rt_prio: int = 90,
                 affinity: Optional["CpuMask"] = None,
                 name: str = "realfeel") -> None:
        self.device = device
        self.samples = samples
        self.rt_prio = rt_prio
        self.affinity = affinity
        self.name = name
        self.recorder = LatencyRecorder(name, period_ns=device.period_ns,
                                        capacity=samples)
        #: Direct fire-to-return latencies (diagnostic; not what
        #: realfeel itself can measure).
        self.direct = LatencyRecorder(f"{name}-direct", capacity=samples)

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(name=self.name, body=self._body,
                            policy=SchedPolicy.FIFO, rt_prio=self.rt_prio,
                            affinity=self.affinity)

    def _body(self, api: UserApi) -> Generator:
        yield from api.mlockall()
        yield from api.sched_setscheduler(SchedPolicy.FIFO, self.rt_prio)
        if self.affinity is not None:
            yield from api.sched_setaffinity(self.affinity)
        fd = api.open("/dev/rtc")
        # One priming read so the recorder's first delta is clean.
        fire = yield from api.read(fd)
        t = yield api.tsc()
        self.recorder.record_return(t)
        while self.recorder.count < self.samples:
            fire = yield from api.read(fd)
            t = yield api.tsc()
            self.recorder.record_return(t)
            self.direct.record_latency(t - fire)
        self._finish()

    def estimated_sim_ns(self) -> int:
        """Simulated time to collect the requested samples (+slack)."""
        return int(self.samples * self.device.period_ns * 1.5) + 10 ** 9
