"""Workload plumbing: specs and spawning."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, TYPE_CHECKING

from repro.kernel.syscalls import UserApi
from repro.kernel.task import SchedPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.affinity import CpuMask
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task

#: A body factory receives a fresh UserApi and returns the generator.
BodyFactory = Callable[[UserApi], Generator]


@dataclass
class WorkloadSpec:
    """Everything needed to start one workload process."""

    name: str
    body: BodyFactory
    policy: SchedPolicy = SchedPolicy.OTHER
    rt_prio: int = 0
    nice: int = 0
    affinity: Optional["CpuMask"] = None


class MeasurementProgram:
    """Completion protocol of the fixed-count measurement programs.

    A program's body calls :meth:`_finish` at the one point where its
    recorder holds every requested sample.  That sets ``finished`` and
    then calls ``on_finish`` if one is set: ``run_scenario`` points it
    at ``Simulator.halt`` for unobserved runs, so the cell stops at the
    event that completed the measurement instead of simulating on to
    the next chunk boundary.
    """

    finished: bool = False
    on_finish: Optional[Callable[[], None]] = None

    def _finish(self) -> None:
        self.finished = True
        if self.on_finish is not None:
            self.on_finish()


def spawn(kernel: "Kernel", spec: WorkloadSpec) -> "Task":
    """Create the task for one workload spec."""
    api = UserApi(kernel)
    return kernel.create_task(
        spec.name, spec.body(api), policy=spec.policy,
        rt_prio=spec.rt_prio, nice=spec.nice, affinity=spec.affinity)


def spawn_all(kernel: "Kernel", specs: List[WorkloadSpec]) -> List["Task"]:
    return [spawn(kernel, spec) for spec in specs]
