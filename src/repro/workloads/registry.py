"""By-name factories for background loads and measurement programs.

The declarative scenario layer (:mod:`repro.experiments.scenario`)
refers to workloads and measurement programs by *name* so that a
:class:`~repro.experiments.scenario.ScenarioSpec` stays plain picklable
data: campaign workers rebuild everything from the registry inside the
worker process.

Background loads
    A :class:`LoadEntry` applies one named load to a bench.  Loads in
    the ``pre-start`` phase run before ``bench.start_devices()`` (for
    traffic flows that must exist when the device starts); ``post-boot``
    loads spawn after devices are running.

Measurement programs
    A :class:`MeasurementEntry` builds the scenario's measurement
    program from the bench and the (duck-typed) measurement spec.  The
    returned program exposes the usual protocol: ``spec()``,
    ``finished``, ``recorder`` and ``estimated_sim_ns()``; programs
    that drive the simulation themselves (FBS) additionally provide
    ``drive(bench)``; all others subclass
    :class:`~repro.workloads.base.MeasurementProgram`, whose
    ``on_finish`` hook fires when ``finished`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.workloads.base import spawn, spawn_all
from repro.workloads.cyclictest import CyclicTest
from repro.workloads.determinism import DeterminismTest
from repro.workloads.disknoise import disknoise
from repro.workloads.fbs_cycle import FbsCycleTest
from repro.workloads.netload import scp_copy_loop, ttcp_ethernet
from repro.workloads.realfeel import Realfeel
from repro.workloads.rcim_response import RcimResponseTest
from repro.workloads.stress_kernel import stress_kernel_suite
from repro.workloads.x11perf import x11perf

#: Load phases, in application order.
PRE_START = "pre-start"
POST_BOOT = "post-boot"


@dataclass(frozen=True)
class LoadEntry:
    """One registered background load."""

    name: str
    apply: Callable[[Any], None]          # receives the Bench
    phase: str = POST_BOOT
    description: str = ""


_LOADS: Dict[str, LoadEntry] = {}


def register_load(name: str, phase: str = POST_BOOT,
                  description: str = "") -> Callable:
    """Decorator registering *name* as a background-load applier."""
    def deco(fn: Callable[[Any], None]) -> Callable[[Any], None]:
        if name in _LOADS:
            raise ValueError(f"load {name!r} already registered")
        _LOADS[name] = LoadEntry(name, fn, phase, description)
        return fn
    return deco


def load_entry(name: str) -> LoadEntry:
    try:
        return _LOADS[name]
    except KeyError:
        raise KeyError(f"unknown load {name!r}; registered: "
                       f"{sorted(_LOADS)}") from None


def load_names() -> List[str]:
    return sorted(_LOADS)


# ----------------------------------------------------------------------
# The paper's background loads
# ----------------------------------------------------------------------
@register_load("broadcast", phase=PRE_START,
               description="section 6.1's standard broadcast traffic")
def _broadcast(bench: Any) -> None:
    bench.add_background_broadcast()


@register_load("stress-kernel",
               description="Red Hat stress-kernel suite")
def _stress_kernel(bench: Any) -> None:
    spawn_all(bench.kernel, stress_kernel_suite(bench.kernel))


@register_load("scp-copy",
               description="the scp network copy loop (section 5.1)")
def _scp_copy(bench: Any) -> None:
    spawn(bench.kernel, scp_copy_loop(bench.kernel, bench.nic))


@register_load("disknoise",
               description="the recursive-cat disknoise script")
def _disknoise(bench: Any) -> None:
    spawn(bench.kernel, disknoise(bench.kernel))


@register_load("x11perf",
               description="X11perf graphics load (section 6.2)")
def _x11perf(bench: Any) -> None:
    spawn(bench.kernel, x11perf(bench.kernel, bench.gpu))


@register_load("ttcp",
               description="ttcp over Ethernet (section 6.2)")
def _ttcp(bench: Any) -> None:
    spawn(bench.kernel, ttcp_ethernet(bench.kernel, bench.nic))


# ----------------------------------------------------------------------
# Measurement programs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasurementEntry:
    """One registered measurement-program builder."""

    name: str
    build: Callable[[Any, Any, Optional[Any]], Any]
    kind: str                              # "determinism" | "latency" | "fbs"
    description: str = ""


_MEASUREMENTS: Dict[str, MeasurementEntry] = {}


def register_measurement(name: str, kind: str,
                         description: str = "") -> Callable:
    """Decorator registering a measurement-program builder.

    The builder is called ``build(bench, m, affinity)`` where *m* is
    the scenario's measurement spec (duck-typed: only attribute access)
    and *affinity* the pre-computed :class:`CpuMask` or None.
    """
    def deco(fn: Callable) -> Callable:
        if name in _MEASUREMENTS:
            raise ValueError(f"measurement {name!r} already registered")
        _MEASUREMENTS[name] = MeasurementEntry(name, fn, kind, description)
        return fn
    return deco


def measurement_entry(name: str) -> MeasurementEntry:
    try:
        return _MEASUREMENTS[name]
    except KeyError:
        raise KeyError(f"unknown measurement {name!r}; registered: "
                       f"{sorted(_MEASUREMENTS)}") from None


def measurement_names() -> List[str]:
    return sorted(_MEASUREMENTS)


@register_measurement("determinism", kind="determinism",
                      description="sine-loop execution determinism test")
def _build_determinism(bench: Any, m: Any, affinity: Optional[Any]
                       ) -> DeterminismTest:
    return DeterminismTest(iterations=m.iterations, loop_ns=m.loop_ns,
                           rt_prio=m.rt_prio, affinity=affinity)


@register_measurement("realfeel", kind="latency",
                      description="realfeel RTC latency benchmark")
def _build_realfeel(bench: Any, m: Any, affinity: Optional[Any]) -> Realfeel:
    return Realfeel(bench.rtc, samples=m.samples, rt_prio=m.rt_prio,
                    affinity=affinity)


@register_measurement("rcim", kind="latency",
                      description="RCIM ioctl response test")
def _build_rcim(bench: Any, m: Any, affinity: Optional[Any]
                ) -> RcimResponseTest:
    return RcimResponseTest(bench.rcim, samples=m.samples,
                            affinity=affinity)


@register_measurement("cyclictest", kind="latency",
                      description="periodic nanosleep wakeup latency")
def _build_cyclictest(bench: Any, m: Any, affinity: Optional[Any]
                      ) -> CyclicTest:
    return CyclicTest(interval_ns=m.interval_ns, cycles=m.samples,
                      rt_prio=m.rt_prio, affinity=affinity)


@register_measurement("fbs-cycle", kind="fbs",
                      description="frequency-based-scheduler frame jitter")
def _build_fbs_cycle(bench: Any, m: Any, affinity: Optional[Any]
                     ) -> FbsCycleTest:
    return FbsCycleTest(bench, duration_ns=m.duration_ns,
                        cycle_ns=m.fbs_cycle_ns,
                        cycles_per_frame=m.fbs_cycles_per_frame,
                        compute_ns=m.fbs_compute_ns,
                        rt_prio=m.rt_prio, affinity=affinity)
