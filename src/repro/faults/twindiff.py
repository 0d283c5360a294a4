"""Twin-diff: the paper's headline comparison as a simdiff report.

The paper's argument is differential -- the *same* workload, the
*same* interference, shielded vs. unshielded -- and the margin ladder
(:mod:`repro.faults.margin`) already runs those twins for its cells.
Twin-diff makes the comparison a first-class product: record both
twins of one storm scenario, diff them with
:mod:`repro.observe.diff`, and report exactly where the unshielded
run's extra response time went -- per mechanism bucket, closing
exactly against the end-to-end latency delta, with the first
divergent tracepoint span named in simulated-time coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.experiments.cells import Cell, CellOutcome, run_all
from repro.experiments.scenario import ShieldSpec, scenario
from repro.faults.plan import resolve_plan
from repro.sim.simtime import MSEC

#: The paper's shielded response-time bound (1 ms).
PAPER_BOUND_NS = 1 * MSEC


@dataclass(frozen=True)
class TwinDiffSpec:
    """One twin-diff request (plain data, CLI- and test-friendly)."""

    scenario: str
    plan: str = ""                   # "" = scenario's own / storm-<base>
    intensity: float = 1.0
    samples: Optional[int] = None
    iterations: Optional[int] = None
    seed: Optional[int] = None
    capacity: int = 65536


@dataclass
class TwinDiffResult:
    """Both recordings plus the diff and the paper-style verdict."""

    spec: TwinDiffSpec
    shielded: Any                    # TraceRecording
    unshielded: Any                  # TraceRecording
    diff: Any                        # TraceDiff
    bound_ns: int = PAPER_BOUND_NS

    @classmethod
    def from_outcomes(cls, twin: TwinDiffSpec,
                      outcomes: List[CellOutcome]) -> "TwinDiffResult":
        """Diff the two recordings of :func:`twin_cells`, in order.

        The one fold the CLI runner and the service both call.
        """
        from repro.observe.diff import TraceRecording, diff_recordings

        shielded, unshielded = (TraceRecording.from_body(outcome.body)
                                for outcome in outcomes)
        diff = diff_recordings(shielded, unshielded,
                               a_label="shielded", b_label="unshielded")
        return cls(spec=twin, shielded=shielded, unshielded=unshielded,
                   diff=diff)

    @property
    def shielded_within_bound(self) -> bool:
        return self.shielded.max_latency_ns() <= self.bound_ns

    def headline(self) -> str:
        s_max = self.shielded.max_latency_ns()
        u_max = self.unshielded.max_latency_ns()
        verdict = ("within" if self.shielded_within_bound
                   else "EXCEEDS")
        return (f"twin-diff {self.spec.scenario}: shielded max "
                f"{s_max / 1e3:.1f} us ({verdict} the "
                f"{self.bound_ns / 1e6:g} ms bound), unshielded max "
                f"{u_max / 1e3:.1f} us "
                f"({u_max / max(s_max, 1):.0f}x)")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.scenario,
            "plan": self.shielded.fault_plan,
            "intensity": self.spec.intensity,
            "seed": self.shielded.seed,
            "bound_ns": self.bound_ns,
            "shielded_max_ns": self.shielded.max_latency_ns(),
            "unshielded_max_ns": self.unshielded.max_latency_ns(),
            "shielded_within_bound": self.shielded_within_bound,
            "diff": self.diff.to_dict(),
        }

    def summary(self, top_spans: int = 5) -> str:
        return self.headline() + "\n\n" + self.diff.render(
            top_spans=top_spans)


def twin_cells(twin: TwinDiffSpec) -> List[Cell]:
    """The shielded recording cell, then its unshielded twin.

    Raises ``ValueError`` for a scenario with no shield to strip.
    """
    base = scenario(twin.scenario)
    spec = base.configured(
        samples=twin.samples, iterations=twin.iterations, seed=twin.seed,
        fault_plan=resolve_plan(base, twin.plan).name,
        fault_intensity=twin.intensity)
    if not spec.shield.any_component:
        raise ValueError(
            f"scenario {twin.scenario!r} runs unshielded; twin-diff "
            f"needs a shielded baseline to strip")
    unshielded = spec.with_overrides(
        shield=ShieldSpec(cpu=spec.shield.cpu))
    return [Cell(index=0, op="record", spec=spec,
                 capacity=twin.capacity),
            Cell(index=1, op="record", spec=unshielded,
                 capacity=twin.capacity)]


def run_twin_diff(twin: TwinDiffSpec) -> TwinDiffResult:
    """Record both twins of one storm scenario (storeless) and diff them."""
    return TwinDiffResult.from_outcomes(twin, run_all(twin_cells(twin)))
