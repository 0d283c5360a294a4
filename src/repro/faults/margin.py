"""Shield-margin measurement: how much interference can the shield eat?

The *shield margin* of a scenario is the maximum fault-plan intensity
at which the shielded configuration's worst-case latency still meets
its bound, measured against an unshielded twin of the same scenario
run under the identical storm.  The ladder sweeps an intensity axis
(default 0.25x .. 4x the plan baseline); each rung runs two cells:

* **shielded** -- the scenario as registered (full shield);
* **unshielded** -- the same spec with the shield stripped
  (``ShieldSpec()``), everything else identical.

Both cells of a rung share the scenario seed; fault injection draws
from named child streams, so a rung's injection timeline is a pure
function of (seed, plan, intensity) -- the per-cell digests in the
report prove byte-for-byte identical injection across worker counts.

Execution is the shared cell executor (:mod:`repro.experiments.cells`)
that campaigns and the service also run on: deterministic job
expansion, a worker pool returning results in completion order, and
reassembly in expansion order, so ``--workers 1`` and ``--workers 4``
produce identical JSON.

The ladder also shares the campaign's content-addressed result store:
each cell is keyed by its full :class:`ScenarioSpec` (which carries
the plan, intensity and shield wiring), so shielded/unshielded twins,
repeated ladder invocations, overlapping intensity ladders, and plain
campaign/storm runs of the same spec all reuse one cached run.  Cells
that stall (interference too heavy to finish) are cached as stalled
markers and reported as unbounded without re-running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cells import Cell, CellOutcome, run_all
from repro.experiments.scenario import ScenarioSpec, ShieldSpec, scenario
from repro.sim.simtime import MSEC
from repro.store import open_store
from repro.store.keys import code_version

#: Default intensity ladder (multiples of the plan's baseline).
DEFAULT_INTENSITIES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class MarginSpec:
    """One margin sweep, as plain picklable data."""

    scenario: str
    plan: str
    intensities: Tuple[float, ...] = DEFAULT_INTENSITIES
    #: The latency bound the shielded config must hold (paper claim:
    #: sub-millisecond worst case on the shielded CPU).
    bound_ns: int = 1 * MSEC
    samples: Optional[int] = None
    seed: Optional[int] = None

    def expand(self) -> List["MarginJob"]:
        """Two cells (shielded, unshielded) per intensity rung."""
        if not self.intensities:
            raise ValueError("a margin sweep needs at least one intensity")
        base = scenario(self.scenario).configured(
            samples=self.samples, seed=self.seed,
            fault_plan=self.plan)
        jobs: List[MarginJob] = []
        for intensity in self.intensities:
            rung = base.configured(fault_intensity=intensity)
            jobs.append(MarginJob(index=len(jobs), intensity=intensity,
                                  shielded=True, spec=rung))
            jobs.append(MarginJob(
                index=len(jobs), intensity=intensity, shielded=False,
                spec=rung.with_overrides(
                    shield=ShieldSpec(cpu=rung.shield.cpu))))
        return jobs


@dataclass(frozen=True)
class MarginJob:
    """One (intensity, shielded?) cell of the sweep."""

    index: int
    intensity: float
    shielded: bool
    spec: ScenarioSpec

    def cell(self) -> Cell:
        """This rung cell for the executor (a stall is a data point)."""
        return Cell(index=self.index, op="margin", spec=self.spec)


def _cell(outcome: CellOutcome) -> Dict[str, Any]:
    """One ladder cell from its outcome: a completed run or a stall.

    The only way a run becomes a cell, whatever executed it -- the
    in-process runner, a pool worker, a store hit or the service --
    which keeps a ladder's JSON byte-identical across all of them.
    """
    result = outcome.result
    if result is None:
        return {"stalled": True, "max_ns": None,
                "error": outcome.error or "", "faults": None}
    faults = result.faults
    cell: Dict[str, Any] = {
        "stalled": False,
        "max_ns": int(result.recorder.max()),
        "faults": None,
    }
    if faults is not None:
        cell["faults"] = {"injections": faults["injections"],
                          "digest": faults["digest"],
                          "by_injector": faults["by_injector"]}
    return cell


@dataclass
class MarginResult:
    """The sweep outcome plus the derived margin."""

    spec: MarginSpec
    rungs: List[Dict[str, Any]]

    @classmethod
    def from_outcomes(cls, spec: MarginSpec,
                      outcomes: List[CellOutcome]) -> "MarginResult":
        """Fold the sweep's cell outcomes (in expansion order) into rungs.

        The one fold the CLI runner and the service both call.
        """
        cells = [_cell(outcome) for outcome in outcomes]
        bound = spec.bound_ns
        return cls(spec=spec, rungs=[
            {"intensity": intensity,
             "shielded": shielded,
             "unshielded": unshielded,
             "shielded_within_bound": _within(shielded, bound),
             "unshielded_within_bound": _within(unshielded, bound)}
            for intensity, shielded, unshielded
            in zip(spec.intensities, cells[0::2], cells[1::2])])

    # ------------------------------------------------------------------
    def attach_predictions(self, ladder: List[Dict[str, Any]]) -> None:
        """Annotate each rung with simbound's static prediction.

        *ladder* comes from :func:`predicted_ladder` -- the analytic
        twin of the measured sweep.  Each rung gains ``predicted_ns``
        (worst-case shielded response at that intensity, or None when
        the model found no finite bound) and
        ``predicted_within_bound``; a measured cell exceeding its own
        prediction is a model-soundness red flag surfaced in
        :meth:`summary`.
        """
        by_intensity = {r["intensity"]: r for r in ladder}
        for rung in self.rungs:
            pred = by_intensity.get(rung["intensity"])
            if pred is None:
                continue
            rung["predicted_ns"] = pred["predicted_ns"]
            rung["predicted_within_bound"] = pred["within_bound"]

    @property
    def predicted_margin(self) -> Optional[float]:
        """Max intensity whose *predicted* shielded response met the
        bound (None when no rung carries a finite passing bound)."""
        passing = [r["intensity"] for r in self.rungs
                   if r.get("predicted_ns") is not None
                   and r.get("predicted_within_bound")]
        return max(passing) if passing else None

    # ------------------------------------------------------------------
    @property
    def margin(self) -> Optional[float]:
        """Max intensity whose shielded cell met the bound (None if
        even the lowest rung blew it)."""
        passing = [r["intensity"] for r in self.rungs
                   if r["shielded_within_bound"]]
        return max(passing) if passing else None

    @property
    def unshielded_degraded(self) -> bool:
        """Did any rung push the unshielded twin over the bound?"""
        return any(not r["unshielded_within_bound"] for r in self.rungs)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "scenario": self.spec.scenario,
            "plan": self.spec.plan,
            "bound_ns": self.spec.bound_ns,
            "samples": self.spec.samples,
            "seed": self.spec.seed,
            "rungs": self.rungs,
            "margin": self.margin,
            "unshielded_degraded": self.unshielded_degraded,
        }
        if any("predicted_ns" in r for r in self.rungs):
            data["predicted_margin"] = self.predicted_margin
        return data

    def summary(self) -> str:
        bound_us = self.spec.bound_ns / 1e3
        lines = [f"shield margin: {self.spec.scenario} under "
                 f"{self.spec.plan} (bound {bound_us:.0f}us)"]
        for rung in self.rungs:
            line = (f"  x{rung['intensity']:<5g} "
                    f"shielded {_cell_str(rung['shielded'])}  "
                    f"unshielded {_cell_str(rung['unshielded'])}")
            if "predicted_ns" in rung:
                pred = rung["predicted_ns"]
                line += ("  predicted<=unbounded" if pred is None
                         else f"  predicted<={pred / 1e3:8.1f}us")
                cell = rung["shielded"]
                if (pred is not None and not cell["stalled"]
                        and cell["max_ns"] > pred):
                    line += "  !! OBSERVED OVER PREDICTION"
            lines.append(line)
        margin = self.margin
        lines.append(
            f"  margin: x{margin:g}" if margin is not None
            else "  margin: none (shield over bound at every rung)")
        if any("predicted_ns" in r for r in self.rungs):
            pmargin = self.predicted_margin
            lines.append(
                f"  predicted margin: x{pmargin:g}" if pmargin is not None
                else "  predicted margin: none (static bound over 1 ms "
                     "at every rung)")
        if self.unshielded_degraded:
            lines.append("  unshielded twin degraded past the bound")
        return "\n".join(lines)


def predicted_ladder(spec: MarginSpec) -> List[Dict[str, Any]]:
    """simbound's analytic twin of the measured intensity ladder.

    For each rung, re-derives the static worst-case shielded response
    with the fault plan scaled to that intensity (the bound model
    scales injected IRQ rates and rogue hold times exactly as
    :class:`~repro.faults.controller.FaultController` does).  A rung
    where the window fixpoint diverges -- interference outrunning the
    softirq drain budget -- reports ``predicted_ns: None``: the model
    certifies no bound at that intensity, which is itself the margin.
    """
    from repro.analysis.bounds.model import BoundModelError, compute_bounds

    base = scenario(spec.scenario).configured(
        samples=spec.samples, seed=spec.seed, fault_plan=spec.plan)
    ladder: List[Dict[str, Any]] = []
    for intensity in spec.intensities:
        rung = base.configured(fault_intensity=intensity)
        try:
            bounds = compute_bounds(rung)
            predicted = bounds.response_ns
            detail = bounds.response_detail
        except BoundModelError as exc:
            predicted = None
            detail = f"no finite bound: {exc}"
        ladder.append({
            "intensity": intensity,
            "predicted_ns": predicted,
            "within_bound": (predicted is not None
                             and predicted <= spec.bound_ns),
            "detail": detail,
        })
    return ladder


def _within(cell: Dict[str, Any], bound_ns: int) -> bool:
    """A stalled cell is over every bound by definition."""
    return not cell["stalled"] and cell["max_ns"] <= bound_ns


def _cell_str(cell: Dict[str, Any]) -> str:
    if cell["stalled"]:
        return "STALLED"
    return f"max={cell['max_ns'] / 1e3:8.1f}us"


def run_margin(spec: MarginSpec, workers: int = 1,
               store: Any = None, use_cache: bool = True
               ) -> MarginResult:
    """Expand and execute the sweep on the shared cell executor.

    With a *store* attached, each cell is first looked up by its
    spec's content key; hits (including cached stalled markers) are
    loaded instead of re-run, and every computed cell is persisted --
    so re-running a ladder, extending its intensity axis, or running
    the shielded twin after a campaign already ran that spec costs
    only the missing cells.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    result_store = open_store(store)
    code = code_version() if result_store is not None else ""
    cells = [job.cell() for job in spec.expand()]
    return MarginResult.from_outcomes(
        spec, run_all(cells, result_store, code, workers, use_cache))
