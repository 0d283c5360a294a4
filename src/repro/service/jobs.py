"""Declarative service jobs and their store-backed cell model.

A :class:`JobSpec` is the wire format of one unit of service work --
a campaign, a shield-margin ladder, a storm twin-diff, or a single
figure export -- as plain JSON-able data.  Each job *expands* into
:class:`Cell`\\ s: independent, picklable work units (one scenario run
or one trace recording each) that carry their own content key into
the result store (the executor pieces live in
:mod:`repro.experiments.cells`, shared with the CLI runners, and are
re-exported here).  :func:`fold_job` folds the ordered outcomes into
the job's artifact through the same folds the one-shot CLI calls, so
the artifact text is **byte-identical** to what ``python -m
repro.experiments`` would have written to disk -- the service
identity contract.

Job identity (:meth:`JobSpec.job_id`) is content-derived: the
canonical spec plus the code-tree digest.  Re-submitting the same
spec names the same job (idempotent submission); editing the source
tree names a new one, exactly like the store's cell keys.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cells import (
    Cell,
    CellOutcome,
    cell_key,
    load_cached,
    run_cell,
    run_cells,
)
from repro.experiments.scenario import UnknownScenarioError, scenario
from repro.store.keys import code_version, digest_of

#: The job kinds the service accepts.
JOB_KINDS = ("campaign", "figure", "margin", "twin-diff")


class JobError(ValueError):
    """A job spec that cannot be accepted (unknown kind/scenario/...)."""


@dataclass(frozen=True)
class JobSpec:
    """One service job, as plain data (the POST /jobs body).

    Fields are a union over the kinds; each kind reads its own subset
    and :meth:`validate` rejects specs whose required fields are
    missing or name unknown registry entries.  ``priority`` and
    ``max_workers`` are scheduling hints: they never enter the job
    identity, so two clients racing to submit the same work at
    different priorities still dedupe onto one job.
    """

    kind: str
    # campaign
    scenarios: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = (1,)
    fault_plan: str = ""
    fault_intensity: Optional[float] = None
    # figure / margin / twin-diff
    scenario: str = ""
    seed: Optional[int] = None
    # margin / twin-diff
    plan: str = ""
    intensities: Optional[Tuple[float, ...]] = None  # None: the default
    bound_us: float = 1000.0
    # twin-diff
    intensity: float = 1.0
    capacity: int = 65536
    # shared knobs
    samples: Optional[int] = None
    iterations: Optional[int] = None
    # service hints (not part of the job identity)
    priority: int = 0
    max_workers: int = 0
    use_cache: bool = True

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON data (tuples as lists); :meth:`from_dict` inverts it."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in data.items()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobError("job spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobError(f"unknown job field(s): {', '.join(unknown)}")
        if "kind" not in data:
            raise JobError(f"job spec needs a 'kind' "
                           f"(one of {', '.join(JOB_KINDS)})")
        out = {name: (None if value is None and name in _NULLABLE
                      else _PARSERS[name](name, value))
               for name, value in data.items()}
        spec = cls(**out)
        spec.validate()
        return spec

    # ------------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """The content identity: everything except scheduling hints."""
        data = self.to_dict()
        for hint in ("priority", "max_workers"):
            data.pop(hint)
        return data

    def job_id(self, code: Optional[str] = None) -> str:
        """Content-derived job name: same spec + same tree = same job."""
        return digest_of({
            "job": self.identity(),
            "code": code if code is not None else code_version(),
        })[:16]

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Reject specs the scheduler could never run (raises JobError)."""
        if self.kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {self.kind!r} "
                           f"(one of {', '.join(JOB_KINDS)})")
        try:
            if self.kind == "campaign":
                if not self.scenarios:
                    raise JobError("a campaign job needs 'scenarios'")
                if not self.seeds:
                    raise JobError("a campaign job needs 'seeds'")
                for name in self.scenarios:
                    scenario(name)
                if self.fault_plan:
                    _plan_name(None, self.fault_plan)
            else:
                if not self.scenario:
                    raise JobError(
                        f"a {self.kind} job needs 'scenario'")
                base = scenario(self.scenario)
                if self.kind in ("margin", "twin-diff"):
                    _plan_name(base, self.plan)
                if self.kind == "margin" and self.intensities == ():
                    raise JobError("a margin job needs 'intensities'")
                if (self.kind == "twin-diff"
                        and not base.shield.any_component):
                    raise JobError(
                        f"scenario {self.scenario!r} runs unshielded; "
                        f"twin-diff needs a shielded baseline to strip")
        except UnknownScenarioError as exc:
            raise JobError(str(exc)) from None


def _plan_name(base: Any, name: str) -> str:
    """The fault plan a job runs under (*base* supplies the default)."""
    # Imported here: campaign and figure jobs need no fault code.
    from repro.faults.plan import UnknownFaultPlanError, resolve_plan

    try:
        return resolve_plan(base, name).name
    except UnknownFaultPlanError as exc:
        raise JobError(str(exc)) from None


# ----------------------------------------------------------------------
# Strict field parsing: a wrong type is a JobError (400), never a
# worker failure later on
# ----------------------------------------------------------------------
def _reject(name: str, what: str, value: Any) -> JobError:
    return JobError(f"'{name}' must be {what}, got {value!r:.60}")


def _text(name: str, value: Any) -> str:
    if isinstance(value, str):
        return value
    raise _reject(name, "a string", value)


def _integer(low: Optional[int]) -> Any:
    def parse(name: str, value: Any) -> int:
        if (isinstance(value, int) and not isinstance(value, bool)
                and (low is None or value >= low)):
            return value
        raise _reject(name, "an integer" if low is None
                      else f"an integer >= {low}", value)
    return parse


def _number(name: str, value: Any) -> float:
    # Exact int/float comparisons: NaN, infinities and ints too large
    # for a float all fall outside the range.
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value <= sys.float_info.max):
        return float(value)
    raise _reject(name, "a finite number >= 0", value)


def _flag(name: str, value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise _reject(name, "true or false", value)


def _items(name: str, value: Any, parse: Any) -> Tuple[Any, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(parse(name, item) for item in value)
    raise _reject(name, "a list", value)


def _names(name: str, value: Any) -> Tuple[str, ...]:
    if isinstance(value, str):
        return tuple(n.strip() for n in value.split(",") if n.strip())
    return _items(name, value, _text)


def _seeds(name: str, value: Any) -> Tuple[int, ...]:
    if isinstance(value, str):
        from repro.experiments.campaign import parse_seeds

        try:
            value = parse_seeds(value)
        except ValueError as exc:
            raise JobError(str(exc)) from None
    return _items(name, value, _integer(0))


def _numbers(name: str, value: Any) -> Tuple[float, ...]:
    return _items(name, value, _number)


#: One parser per JobSpec field.
_PARSERS = {
    "kind": _text, "scenarios": _names, "seeds": _seeds,
    "fault_plan": _text, "fault_intensity": _number,
    "scenario": _text, "seed": _integer(0), "plan": _text,
    "intensities": _numbers, "bound_us": _number,
    "intensity": _number, "capacity": _integer(1),
    "samples": _integer(1), "iterations": _integer(1),
    "priority": _integer(None), "max_workers": _integer(0),
    "use_cache": _flag,
}

#: Fields whose "unset" value is None.
_NULLABLE = frozenset(("fault_intensity", "seed", "intensities",
                       "samples", "iterations"))


# ----------------------------------------------------------------------
# Cells: the independent, store-keyed work units of a job
# ----------------------------------------------------------------------
def expand_cells(job: JobSpec) -> List[Cell]:
    """The job's deterministic cell list (validates as a side effect)."""
    job.validate()
    if job.kind == "campaign":
        return [cj.cell() for cj in _campaign_spec(job).expand()]
    if job.kind == "figure":
        spec = scenario(job.scenario).configured(
            samples=job.samples, iterations=job.iterations,
            seed=job.seed)
        return [Cell(index=0, op="scenario", spec=spec)]
    if job.kind == "margin":
        return [mj.cell() for mj in _margin_spec(job).expand()]
    from repro.faults.twindiff import twin_cells

    return twin_cells(_twin_spec(job))


# ----------------------------------------------------------------------
# Folding: ordered outcomes -> the job's artifact
# ----------------------------------------------------------------------
@dataclass
class JobArtifact:
    """The finished job: exact CLI bytes plus the human report."""

    #: The artifact text, byte-for-byte what the CLI would have
    #: written with ``--json`` (trailing newline included).
    artifact: str
    #: The rendered human report (campaign summary, margin ladder,
    #: twin-diff blame table, figure bucket table).
    report: str
    stats: Dict[str, Any] = field(default_factory=dict)


def fold_job(job: JobSpec, outcomes: List[CellOutcome]) -> JobArtifact:
    """Fold ordered cell outcomes into the job artifact.

    *outcomes* must be complete and in cell-index order; the fold is
    pure, so re-folding the same outcomes (e.g. after a server
    restart re-loads every cell from the store) reproduces the same
    bytes.
    """
    from repro.experiments.export import to_json

    if job.kind == "campaign":
        return _fold_campaign(job, outcomes, to_json)
    if job.kind == "figure":
        return _fold_figure(job, outcomes, to_json)
    if job.kind == "margin":
        return _fold_margin(job, outcomes, to_json)
    return _fold_twin(job, outcomes, to_json)


def _artifact_text(to_json: Any, data: Dict[str, Any]) -> str:
    # The CLI writes ``to_json(...) + "\n"`` to its --json sinks; the
    # served artifact must be those bytes exactly.
    return to_json(data) + "\n"


def _require(outcomes: List[CellOutcome], what: str,
             attr: str = "result") -> None:
    """A fold needs every cell's payload; raise JobError otherwise."""
    for outcome in outcomes:
        if getattr(outcome, attr) is None:
            raise JobError(f"{what} cell {outcome.index} has no {attr} "
                           f"({outcome.error or 'missing'})")


def _fold_campaign(job: JobSpec, outcomes: List[CellOutcome],
                   to_json: Any) -> JobArtifact:
    from repro.experiments.campaign import CampaignResult
    from repro.experiments.export import campaign_to_dict

    _require(outcomes, "campaign")
    spec = _campaign_spec(job)
    jobs = spec.expand()
    result = CampaignResult(campaign=spec, jobs=jobs,
                            runs=[o.result for o in outcomes])
    stats = {name: {"count": rec.count, "max_ns": int(rec.max())}
             for name, rec in sorted(result.merged.items())}
    return JobArtifact(
        artifact=_artifact_text(to_json, campaign_to_dict(result)),
        report=result.summary(),
        stats={"jobs": len(jobs), "merged": stats})


def _fold_figure(job: JobSpec, outcomes: List[CellOutcome],
                 to_json: Any) -> JobArtifact:
    from repro.experiments.export import scenario_to_dict

    _require(outcomes, "figure")
    result = outcomes[0].result
    return JobArtifact(
        artifact=_artifact_text(to_json, scenario_to_dict(result)),
        report=result.report(),
        stats={"scenario": result.scenario, "seed": result.seed,
               "max_ns": int(result.recorder.max())})


def _fold_margin(job: JobSpec, outcomes: List[CellOutcome],
                 to_json: Any) -> JobArtifact:
    from repro.faults.margin import MarginResult

    result = MarginResult.from_outcomes(_margin_spec(job), outcomes)
    return JobArtifact(
        artifact=_artifact_text(to_json, result.to_dict()),
        report=result.summary(),
        stats={"margin": result.margin,
               "unshielded_degraded": result.unshielded_degraded})


def _fold_twin(job: JobSpec, outcomes: List[CellOutcome],
               to_json: Any) -> JobArtifact:
    from repro.faults.twindiff import TwinDiffResult

    _require(outcomes, "twin-diff", "body")
    result = TwinDiffResult.from_outcomes(_twin_spec(job), outcomes)
    return JobArtifact(
        artifact=_artifact_text(to_json, result.to_dict()),
        report=result.summary(),
        stats={"shielded_within_bound": result.shielded_within_bound,
               "shielded_max_ns": result.shielded.max_latency_ns(),
               "unshielded_max_ns": result.unshielded.max_latency_ns()})


# ----------------------------------------------------------------------
# Spec builders (shared by expansion and fold: one source of truth)
# ----------------------------------------------------------------------
def _campaign_spec(job: JobSpec) -> Any:
    from repro.experiments.campaign import CampaignSpec

    return CampaignSpec(
        scenarios=tuple(job.scenarios), seeds=tuple(job.seeds),
        samples=job.samples, iterations=job.iterations,
        fault_plan=job.fault_plan,
        fault_intensity=job.fault_intensity)


def _margin_spec(job: JobSpec) -> Any:
    from repro.faults.margin import DEFAULT_INTENSITIES, MarginSpec

    base = scenario(job.scenario)
    return MarginSpec(
        scenario=base.name, plan=_plan_name(base, job.plan),
        intensities=(DEFAULT_INTENSITIES if job.intensities is None
                     else job.intensities),
        bound_ns=int(job.bound_us * 1_000),
        samples=job.samples, seed=job.seed)


def _twin_spec(job: JobSpec) -> Any:
    from repro.faults.twindiff import TwinDiffSpec

    return TwinDiffSpec(scenario=job.scenario, plan=job.plan,
                        intensity=job.intensity, samples=job.samples,
                        iterations=job.iterations, seed=job.seed,
                        capacity=job.capacity)


__all__ = [
    "JOB_KINDS",
    "Cell",
    "CellOutcome",
    "JobArtifact",
    "JobError",
    "JobSpec",
    "cell_key",
    "expand_cells",
    "fold_job",
    "load_cached",
    "run_cell",
    "run_cells",
]
