"""Job specs: validation, identity, expansion, and the pure fold."""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.jobs import (
    JOB_KINDS,
    Cell,
    JobError,
    JobSpec,
    cell_key,
    expand_cells,
    fold_job,
    run_cell,
    run_cells,
)
from repro.service.queue import JobJournal, JobQueue
from repro.store.keys import job_key

#: Any JSON value a client might send for a field (small containers).
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6))
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2))


def _field(*plausible):
    return st.one_of(st.sampled_from(plausible), JSON_VALUES)


#: Random job bodies: each field is absent, plausible, or any JSON.
JOB_BODIES = st.fixed_dictionaries({}, optional={
    "kind": _field(*JOB_KINDS),
    "scenarios": _field("fig7", "fig6,fig7", ["fig7"]),
    "seeds": _field("1..3", "2", [1, 2]),
    "fault_plan": _field("", "storm-fig7"),
    "fault_intensity": _field(0.5, 2),
    "scenario": _field("fig7", "fig6", "storm-fig6", "fig5"),
    "seed": _field(1, 7),
    "plan": _field("", "storm-fig6"),
    "intensities": _field([0.5, 1.0], [2]),
    "bound_us": _field(500.0, 1000),
    "intensity": _field(1.0, 2),
    "capacity": _field(1024, 65536),
    "samples": _field(50, 120),
    "iterations": _field(1, 2),
    "priority": _field(0, 5, -1),
    "max_workers": _field(0, 2),
    "use_cache": _field(True, False),
})


class TestSpecParsing:
    def test_round_trip(self):
        spec = JobSpec.from_dict({
            "kind": "campaign", "scenarios": "fig6,fig7",
            "seeds": "1..3", "samples": 100, "priority": 2})
        assert spec.scenarios == ("fig6", "fig7")
        assert spec.seeds == (1, 2, 3)
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="unknown job kind"):
            JobSpec.from_dict({"kind": "mystery"})

    def test_unknown_field_rejected(self):
        with pytest.raises(JobError, match="unknown job field"):
            JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "bogus": 1})

    def test_missing_kind_rejected(self):
        with pytest.raises(JobError, match="needs a 'kind'"):
            JobSpec.from_dict({"scenario": "fig6"})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"kind": "figure",
                               "scenario": "no-such-fig"})

    def test_campaign_needs_scenarios(self):
        with pytest.raises(JobError, match="needs 'scenarios'"):
            JobSpec.from_dict({"kind": "campaign", "scenarios": []})

    def test_malformed_seeds_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"kind": "campaign",
                               "scenarios": "fig7", "seeds": "8..1"})

    @settings(max_examples=300, deadline=None)
    @given(JOB_BODIES)
    def test_parse_rejects_or_the_job_is_runnable(self, body):
        """A body either fails with JobError at parse time, or its job
        id, cell expansion and queue admission all succeed -- never a
        job that parses and then breaks the queue or a worker."""
        try:
            spec = JobSpec.from_dict(body)
        except JobError:
            return
        job_id = spec.job_id(code="c")
        assert expand_cells(spec)
        with tempfile.TemporaryDirectory() as root:
            queue = JobQueue(JobJournal(root), capacity=1)
            queue.submit(spec, job_id)
            assert queue.pop().spec == spec
            assert JobQueue(JobJournal(root)).recover()[0].spec == spec

    def test_twin_diff_needs_shielded_baseline(self):
        # fig5 runs unshielded: there is no shield to strip.
        with pytest.raises(JobError, match="unshielded"):
            JobSpec.from_dict({"kind": "twin-diff",
                               "scenario": "fig5"})


class TestJobIdentity:
    def test_priority_does_not_change_identity(self):
        a = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 2, "priority": 0})
        b = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 2, "priority": 9,
                               "max_workers": 1})
        assert a.job_id(code="c") == b.job_id(code="c")

    def test_spec_and_code_change_identity(self):
        a = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 2})
        b = JobSpec.from_dict({"kind": "figure", "scenario": "fig6",
                               "seed": 3})
        assert a.job_id(code="c") != b.job_id(code="c")
        assert a.job_id(code="c") != a.job_id(code="d")


class TestExpansion:
    def test_campaign_matrix(self):
        spec = JobSpec.from_dict({"kind": "campaign",
                                  "scenarios": "fig6,fig7",
                                  "seeds": "1..3", "samples": 50})
        cells = expand_cells(spec)
        assert len(cells) == 6
        assert [c.index for c in cells] == list(range(6))
        assert all(c.op == "scenario" for c in cells)
        # The cell keys are the campaign runner's store keys.
        assert cell_key(cells[0], "c") == job_key(cells[0].spec, "c")

    def test_margin_ladder_two_cells_per_rung(self):
        spec = JobSpec.from_dict({"kind": "margin",
                                  "scenario": "fig6",
                                  "intensities": [0.5, 1.0],
                                  "samples": 50})
        cells = expand_cells(spec)
        assert len(cells) == 4
        assert all(c.op == "margin" for c in cells)
        shielded = [c.spec.shield.any_component for c in cells]
        assert shielded == [True, False, True, False]

    def test_twin_diff_is_one_recording_pair(self):
        spec = JobSpec.from_dict({"kind": "twin-diff",
                                  "scenario": "fig6", "samples": 50})
        cells = expand_cells(spec)
        assert [c.op for c in cells] == ["record", "record"]
        assert cells[0].spec.shield.any_component
        assert not cells[1].spec.shield.any_component
        assert cells[0].capacity == spec.capacity


class TestFold:
    def test_figure_fold_is_cli_bytes(self):
        from repro.experiments.export import scenario_to_dict, to_json

        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7",
                                  "samples": 80, "seed": 3})
        cells = expand_cells(spec)
        outcomes = run_cells(cells)
        artifact = fold_job(spec, outcomes)
        expected = to_json(scenario_to_dict(outcomes[0].result)) + "\n"
        assert artifact.artifact == expected
        assert artifact.report == outcomes[0].result.report()

    def test_fold_is_pure(self):
        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7",
                                  "samples": 80, "seed": 3})
        outcomes = [run_cell(cell) for cell in expand_cells(spec)]
        once = fold_job(spec, outcomes)
        twice = fold_job(spec, outcomes)
        assert once.artifact == twice.artifact
        assert once.report == twice.report

    def test_missing_result_is_a_job_error(self):
        from repro.service.jobs import CellOutcome

        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7", "samples": 80})
        with pytest.raises(JobError, match="no result"):
            fold_job(spec, [CellOutcome(index=0, error="boom")])


class TestWorkerEntry:
    def test_run_cell_margin_stall_is_data(self, monkeypatch):
        """A stalled margin cell returns an error outcome, not a
        raised exception (the ladder's unbounded rung)."""
        import repro.experiments.cells as cells_mod
        from repro.sim.errors import SimulationStalledError

        def stall(_spec, **_kwargs):
            raise SimulationStalledError("no progress")

        monkeypatch.setattr(cells_mod, "run_scenario", stall)
        spec = JobSpec.from_dict({"kind": "margin",
                                  "scenario": "fig6",
                                  "intensities": [4.0],
                                  "samples": 50})
        cell = expand_cells(spec)[0]
        outcome = run_cell(cell)
        assert outcome.result is None
        assert "no progress" in outcome.error

    def test_run_cell_scenario_stall_raises(self, monkeypatch):
        import repro.experiments.cells as cells_mod
        from repro.sim.errors import SimulationStalledError

        def stall(_spec, **_kwargs):
            raise SimulationStalledError("no progress")

        monkeypatch.setattr(cells_mod, "run_scenario", stall)
        spec = JobSpec.from_dict({"kind": "figure",
                                  "scenario": "fig7", "samples": 80})
        cell = expand_cells(spec)[0]
        with pytest.raises(SimulationStalledError):
            run_cell(cell)

    def test_cells_pickle(self):
        import pickle

        spec = JobSpec.from_dict({"kind": "campaign",
                                  "scenarios": "fig7", "seeds": [1],
                                  "samples": 50})
        cells = expand_cells(spec)
        assert pickle.loads(pickle.dumps(cells)) == cells
        assert isinstance(cells[0], Cell)
