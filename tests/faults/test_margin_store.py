"""Margin ladder x result-store integration.

Ladder cells are keyed by their full ScenarioSpec, so repeated
ladders, extended intensity axes, shielded/unshielded twins and plain
campaign runs of the same spec all share one cached run -- and cached
stalled cells are reported as unbounded without re-running the storm.
"""

import json

import pytest

import repro.experiments.cells as cells_mod
from repro.experiments.campaign import CampaignRunner, CampaignSpec
from repro.faults.margin import MarginSpec, run_margin
from repro.store import ResultStore, job_key

SPEC = MarginSpec(scenario="fig6", plan="storm-fig6",
                  intensities=(0.5, 1.0), samples=400, seed=1)


def report(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def count_runs(monkeypatch):
    calls = []
    real = cells_mod.run_scenario

    def counting(spec, *args, **kwargs):
        calls.append(spec.name)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(cells_mod, "run_scenario", counting)
    return calls


class TestLadderReuse:
    def test_warm_ladder_is_all_hits(self, store, count_runs):
        cold = run_margin(SPEC, store=store)
        assert len(count_runs) == 4  # 2 rungs x (shielded, unshielded)
        warm = run_margin(SPEC, store=store)
        assert len(count_runs) == 4, "warm ladder recomputed a cell"
        assert report(cold) == report(warm)

    def test_cached_report_matches_storeless(self, store):
        run_margin(SPEC, store=store)
        warm = run_margin(SPEC, store=store)
        plain = run_margin(SPEC)
        assert report(warm) == report(plain)

    def test_extended_ladder_reuses_shared_rungs(self, store,
                                                 count_runs):
        run_margin(SPEC, store=store)
        assert len(count_runs) == 4
        extended = MarginSpec(scenario="fig6", plan="storm-fig6",
                              intensities=(0.5, 1.0, 2.0),
                              samples=400, seed=1)
        run_margin(extended, store=store)
        assert len(count_runs) == 6, \
            "overlapping rungs were recomputed"

    def test_no_cache_recomputes_but_matches(self, store, count_runs):
        cold = run_margin(SPEC, store=store)
        refresh = run_margin(SPEC, store=store, use_cache=False)
        assert len(count_runs) == 8
        assert report(cold) == report(refresh)


class TestCrossToolSharing:
    def test_campaign_run_feeds_margin_cell(self, store, count_runs):
        """A campaign over the shielded storm spec pre-warms the
        ladder's shielded cells (same spec -> same key)."""
        campaign = CampaignSpec(scenarios=("fig6",), seeds=(1,),
                                samples=400, fault_plan="storm-fig6",
                                fault_intensity=1.0)
        CampaignRunner(campaign, store=store).run()
        assert count_runs == ["fig6"]
        count_runs.clear()
        ladder = MarginSpec(scenario="fig6", plan="storm-fig6",
                            intensities=(1.0,), samples=400, seed=1)
        result = run_margin(ladder, store=store)
        # The ladder computed only the unshielded twin: the shielded
        # cell was a hit on the campaign's entry.
        assert count_runs == ["fig6"]
        assert result.rungs[0]["shielded"]["stalled"] is False


class TestStalledCells:
    def test_cached_stalled_cell_not_rerun(self, store, count_runs):
        ladder = MarginSpec(scenario="fig6", plan="storm-fig6",
                            intensities=(4.0,), samples=400, seed=1)
        jobs = ladder.expand()
        unshielded = jobs[1]
        assert not unshielded.shielded
        store.put_stalled(job_key(unshielded.spec), "fig6",
                          "stalled: no progress for 1s")
        result = run_margin(ladder, store=store)
        # Only the shielded cell executed; the stalled marker was
        # trusted as an unbounded cell.
        assert len(count_runs) == 1
        cell = result.rungs[0]["unshielded"]
        assert cell["stalled"] is True
        assert cell["error"] == "stalled: no progress for 1s"
        assert result.rungs[0]["unshielded_within_bound"] is False
