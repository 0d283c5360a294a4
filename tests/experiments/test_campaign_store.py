"""Campaign x result-store integration.

The contract under test: a cold run, a warm (all-hit) run, a resumed
run, a no-cache refresh and any worker count all export **the same
bytes**; cache hits never recompute; corruption and code drift
degrade to recomputation, never to wrong results.
"""

import pytest

import repro.experiments.campaign as campaign_mod
import repro.experiments.cells as cells_mod
from repro.experiments.campaign import CampaignRunner, CampaignSpec
from repro.experiments.export import campaign_to_dict, to_json
from repro.store import ResultStore

SPEC = CampaignSpec(scenarios=("fig7",), seeds=(1, 2, 3, 4),
                    samples=120)

#: The pristine worker entry, captured before any monkeypatching.
REAL_RUN_CELLS = cells_mod.run_cells


def export(result) -> str:
    return to_json(campaign_to_dict(result))


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def count_runs(monkeypatch):
    """Count how many jobs actually execute (cache misses)."""
    calls = []

    def counting(cells):
        calls.extend(cell.index for cell in cells)
        return REAL_RUN_CELLS(cells)

    monkeypatch.setattr(cells_mod, "run_cells", counting)
    return calls


class TestColdWarm:
    def test_warm_run_is_all_hits_and_byte_identical(self, store,
                                                     count_runs):
        cold = CampaignRunner(SPEC, store=store).run()
        assert cold.cache["computed"] == 4
        assert len(count_runs) == 4
        warm = CampaignRunner(SPEC, store=store).run()
        assert warm.cache["hits"] == 4
        assert warm.cache["computed"] == 0
        assert len(count_runs) == 4, "warm run recomputed a hit"
        assert export(cold) == export(warm)

    def test_cached_export_matches_storeless_run(self, store):
        plain = CampaignRunner(SPEC).run()
        CampaignRunner(SPEC, store=store).run()
        warm = CampaignRunner(SPEC, store=store).run()
        assert export(plain) == export(warm)

    def test_worker_count_independent_with_store(self, store):
        cold = CampaignRunner(SPEC, workers=4, store=store).run()
        warm = CampaignRunner(SPEC, workers=3, store=store).run()
        serial = CampaignRunner(SPEC, workers=1).run()
        assert export(cold) == export(warm) == export(serial)

    def test_partial_overlap_computes_only_new_jobs(self, store,
                                                    count_runs):
        CampaignRunner(SPEC, store=store).run()
        wider = CampaignSpec(scenarios=("fig7",),
                             seeds=(1, 2, 3, 4, 5, 6), samples=120)
        result = CampaignRunner(wider, store=store).run()
        assert result.cache["hits"] == 4
        assert result.cache["computed"] == 2
        assert len(count_runs) == 6

    def test_merged_only_drops_runs_keeps_merge(self, store):
        full = CampaignRunner(SPEC, store=store).run()
        slim = CampaignRunner(SPEC, store=store,
                              retain_runs=False).run()
        assert slim.runs == []
        assert slim.merged["fig7"].count == full.merged["fig7"].count
        assert slim.merged["fig7"].max() == full.merged["fig7"].max()


class TestInvalidation:
    def test_code_version_edit_invalidates(self, store, count_runs,
                                           monkeypatch):
        monkeypatch.setattr(campaign_mod, "code_version", lambda: "A")
        CampaignRunner(SPEC, store=store).run()
        assert len(count_runs) == 4
        monkeypatch.setattr(campaign_mod, "code_version", lambda: "B")
        result = CampaignRunner(SPEC, store=store).run()
        assert result.cache["hits"] == 0
        assert len(count_runs) == 8, "stale-code entry was hit"

    def test_corrupt_entry_recomputed_not_trusted(self, store,
                                                  count_runs):
        cold = CampaignRunner(SPEC, store=store).run()
        # Flip one byte in one entry: that job must recompute.
        key, _, _ = next(iter(store.ls()))
        path = store.path_for(key)
        with open(path, "r+b") as fh:
            fh.seek(70)
            fh.write(b"\xaa")
        result = CampaignRunner(SPEC, store=store).run()
        assert result.cache["hits"] == 3
        assert result.cache["computed"] == 1
        assert len(count_runs) == 5
        assert export(result) == export(cold)

    def test_no_cache_recomputes_but_matches(self, store, count_runs):
        cold = CampaignRunner(SPEC, store=store).run()
        refresh = CampaignRunner(SPEC, store=store,
                                 use_cache=False).run()
        assert refresh.cache["hits"] == 0
        assert len(count_runs) == 8
        assert export(cold) == export(refresh)

    def test_trace_jobs_bypass_store(self, store, count_runs):
        traced = CampaignSpec(scenarios=("fig7",), seeds=(1,),
                              samples=120, trace=True)
        CampaignRunner(traced, store=store).run()
        assert list(store.ls()) == []
        result = CampaignRunner(traced, store=store).run()
        assert result.cache["hits"] == 0
        assert len(count_runs) == 2


class TestResume:
    def _interrupt_after(self, monkeypatch, n):
        calls = []
        fired = []

        def failing(cells):
            (cell,) = cells  # in-process: one cell per call
            if len(calls) == n and not fired:
                fired.append(True)
                raise KeyboardInterrupt
            calls.append(cell.index)
            return REAL_RUN_CELLS(cells)

        monkeypatch.setattr(cells_mod, "run_cells", failing)
        return calls

    def test_resume_skips_completed_prefix(self, store, monkeypatch):
        reference = CampaignRunner(SPEC).run()
        calls = self._interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(SPEC, store=store).run()
        assert len(calls) == 2

        # use_cache=False proves the *journal* drives the resume.
        resumed = CampaignRunner(SPEC, store=store, resume=True,
                                 use_cache=False).run()
        assert resumed.cache["resumed"] == 2
        assert resumed.cache["computed"] == 2
        assert len(calls) == 4
        assert export(resumed) == export(reference)

    def test_resumed_then_interrupted_keeps_prefix(self, store,
                                                   monkeypatch):
        calls = self._interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(SPEC, store=store).run()
        assert len(calls) == 2
        # Second attempt: dies again after one more job...
        calls2 = self._interrupt_after(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(SPEC, store=store, resume=True).run()
        assert len(calls2) == 1
        # ...third attempt finishes the single remaining job.
        calls3 = self._interrupt_after(monkeypatch, 4)
        final = CampaignRunner(SPEC, store=store, resume=True).run()
        assert final.cache["hits"] == 3
        assert final.cache["computed"] == 1
        assert len(calls3) == 1

    def test_stale_journal_from_other_matrix_ignored(self, store,
                                                     monkeypatch):
        CampaignRunner(SPEC, store=store).run()
        other = CampaignSpec(scenarios=("fig7",), seeds=(9, 10),
                             samples=120)
        runner = CampaignRunner(other, store=store, resume=True,
                                use_cache=False)
        result = runner.run()
        assert result.cache["resumed"] == 0
        assert result.cache["computed"] == 2
