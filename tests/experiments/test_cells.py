"""The shared cell executor: partition, pool, persist, fold.

Campaigns, margin ladders, twin-diffs and the service all run their
cells through :mod:`repro.experiments.cells`; these tests pin the
decisions that module owns, whatever executed the cells.
"""

import pytest

import repro.experiments.cells as cells_mod
from repro.experiments.cells import (
    Cell,
    cell_key,
    cell_keys,
    chunked,
    partition,
    run_all,
)
from repro.experiments.export import scenario_to_dict, to_json
from repro.experiments.scenario import run_scenario, scenario
from repro.store import ResultStore

CODE = "cells-test"


def fig7(seed):
    return scenario("fig7").configured(samples=60, seed=seed)


#: One cell of every partition case, in index order.
MIX = [
    Cell(index=0, op="scenario", spec=fig7(1)),              # hit
    Cell(index=1, op="scenario", spec=fig7(2)),              # miss
    Cell(index=2, op="margin", spec=fig7(3)),                # stalled hit
    Cell(index=3, op="scenario", spec=fig7(4)),              # stalled miss
    Cell(index=4, op="scenario", spec=fig7(5), trace=True),  # no key
]


def seeded_store(root):
    """A store holding a result for cell 0 and stalled markers for
    cells 2 (margin: a hit) and 3 (scenario: a miss)."""
    store = ResultStore(str(root))
    keys = cell_keys(MIX, CODE)
    store.put(keys[0], run_scenario(MIX[0].spec), CODE)
    store.put_stalled(keys[2], "fig7", "stalled: marker", CODE)
    store.put_stalled(keys[3], "fig7", "stalled: marker", CODE)
    return store


def digest(outcome):
    """Comparable form of an outcome (results compare by export)."""
    result = outcome.result
    return (outcome.index, outcome.error, outcome.body,
            None if result is None else to_json(scenario_to_dict(result)),
            None if result is None else result.trace is not None)


def stored(store):
    """Every key in the store, by entry kind."""
    return {kind: sorted(key for key, _meta, _size in store.ls(kind))
            for kind in ("result", "stalled", "rtrace")}


class TestPartition:
    def test_hits_and_misses_per_case(self, tmp_path):
        store = seeded_store(tmp_path / "store")
        keys = cell_keys(MIX, CODE)
        assert keys[4] is None  # traced cells have no key
        hits, misses = partition(store, MIX, keys)
        assert sorted(hits) == [0, 2]
        assert hits[2].result is None and hits[2].error == "stalled: marker"
        assert [cell.index for cell in misses] == [1, 3, 4]

    def test_no_cache_trusts_only_the_given_indices(self, tmp_path):
        store = seeded_store(tmp_path / "store")
        keys = cell_keys(MIX, CODE)
        hits, misses = partition(store, MIX, keys, use_cache=False,
                                 trusted={0})
        assert sorted(hits) == [0]
        assert [cell.index for cell in misses] == [1, 2, 3, 4]

    def test_storeless_everything_misses(self):
        hits, misses = partition(None, MIX, {})
        assert hits == {} and misses == MIX


class TestDriver:
    def test_serial_and_pooled_agree(self, tmp_path):
        """Serial and 2-worker drivers return equal outcomes and leave
        the same keys behind: the hit and the stalled margin marker
        load, the miss and the stalled scenario marker recompute and
        persist, and the traced cell runs but is never stored."""
        serial_store = seeded_store(tmp_path / "serial")
        pooled_store = seeded_store(tmp_path / "pooled")
        serial = run_all(MIX, serial_store, CODE, workers=1)
        pooled = run_all(MIX, pooled_store, CODE, workers=2)
        assert [digest(o) for o in serial] == [digest(o) for o in pooled]
        assert [o.index for o in serial] == [0, 1, 2, 3, 4]
        assert serial[2].error == "stalled: marker"
        assert serial[3].result is not None
        assert serial[4].result.trace is not None
        assert stored(serial_store) == stored(pooled_store)
        keys = cell_keys(MIX, CODE)
        assert stored(serial_store) == {
            "result": sorted([keys[0], keys[1], keys[3]]),
            "stalled": [keys[2]], "rtrace": []}

    def test_only_misses_reach_the_worker_entry(self, tmp_path,
                                                monkeypatch):
        store = seeded_store(tmp_path / "store")
        ran = []
        real = cells_mod.run_cells

        def counting(cells):
            ran.extend(cell.index for cell in cells)
            return real(cells)

        monkeypatch.setattr(cells_mod, "run_cells", counting)
        run_all(MIX, store, CODE, workers=1)
        assert ran == [1, 3, 4]


class TestChunking:
    @pytest.mark.parametrize("n,workers,size", [
        (1, 4, 1), (15, 2, 1), (16, 2, 1), (64, 2, 4), (100, 3, 4)])
    def test_about_eight_chunks_per_worker(self, n, workers, size):
        cells = [Cell(index=i, op="scenario", spec=fig7(1))
                 for i in range(n)]
        chunks = chunked(cells, workers)
        assert [c for chunk in chunks for c in chunk] == cells
        assert all(len(chunk) == size for chunk in chunks[:-1])


def test_record_and_scenario_keys_differ():
    spec = fig7(1)
    assert (cell_key(Cell(index=0, op="record", spec=spec, capacity=8),
                     CODE)
            != cell_key(Cell(index=0, op="scenario", spec=spec), CODE))
