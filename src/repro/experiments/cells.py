"""One cell executor: partition -> pool -> persist -> fold.

Every sweep -- a campaign, a shield-margin ladder, a storm twin-diff,
a service job -- expands into :class:`Cell`\\ s, looks each one up in
the result store (:func:`partition`), runs the misses in chunks
(:func:`chunked`) on a process pool (:func:`make_pool`) through the
one worker entry point (:func:`run_cells`), persists each outcome as
it lands (:func:`persist`), and folds the outcomes in cell order.
:func:`compute` is the synchronous driver the CLI runners share; the
service scheduler builds its asyncio chunk loop from the same pieces.

Nothing here imports :mod:`repro.service` or
:mod:`concurrent.futures.process` at module level, so the campaign CLI
loads neither.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, List, Optional, Tuple

from repro.experiments.scenario import (ScenarioResult, ScenarioSpec,
                                        run_scenario)
from repro.sim.errors import SimulationStalledError
from repro.store.keys import job_key, recording_key


@dataclass(frozen=True)
class Cell:
    """One picklable work unit: a scenario run or a trace recording.

    ``op`` selects the worker behaviour and the store entry kind:

    * ``"scenario"`` -- run and persist a full result; a stall is an
      error (campaign semantics);
    * ``"margin"`` -- run, but a stall is a *data point* (the ladder's
      unbounded cell), persisted as a stalled marker;
    * ``"record"`` -- run traced and persist the RTRACE1 body.

    A ``trace`` scenario cell runs with typed tracing.  Its trace
    report is not persisted, so a store hit could not reproduce it:
    traced cells have no key and bypass the store.
    """

    index: int
    op: str
    spec: ScenarioSpec
    capacity: int = 0
    trace: bool = False


@dataclass
class CellOutcome:
    """What came back for one cell (exactly one field set per op)."""

    index: int
    result: Optional[ScenarioResult] = None
    error: Optional[str] = None
    body: Optional[Dict[str, Any]] = None


#: Store key per cell index; None marks a cell that bypasses the store.
Keys = Dict[int, Optional[str]]


def cell_key(cell: Cell, code: str) -> Optional[str]:
    """The content-store key this cell's outcome lives under."""
    if cell.trace:
        return None
    if cell.op == "record":
        return recording_key(cell.spec, cell.capacity, code=code)
    return job_key(cell.spec, code)


def cell_keys(cells: List[Cell], code: str) -> Keys:
    """Every cell's key, computed once per sweep."""
    return {cell.index: cell_key(cell, code) for cell in cells}


def load_cached(store: Any, cell: Cell, key: Optional[str]
                ) -> Optional[CellOutcome]:
    """The cell's outcome from the store, or None on a miss.

    A stalled marker is a *hit* for margin cells (the ladder caches
    unbounded rungs) and a miss for scenario cells (a campaign
    recomputes a run that once stalled).
    """
    if key is None:
        return None
    if cell.op == "record":
        body = store.get_recording(key)
        if body is None:
            return None
        return CellOutcome(index=cell.index, body=body)
    entry = store.get(key)
    if entry is None:
        return None
    if entry.stalled:
        if cell.op == "margin":
            return CellOutcome(index=cell.index, error=entry.error or "")
        return None
    return CellOutcome(index=cell.index, result=entry.result)


def persist(store: Any, cell: Cell, outcome: CellOutcome,
            key: Optional[str], code: str) -> None:
    """Write one computed outcome to the store (atomic, keyed)."""
    if key is None:
        return
    if cell.op == "record":
        store.put_recording(key, outcome.body, code=code)
    elif outcome.result is not None:
        store.put(key, outcome.result, code)
    else:
        store.put_stalled(key, cell.spec.name, outcome.error or "", code)


def partition(store: Any, cells: List[Cell], keys: Keys,
              use_cache: bool = True, trusted: Collection[int] = ()
              ) -> Tuple[Dict[int, CellOutcome], List[Cell]]:
    """Split *cells* into store hits (index -> outcome) and misses.

    Without a store every cell misses.  ``use_cache=False`` ignores
    existing entries (every cell recomputes) except the indices in
    *trusted* -- a campaign's resume journal.
    """
    hits: Dict[int, CellOutcome] = {}
    misses: List[Cell] = []
    for cell in cells:
        outcome = None
        if store is not None and (use_cache or cell.index in trusted):
            outcome = load_cached(store, cell, keys.get(cell.index))
        if outcome is None:
            misses.append(cell)
        else:
            hits[cell.index] = outcome
    return hits, misses


# ----------------------------------------------------------------------
# Worker entry points (module-level: must pickle under spawn)
# ----------------------------------------------------------------------
def run_cell(cell: Cell) -> CellOutcome:
    """Execute one cell."""
    if cell.op == "record":
        from repro.observe.diff import record_scenario

        rec, _result = record_scenario(cell.spec, capacity=cell.capacity)
        return CellOutcome(index=cell.index, body=rec.to_body())
    if cell.op == "margin":
        try:
            result = run_scenario(cell.spec)
        except SimulationStalledError as exc:
            return CellOutcome(index=cell.index, error=str(exc))
        return CellOutcome(index=cell.index, result=result)
    return CellOutcome(index=cell.index,
                       result=run_scenario(cell.spec,
                                           trace=cell.trace or None))


def run_cells(cells: List[Cell]) -> List[CellOutcome]:
    """The worker entry point: one chunk of cells, one IPC round trip."""
    return [run_cell(cell) for cell in cells]


# ----------------------------------------------------------------------
# Chunking, the pool, and the synchronous driver
# ----------------------------------------------------------------------
def chunked(cells: List[Cell], workers: int) -> List[List[Cell]]:
    """About eight chunks per worker: amortises IPC round trips over
    short cells while keeping the tail balanced."""
    size = max(1, len(cells) // (workers * 8))
    return [cells[i:i + size] for i in range(0, len(cells), size)]


def make_pool(workers: int) -> Any:
    """A process pool: fork keeps the imported registries; spawn (where
    fork is missing) re-imports the catalog in each worker."""
    from concurrent.futures import ProcessPoolExecutor

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def compute(misses: List[Cell], keys: Keys, store: Any, code: str,
            workers: int, land: Callable[[CellOutcome], None]) -> None:
    """Run *misses*, persisting each outcome before *land* sees it.

    In-process when ``workers == 1`` or one cell misses, else on a
    pool in completion order (the caller's fold restores cell order).
    """
    def landed(cell: Cell, outcome: CellOutcome) -> None:
        if store is not None:
            persist(store, cell, outcome, keys.get(cell.index), code)
        land(outcome)

    if workers == 1 or len(misses) <= 1:
        for cell in misses:
            landed(cell, run_cells([cell])[0])
        return
    from concurrent.futures import as_completed

    workers = min(workers, len(misses))
    pool = make_pool(workers)
    try:
        futures = {pool.submit(run_cells, chunk): chunk
                   for chunk in chunked(misses, workers)}
        for future in as_completed(futures):
            for cell, outcome in zip(futures[future], future.result()):
                landed(cell, outcome)
    finally:
        pool.shutdown(cancel_futures=True)


def run_all(cells: List[Cell], store: Any = None, code: str = "",
            workers: int = 1, use_cache: bool = True
            ) -> List[CellOutcome]:
    """Partition, compute the misses, and return outcomes in cell order."""
    keys = cell_keys(cells, code) if store is not None else {}
    outcomes, misses = partition(store, cells, keys, use_cache)

    def land(outcome: CellOutcome) -> None:
        outcomes[outcome.index] = outcome

    compute(misses, keys, store, code, workers, land)
    return [outcomes[cell.index] for cell in cells]
