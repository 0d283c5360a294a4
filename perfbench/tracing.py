"""Outside-in instrumentation for the traced benchmark run.

Nothing under ``src/`` is edited.  :class:`Tracer` records spans by
swapping public functions and methods for timing wrappers while it is
installed, and attaches :mod:`cProfile` around in-process scenario
cells.  Both are removed again by :meth:`Tracer.uninstall`, so the
benchmark can alternate instrumented and plain operations and report
the tracing overhead as their ratio.

A span is ``(id, parent, op, name, start, end, attrs)``: ``parent`` is
the enclosing span on the same thread (0 for none) and ``op`` is the
benchmark operation (one cell, one campaign run, one service job) the
span belongs to.  Spans opened on the service's own threads take the
operation the benchmark's single closed-loop client is waiting on.
"""

from __future__ import annotations

import concurrent.futures
import cProfile
import functools
import importlib
import itertools
import json
import math
import multiprocessing.pool
import os
import pstats
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Module-level functions to span: (defining module, attribute).  Every
#: ``repro`` module holding the same function object under that name is
#: patched too, so ``from x import f`` call sites are covered.
FUNCTIONS = (
    ("repro.experiments.scenario", "run_scenario"),
    ("repro.experiments.scenario", "build_scenario_bench"),
    ("repro.experiments.export", "campaign_to_dict"),
    ("repro.experiments.export", "to_json"),
    ("repro.service.jobs", "load_cached"),
    ("repro.service.jobs", "fold_job"),
)

#: Methods to span: (module, class, method).
METHODS = (
    ("repro.experiments.campaign", "CampaignRunner", "run"),
    ("repro.store.store", "ResultStore", "get"),
    ("repro.store.store", "ResultStore", "put"),
    ("repro.service.client", "ServiceClient", "submit"),
    ("repro.service.client", "ServiceClient", "wait"),
    ("repro.service.client", "ServiceClient", "artifact"),
)

#: Public draw methods of ``repro.sim.rng.PlanedGenerator``; their call
#: count is the exact RNG draw count.
RNG_DRAWS = frozenset(("integers", "random", "uniform", "exponential",
                       "lognormal", "normal", "poisson"))

#: Packages inside the simulation loop whose profile is reported.
SIM_LAYERS = ("sim", "sim.rng", "kernel", "hw", "workloads", "metrics")


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: int, op: int, name: str,
                 start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "name": self.name, "start": self.start, "end": self.end,
                **self.attrs}


def _store_get_attrs(span: Span, store: Any, key: str, entry: Any) -> None:
    path = store.path_for(key)
    span.attrs["hit"] = entry is not None
    span.attrs["bytes"] = os.path.getsize(path) if entry is not None else 0
    if entry is None and os.path.exists(path):
        # ResultStore.get reports a corrupt entry as a miss.
        span.attrs["error"] = "corrupt"


def _store_put_attrs(span: Span, _store: Any, _key: str, *rest: Any
                     ) -> None:
    span.attrs["bytes"] = os.path.getsize(rest[-1])


def _bench_attrs(tracer: "Tracer") -> Callable[..., None]:
    def attrs(_span: Span, *args: Any) -> None:
        tracer.benches.append(args[-1])
    return attrs


class Tracer:
    """Span recorder plus profiler, installed only between calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.benches: List[Any] = []
        #: Chunks handed to a worker pool (campaign ``imap_unordered``
        #: chunks and service executor submissions).
        self.pool_chunks = 0
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._profile: Optional[pstats.Stats] = None

    # -- spans ---------------------------------------------------------
    def _wrap(self, name: str, fn: Callable[..., Any],
              after: Optional[Callable[..., None]] = None
              ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else 0,
                        tracer.op, name, time.perf_counter())
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, *args, result)
            return result

        return spanned

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            return
        after = {"build_scenario_bench": _bench_attrs(self),
                 "ResultStore.get": _store_get_attrs,
                 "ResultStore.put": _store_put_attrs}
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._wrap(attr, original, after.get(attr))
            for name, module in list(sys.modules.items()):
                if (name.startswith("repro") and module is not None
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, wrapped)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            name = f"{cls_name}.{attr}"
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr),
                                              after.get(name)))
        self._patch_pools()

    def _patch_pools(self) -> None:
        tracer = self
        imap = multiprocessing.pool.Pool.imap_unordered
        submit = concurrent.futures.ProcessPoolExecutor.submit

        def imap_unordered(pool: Any, func: Any, iterable: Any,
                           chunksize: int = 1) -> Any:
            tracer.pool_chunks += math.ceil(len(iterable) / chunksize)
            return imap(pool, func, iterable, chunksize)

        def executor_submit(executor: Any, *args: Any, **kwargs: Any
                            ) -> Any:
            tracer.pool_chunks += 1
            return submit(executor, *args, **kwargs)

        self._patch(multiprocessing.pool.Pool, "imap_unordered",
                    imap_unordered)
        self._patch(concurrent.futures.ProcessPoolExecutor, "submit",
                    executor_submit)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def new_op(self) -> int:
        """Number a new benchmark operation; spans opened from now on
        (on any thread) carry its id."""
        self.op += 1
        return self.op

    @contextmanager
    def profiled(self, keep: bool) -> Iterator[None]:
        """Profile the block; merge the stats when *keep* is set."""
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
        if keep:
            if self._profile is None:
                self._profile = pstats.Stats(profile)
            else:
                self._profile.add(profile)

    # -- reductions ----------------------------------------------------
    def spans_of(self, ops: Any, name: str) -> List[Span]:
        return [s for s in self.spans if s.op in ops and s.name == name]

    def per_op_total(self, ops: Any, name: str) -> Dict[int, float]:
        """Summed duration of *name* spans, by operation."""
        total: Dict[int, float] = dict.fromkeys(ops, 0.0)
        for span in self.spans_of(ops, name):
            total[span.op] += span.duration
        return total

    def self_times(self) -> Dict[str, float]:
        """Each span's duration minus its child spans, summed by name."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent:
                children[span.parent] += span.duration
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.duration - children[span.id]
        return dict(out)

    def layer_profile(self) -> Dict[str, Dict[str, float]]:
        """Self seconds and call counts per ``repro`` package.

        Self time in code outside ``repro`` (builtins, numpy draws, the
        standard library) goes to the ``repro`` packages that called
        it, in proportion to the time each caller spent in it.
        """
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0})
        if self._profile is None:
            return {}
        for (filename, _line, _func), (_cc, nc, tt, _ct, callers) in \
                self._profile.stats.items():  # type: ignore[attr-defined]
            layer = layer_of(filename)
            if layer is not None:
                out[layer]["self_s"] += tt
                out[layer]["calls"] += nc
                continue
            for caller, caller_stats in callers.items():
                caller_layer = layer_of(caller[0]) or "other"
                out[caller_layer]["self_s"] += caller_stats[2]
        return dict(out)

    def call_count(self, module_suffix: str, funcs: Any) -> int:
        """Calls to functions named in *funcs* defined in a file ending
        with *module_suffix* (exact: a profile counts every call)."""
        if self._profile is None:
            return 0
        return sum(
            stats[1] for (filename, _line, func), stats in
            self._profile.stats.items()  # type: ignore[attr-defined]
            if func in funcs
            and filename.replace(os.sep, "/").endswith(module_suffix))

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [s.to_dict() for s in self.spans],
                       "span_self_s": self.self_times(),
                       "layers": self.layer_profile(), **extra},
                      fh, sort_keys=True)
            fh.write("\n")


def layer_of(filename: str) -> Optional[str]:
    """The ``repro`` package a source file belongs to, or None."""
    path = filename.replace(os.sep, "/")
    idx = path.rfind("/repro/")
    if idx < 0:
        return None
    parts = path[idx + len("/repro/"):].split("/")
    if parts[:2] == ["sim", "rng.py"]:
        return "sim.rng"
    return parts[0] if len(parts) > 1 else "repro"
