"""The discrete-event simulation core.

:class:`Simulator` owns the clock, the event queues, the master RNG
registry and the trace buffer.  Hardware and kernel objects schedule
zero-argument callbacks at absolute or relative times and may cancel
them through the returned :class:`~repro.sim.events.EventHandle`, or
install recurring callbacks via :meth:`Simulator.periodic`, which are
managed by a hierarchical timer wheel and re-armed in place with no
per-tick allocation.

The engine is intentionally minimal: all *semantics* (preemption,
interrupts, locking) live in the hardware/kernel layers.  Keeping the
engine dumb makes its behaviour easy to verify exhaustively, which the
rest of the system then inherits.

Hot-path design (the perf suite in ``benchmarks/perf`` tracks this):

* The one-shot heap holds packed ``(when << 44) | seq`` integer keys,
  so ``heapq`` comparisons are single C int compares -- no handle
  objects on the heap, no tuple indirection, no Python ``__lt__``.
  Liveness is an external dict (key -> handle); absence means
  cancelled, so firing needs no handle write-back at all.
* The dequeue/dispatch/re-arm loop (:meth:`Simulator._advance`)
  works in windows.  It *stages* every wheel entry due inside the
  window (:meth:`TimerWheel.extract_upto`) into ``_active_run``, a flat
  sorted ``(key, handle)`` list, so the wheel's bitmap scans and
  cascades are paid once per window rather than once per fire.  It
  then dispatches *fused one-shot runs*: heap keys below the staged
  head pop in a tight loop with no wheel comparison at all.  The only
  event that can invalidate that boundary is a callback arming a new
  periodic, detected by comparing the wheel's monotone insertion
  generation (``wheel._ins``) around the callback -- two int reads --
  after which the window is re-staged.  Finally the staged head fires
  and re-arms by ``insort`` into the run (still inside the window) or
  back onto the wheel (beyond it).  Cancelled staged entries are
  skipped at dispatch and stay visible to introspection until then.
* :meth:`Simulator.halt` stops an advance right after the current
  callback.  It bumps ``wheel._ins``, so the fused loop learns of it
  through the comparison it already makes; the staged path checks once
  per periodic fire, after the re-arm.  Whatever is still staged stays
  in ``_active_run``, where the next advance picks it up.
* :meth:`Simulator.step` is the same merge done one event at a time:
  the heap head against the wheel head, with a fresh comparison per
  event.  It is the oracle ``run``/``run_until`` are tested against.
* Firing order is strict ``(when, seq)`` across both queues, with
  periodics drawing a fresh seq from the same counter at each re-arm:
  exactly the order the naive self-rescheduling ``after()`` idiom
  produced, which is what keeps figure outputs byte-identical.  The
  staging reorders *bookkeeping*, never callbacks.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Callable, List, Optional

from repro.observe.tracepoints import Tracepoints
from repro.sim.errors import SchedulingInPastError, SimulationStalledError
from repro.sim.events import EventHandle, PeriodicHandle, SEQ_BITS
from repro.sim.rng import DEFAULT_SEED, RngStreams
from repro.sim.trace import TraceBuffer
from repro.sim.wheel import TimerWheel

_heappush = heapq.heappush
_heappop = heapq.heappop
_new_handle = EventHandle.__new__

#: A key bound larger than any schedulable one.  Packed keys are
#: unbounded Python ints (``when << SEQ_BITS``), so the only safe
#: universal bound is +inf -- int/float comparisons are exact here.
_INF_KEY = float("inf")


class Simulator:
    """Event queues plus clock.

    Parameters
    ----------
    seed:
        Master seed for all named random substreams.  ``None`` uses the
        repo-wide :data:`repro.sim.rng.DEFAULT_SEED` so that a run's
        seed is stated in exactly one place (normally the
        ``ScenarioSpec`` driving the experiment).
    trace_capacity:
        Ring-buffer size for the (normally disabled) trace facility.
    """

    def __init__(self, seed: Optional[int] = None,
                 trace_capacity: int = 65536) -> None:
        self.now: int = 0
        self._heap: List[int] = []
        self._handles: dict = {}  # packed key -> callback (presence = alive)
        self._wheel = TimerWheel()
        self._seq = 0
        self._events_fired = 0
        self._dead = 0   # cancelled entries not yet popped or compacted
        # Wheel entries staged for batched dispatch: a sorted list of
        # (key, PeriodicHandle).  Normally drained by the advance that
        # staged it; introspection helpers below fold it in so staged
        # events are never invisible.
        self._active_run: list = []
        # Set by halt(); cleared when an advance starts.
        self._halted = False
        self.rng = RngStreams(DEFAULT_SEED if seed is None else seed)
        self.trace = TraceBuffer(trace_capacity)
        # Typed tracepoint registry (disabled; the machine sizes its
        # per-CPU rings via tp.configure() once the CPU count is known).
        self.tp = Tracepoints()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, when: int, callback: Callable[[], None],
           label: Optional[str] = None) -> EventHandle:
        """Schedule *callback* at absolute time *when* (ns)."""
        if when < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {label or callback} at t={when} < now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        key = (when << SEQ_BITS) | seq
        # Inlined EventHandle construction: this is the hottest
        # allocation in the simulator, worth skipping a stack frame.
        handle = _new_handle(EventHandle)
        handle.key = key
        handle.callback = callback
        handle.label = label
        handle._owner = self
        self._handles[key] = callback
        _heappush(self._heap, key)
        return handle

    def after(self, delay: int, callback: Callable[[], None],
              label: Optional[str] = None) -> EventHandle:
        """Schedule *callback* *delay* ns from now (delay >= 0)."""
        if delay < 0:
            raise SchedulingInPastError(
                f"negative delay {delay} for {label or callback}")
        # Inlined at(): delay >= 0 already implies when >= now, and
        # relative scheduling is the kernel/hw layers' hottest idiom.
        seq = self._seq
        self._seq = seq + 1
        key = ((self.now + delay) << SEQ_BITS) | seq
        handle = _new_handle(EventHandle)
        handle.key = key
        handle.callback = callback
        handle.label = label
        handle._owner = self
        self._handles[key] = callback
        _heappush(self._heap, key)
        return handle

    def periodic(self, period: int, callback: Callable[[], None], *,
                 first_delay: Optional[int] = None,
                 first_at: Optional[int] = None,
                 label: Optional[str] = None) -> PeriodicHandle:
        """Install a recurring callback on the timer wheel.

        Fires first at ``first_at`` (absolute), or ``now + first_delay``
        if given, else ``now + period``; then every ``period`` ns until
        :meth:`PeriodicHandle.cancel`.  Each fire advances the handle
        in place -- no allocation, no heap churn -- while drawing a
        fresh sequence number so ties against one-shots resolve exactly
        as if the callback had re-scheduled itself with :meth:`after`.
        """
        if period <= 0:
            raise ValueError(
                f"periodic {label or callback}: period must be positive, "
                f"got {period}")
        if first_at is not None:
            first = first_at
        elif first_delay is not None:
            first = self.now + first_delay
        else:
            first = self.now + period
        if first < self.now:
            raise SchedulingInPastError(
                f"cannot schedule {label or callback} at t={first} "
                f"< now={self.now}")
        seq = self._seq
        self._seq = seq + 1
        handle = PeriodicHandle(first, seq, period, callback, label)
        handle._owner = self
        self._wheel.insert(handle)
        return handle

    # ------------------------------------------------------------------
    # Queue hygiene
    # ------------------------------------------------------------------
    def _note_periodic_cancelled(self, handle: PeriodicHandle) -> None:
        """A periodic was cancelled (handle hook); unlink from wheel."""
        self._wheel.remove(handle)

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        heapify preserves the key-ordering contract, so firing order is
        unaffected; only the dead weight goes away.  The list is
        filtered *in place*: the run loops hold a local reference to
        it, so its identity must survive a compaction triggered from
        inside a callback.
        """
        heap = self._heap
        handles = self._handles
        heap[:] = [k for k in heap if k in handles]
        heapq.heapify(heap)
        self._dead = 0

    def _discard_dead_head(self) -> None:
        """Pop cancelled entries sitting at the top of the heap."""
        heap = self._heap
        handles = self._handles
        while heap and heap[0] not in handles:
            _heappop(heap)
            self._dead -= 1

    def cancel_pending(self) -> int:
        """Cancel every scheduled one-shot and periodic.

        A teardown aid for harness code and tests that want to drain a
        bench without firing whatever device timers remain; returns the
        number of events cancelled.
        """
        count = len(self._handles)
        self._handles.clear()
        self._heap.clear()
        self._dead = 0
        for phandle in list(self._wheel.handles()):
            if phandle.cancel():
                count += 1
        run = self._active_run
        if run:
            for _, phandle in run:
                if phandle.cancel():
                    count += 1
            run.clear()
        return count

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live event, or None if none remain.

        Considers all three holding areas: the one-shot heap, the timer
        wheel, and any batch run still staged by an (aborted) advance.
        """
        self._discard_dead_head()
        best: Optional[int] = None  # packed key
        heap = self._heap
        if heap:
            best = heap[0]
        for key, handle in self._active_run:
            if handle._alive:
                if best is None or key < best:
                    best = key
                break
        wheel = self._wheel
        if wheel._count:
            w = wheel.peek()
            if best is None or w.key < best:
                best = w.key
        return (best >> SEQ_BITS) if best is not None else None

    def pending_summary(self, max_labels: int = 8) -> str:
        """Human-readable snapshot of what is still scheduled.

        Names the live periodic callbacks (timer ticks, device pacers,
        fault-injector pacers -- anything armed with a label) and
        counts the live one-shots; one-shot labels are not retained on
        the hot path, so they can only be counted.  Periodics staged in
        an in-flight batch run are folded in and reported separately --
        before the batched core, an advance aborted mid-run made these
        events invisible to stall diagnostics.  Used by stall
        diagnostics to say *what* was (or was not) left running.
        """
        staged = [h for _, h in self._active_run if h._alive]
        labels = sorted({h.label or "<unlabelled>"
                         for h in self._wheel.handles() if h.alive}
                        | {h.label or "<unlabelled>" for h in staged})
        shown = ", ".join(labels[:max_labels])
        if len(labels) > max_labels:
            shown += f", ... ({len(labels) - max_labels} more)"
        periodics = shown if labels else "none"
        summary = (f"{len(labels)} periodic ({periodics}); "
                   f"{len(self._handles)} one-shot")
        if staged:
            summary += f"; {len(staged)} staged in an in-flight batch run"
        return summary

    def step(self) -> bool:
        """Fire the next event.  Returns False if none remain.

        Single-step semantics are inherently unbatched: refile any
        staged run (left by an aborted advance) and dispatch one event,
        merging the heap head against the wheel head.
        """
        self._unstage()
        heap = self._heap
        handles = self._handles
        wheel = self._wheel
        while True:
            w = wheel._min_cache
            if w is None and wheel._count:
                w = wheel.peek()
            if heap:
                key = heap[0]
                if w is None or key < w.key:
                    _heappop(heap)
                    cb = handles.pop(key, None)
                    if cb is None:
                        self._dead -= 1
                        continue
                    self.now = key >> SEQ_BITS
                    self._events_fired += 1
                    cb()
                    return True
            if w is None:
                return False
            self._fire_periodic(w)
            return True

    def _fire_periodic(self, handle: PeriodicHandle) -> None:
        """Fire the wheel head, count it, and re-arm it in place."""
        self._events_fired += 1
        wheel = self._wheel
        wheel.remove(handle)
        self.now = handle.when
        handle.callback()
        if handle._alive:
            # Fresh seq *after* the callback returns -- the re-arm point
            # of the self-rescheduling idiom this replaces, which is
            # what keeps (when, seq) ties byte-identical.
            seq = self._seq
            self._seq = seq + 1
            handle.fires += 1
            when = handle.when + handle.period
            handle.when = when
            handle.seq = seq
            handle.key = (when << SEQ_BITS) | seq
            wheel.insert(handle)

    def _unstage(self) -> None:
        """Refile staged batch-run entries back onto the wheel.

        An advance that exits through an exception (kernel panic,
        harness abort) may leave extracted periodics in
        ``_active_run``; :meth:`step` calls this so it starts from the
        canonical heap+wheel state.
        """
        run = self._active_run
        if run:
            wheel = self._wheel
            for _, handle in run:
                if handle._alive:
                    wheel.insert(handle)
            run.clear()

    def halt(self) -> None:
        """Make the running advance return after the current callback.

        The clock stays at the halting event and nothing is dropped: a
        later ``run``/``run_until`` continues with exactly the
        ``(when, seq)`` history an unhalted advance would have had.  A
        halt requested outside an advance has no effect on the next one.
        """
        self._halted = True
        # The fused one-shot loop already compares this generation
        # after every callback; bumping it routes the halt through that
        # check at no cost to the unhalted path.
        self._wheel._ins += 1

    def _advance(self, limit: float) -> None:
        """Fire every event with packed key <= *limit* in key order.

        *limit* is a packed key, or ``_INF_KEY`` to drain both queues.
        Returns early after a callback that calls :meth:`halt`.
        """
        self._halted = False
        heap = self._heap
        handles = self._handles
        wheel = self._wheel
        run = self._active_run
        if run and run[-1][0] > limit:
            # A previous advance exited exceptionally with entries staged
            # beyond this window; refile them so the boundary stays honest.
            self._unstage()
        pop = _heappop
        get = handles.pop
        fired = 0
        try:
            while True:
                # Stage the window: pull due wheel entries into the run.
                if wheel._count:
                    w = wheel._min_cache
                    if w is None:
                        w = wheel.peek()
                    if w.key <= limit:
                        wheel.extract_upto(limit, run)
                if run:
                    boundary = run[0][0]
                else:
                    boundary = limit
                # Fused one-shot run up to the staged head.
                restage = False
                while heap:
                    key = heap[0]
                    if key > boundary:
                        break
                    pop(heap)
                    cb = get(key, None)
                    if cb is None:
                        self._dead -= 1
                        continue
                    self.now = key >> SEQ_BITS
                    fired += 1
                    gen = wheel._ins
                    cb()
                    if wheel._ins != gen:
                        if self._halted:
                            return
                        # A new periodic was armed; it may be due before
                        # the current boundary.  Re-stage the window.
                        restage = True
                        break
                if restage:
                    continue
                if not run:
                    break
                # Dispatch the staged head; every remaining heap key is
                # larger, so key order is preserved.
                key, handle = run[0]
                del run[0]
                if not handle._alive:
                    continue  # cancelled while staged
                self.now = key >> SEQ_BITS
                fired += 1
                handle.callback()
                if handle._alive:
                    # Fresh seq *after* the callback returns, as in
                    # _fire_periodic.
                    seq = self._seq
                    self._seq = seq + 1
                    handle.fires += 1
                    nxt = handle.when + handle.period
                    handle.when = nxt
                    handle.seq = seq
                    nkey = (nxt << SEQ_BITS) | seq
                    handle.key = nkey
                    if nkey <= limit:
                        insort(run, (nkey, handle))
                    else:
                        wheel.insert(handle)
                if self._halted:
                    return
        finally:
            self._events_fired += fired

    def run_until(self, when: int) -> None:
        """Fire events up to and including time *when*.

        The clock is left at *when* even if the last event fired
        earlier; this gives callers a consistent "the simulated world
        has reached t" view.  After a :meth:`halt` it stays at the
        halting event instead.
        """
        self._advance(((when + 1) << SEQ_BITS) - 1)
        if when > self.now and not self._halted:
            self.now = when

    def run(self) -> None:
        """Fire events until both queues drain."""
        self._advance(_INF_KEY)

    def run_steps(self, count: int) -> int:
        """Fire at most *count* events; returns the number fired."""
        fired = 0
        while fired < count and self.step():
            fired += 1
        return fired

    def require_events(self) -> None:
        """Raise if the simulation has no future events (deadlock guard)."""
        if self.peek_time() is None:
            raise SimulationStalledError(f"no events pending at t={self.now}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def events_pending(self) -> int:
        """Number of live events still scheduled.

        O(1) plus the (normally empty) staged batch run: entries a
        batched advance extracted but had not dispatched when it
        exited are still pending events and are counted here.
        """
        pending = len(self._handles) + self._wheel._count
        run = self._active_run
        if run:
            pending += sum(1 for _, h in run if h._alive)
        return pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self.now} fired={self._events_fired} "
                f"pending={self.events_pending}>")
