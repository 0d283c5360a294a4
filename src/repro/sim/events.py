"""Cancellable events for the simulation core.

The engine's one-shot heap holds *packed integer keys* -- ``(when <<
44) | seq`` -- never handle objects, so ``heapq`` comparisons are
single C ``int`` compares with no tuple indirection and no Python
``__lt__`` dispatch.  Packing preserves the exact ``(when, seq)``
ordering contract as long as fewer than 2**44 (~1.7e13) events are
ever scheduled in one simulation, which is more than six orders of
magnitude beyond the largest campaign run.

Liveness lives in an external table (``Simulator._handles``: key ->
callback); a key absent from the table is dead and is discarded when
it surfaces.  This keeps the classic lazy-deletion contract (O(1)
cancel, O(log n) schedule) while removing both per-event comparison
dispatch and per-fire liveness stores from the hot loop.

:class:`EventHandle` is the caller-facing receipt for a one-shot;
:class:`PeriodicHandle` is the recurring-event handle managed by the
hierarchical timer wheel (:mod:`repro.sim.wheel`) -- it is re-armed in
place on every fire, allocating nothing per tick.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

#: Low bits of a packed key hold the schedule sequence number; high
#: bits the timestamp.  Key order == (when, seq) lexicographic order.
SEQ_BITS = 44
SEQ_MASK = (1 << SEQ_BITS) - 1

#: Compact the one-shot heap only once it is at least this large;
#: below that the lazy-deletion overhead is noise and compaction would
#: just churn.
COMPACT_FLOOR = 64


class EventHandle:
    """A scheduled one-shot callback that may be cancelled before firing.

    The handle does not carry its own liveness: an engine-owned handle
    is alive iff its key is still present in the owner's table, so
    firing an event is a single dict pop with no handle write-back.  A
    handle constructed without an owner (unit tests, ad-hoc use) tracks
    liveness by flipping its key's sign instead.
    """

    __slots__ = ("key", "callback", "label", "_owner")

    def __init__(self, when: int, seq: int, callback: Callable[[], Any],
                 label: Optional[str] = None) -> None:
        self.key = (when << SEQ_BITS) | seq
        self.callback = callback
        self.label = label
        self._owner = None  # set by the scheduling Simulator

    @property
    def when(self) -> int:
        """Absolute simulation time (ns) at which the event fires."""
        key = self.key
        if key < 0:
            key = ~key
        return key >> SEQ_BITS

    @property
    def seq(self) -> int:
        """Schedule sequence number (tie-break within a timestamp)."""
        key = self.key
        if key < 0:
            key = ~key
        return key & SEQ_MASK

    @property
    def alive(self) -> bool:
        """True until the event fires or is cancelled."""
        owner = self._owner
        if owner is not None:
            return self.key in owner._handles
        return self.key >= 0

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it had not yet fired."""
        owner = self._owner
        if owner is not None:
            # Lazy deletion: drop the liveness entry and count the dead
            # heap key; the run loops skip it when it surfaces.  Once
            # dead keys are over half of a heap of at least
            # COMPACT_FLOOR entries, the simulator compacts the heap.
            # The test runs every 32nd dead entry -- the bound only
            # loosens by a constant, and mass-cancel storms skip 31
            # len() calls out of 32.
            if owner._handles.pop(self.key, None) is None:
                return False  # already fired or already cancelled
            dead = owner._dead + 1
            owner._dead = dead
            if not dead & 31:
                heap = owner._heap
                if dead > len(heap) // 2 and len(heap) >= COMPACT_FLOOR:
                    owner._compact()
            return True
        if self.key < 0:
            return False
        self.key = ~self.key
        return True

    def _consume(self) -> bool:
        """Mark an *unowned* handle as fired (test aid)."""
        if self.key < 0:
            return False
        self.key = ~self.key
        return True

    def __lt__(self, other: "EventHandle") -> bool:
        # Retained for callers that sort handles; the engine's heap
        # compares bare packed keys instead.
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<EventHandle t={self.when} {self.label or self.callback} {state}>"


class PeriodicHandle:
    """A recurring callback re-armed in place by the timer wheel.

    After each fire the engine assigns the handle a fresh sequence
    number from the same counter one-shots draw from and advances
    ``when`` by ``period`` -- so a wheel periodic interleaves with
    one-shot events at equal timestamps exactly as the naive
    self-rescheduling ``after()`` loop it replaces did (the byte-
    identity contract the golden tests pin down).
    """

    __slots__ = ("when", "seq", "key", "period", "callback", "label",
                 "fires", "_alive", "_owner", "_bucket")

    def __init__(self, when: int, seq: int, period: int,
                 callback: Callable[[], Any],
                 label: Optional[str] = None) -> None:
        self.when = when
        self.seq = seq
        self.key = (when << SEQ_BITS) | seq
        self.period = period
        self.callback = callback
        self.label = label
        self.fires = 0
        self._alive = True
        self._owner = None   # set by the scheduling Simulator
        self._bucket = None  # wheel container, for O(1) removal

    @property
    def alive(self) -> bool:
        """True until the periodic is cancelled."""
        return self._alive

    def cancel(self) -> bool:
        """Stop the stream.  Safe to call from inside the callback."""
        if not self._alive:
            return False
        self._alive = False
        if self._owner is not None:
            self._owner._note_periodic_cancelled(self)
        return True

    def set_period(self, period_ns: int) -> None:
        """Change the period; takes effect at the next re-arm, like
        reprogramming a hardware reload register mid-cycle."""
        if period_ns <= 0:
            raise ValueError(f"periodic {self.label or self.callback}: "
                             f"period must be positive, got {period_ns}")
        self.period = period_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return (f"<PeriodicHandle t={self.when} period={self.period} "
                f"{self.label or self.callback} {state}>")
