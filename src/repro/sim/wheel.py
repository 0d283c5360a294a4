"""A hierarchical timing wheel for periodic events.

The wheel holds :class:`~repro.sim.events.PeriodicHandle` objects.
Level *k* divides time into slots of ``2**(11 + 6k)`` ns, 64 slots per
level: level 0 resolves ~2 us slots inside the current ~131 us slab,
level 1 the ~131 us slots inside the current ~8.4 ms slab, and so on
up to level 7 (~104-day slots).  A handle is filed at the lowest level
whose *current* slab contains its expiry -- exactly the Linux
``timer_wheel`` layout, minus the rounding: entries keep their exact
nanosecond expiry and surface in packed-key order (``(when << 44) |
seq``), so firing order is identical to a binary heap's.

Operations:

* ``insert``/``remove``: O(levels) = O(1) -- a shift, a compare and a
  list append per level walked; re-arming a periodic allocates
  nothing (buckets are preallocated ``_Bucket`` objects that carry
  their own level/index, so clearing an occupancy bit is direct).
* ``peek``: find the first occupied slot via per-level occupancy
  bitmaps (``int`` bit tricks); when a level-0 rotation drains, the
  next occupied higher-level slot cascades down, again through the
  O(1) insert path.
* ``extract_upto``: move every entry due inside a window into a sorted
  run in one pass (the engine's batched advance).

Two overflow side-lists keep the bitmap math honest at the edges:
``_near`` holds entries behind the wheel's internal cursor (possible
because the cursor may run ahead of the simulator clock after a
cascade) and ``_far`` holds entries beyond the top level's horizon.
Both are kept sorted and practically always empty.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import PeriodicHandle

#: log2 of the level-0 slot width in ns (2**11 ns = 2.048 us) -- narrow
#: enough that a realistic set of concurrent periodics (microsecond-to-
#: millisecond ticks) almost never shares a bucket, keeping the
#: min-of-bucket scan degenerate.  Swept 9..13 on the periodic
#: microbench; 11 maximises throughput.
_BASE_SHIFT = 11
#: log2 of the slots-per-level fanout (64 slots).
_FAN_SHIFT = 6
#: Number of levels; level 7 slots are ~104 simulated days wide.
_LEVELS = 8
_SLOT_MASK = (1 << _FAN_SHIFT) - 1
#: Per-level slot shifts: entry at level k is indexed by when >> _SHIFTS[k].
_SHIFTS = tuple(_BASE_SHIFT + _FAN_SHIFT * k for k in range(_LEVELS))

_key_of = attrgetter("key")


class _Bucket:
    """One wheel slot: its entries plus its own (level, idx) address."""

    __slots__ = ("entries", "level", "idx")

    def __init__(self, level: int, idx: int) -> None:
        self.entries: list = []
        self.level = level
        self.idx = idx


class TimerWheel:
    """Hierarchical timing wheel over :class:`PeriodicHandle` entries."""

    __slots__ = ("_slots", "_occupied", "_time", "_count", "_near", "_far",
                 "_min_cache", "_ins")

    def __init__(self) -> None:
        self._slots: List[List[_Bucket]] = [
            [_Bucket(level, idx) for idx in range(1 << _FAN_SHIFT)]
            for level in range(_LEVELS)]
        self._occupied = [0] * _LEVELS
        self._time = 0          # wheel cursor (ns); only moves forward
        self._count = 0         # total entries, side-lists included
        self._near: list = []   # (key, handle) behind the cursor
        self._far: list = []    # (key, handle) beyond the horizon
        self._min_cache: Optional["PeriodicHandle"] = None
        #: Monotone insertion generation.  The batched run loops compare
        #: it around callbacks to learn whether a callback armed a new
        #: periodic (which may be due inside the current dispatch
        #: window) without paying a wheel scan per event.
        self._ins = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Insert / remove
    # ------------------------------------------------------------------
    def insert(self, handle: "PeriodicHandle") -> None:
        """File *handle* by its ``when``; O(levels)."""
        self._count += 1
        self._ins += 1
        cache = self._min_cache
        if cache is not None and handle.key < cache.key:
            self._min_cache = handle
        # Inlined common case of _file (re-arm hot path): the expiry is
        # at or ahead of the cursor and inside the top-level horizon.
        when = handle.when
        t = self._time
        if when >= t:
            level = ((when ^ t).bit_length() - _BASE_SHIFT - 1) // _FAN_SHIFT
            if level < 0:
                level = 0
            if level < _LEVELS:
                idx = (when >> _SHIFTS[level]) & _SLOT_MASK
                bucket = self._slots[level][idx]
                bucket.entries.append(handle)
                handle._bucket = bucket
                self._occupied[level] |= 1 << idx
                return
        self._file(handle)

    def _file(self, handle: "PeriodicHandle") -> None:
        when = handle.when
        t = self._time
        if when < t:
            insort(self._near, (handle.key, handle))
            handle._bucket = self._near
            return
        # The level is set by the highest bit in which `when` differs
        # from the cursor: same level-k slab iff that bit is below the
        # slab's width.  One xor + bit_length replaces a level loop.
        level = ((when ^ t).bit_length() - _BASE_SHIFT - 1) // _FAN_SHIFT
        if level < 0:
            level = 0
        elif level >= _LEVELS:
            insort(self._far, (handle.key, handle))
            handle._bucket = self._far
            return
        idx = (when >> _SHIFTS[level]) & _SLOT_MASK
        bucket = self._slots[level][idx]
        bucket.entries.append(handle)
        handle._bucket = bucket
        self._occupied[level] |= 1 << idx

    def remove(self, handle: "PeriodicHandle") -> None:
        """Unlink a (cancelled or fired) handle from its container."""
        bucket = handle._bucket
        if bucket is None:
            return
        handle._bucket = None
        self._count -= 1
        if self._min_cache is handle:
            self._min_cache = None
        if type(bucket) is _Bucket:
            entries = bucket.entries
            entries.remove(handle)
            if not entries:
                self._occupied[bucket.level] &= ~(1 << bucket.idx)
            return
        bucket.remove((handle.key, handle))

    # ------------------------------------------------------------------
    # Min queries
    # ------------------------------------------------------------------
    def peek(self) -> Optional["PeriodicHandle"]:
        """The earliest live entry by packed key, or None."""
        if self._count == 0:
            return None
        cached = self._min_cache
        if cached is not None:
            return cached
        best = self._wheel_min()
        near = self._near
        if near:
            key, handle = near[0]
            if best is None or key < best.key:
                best = handle
        far = self._far
        if far:
            key, handle = far[0]
            if best is None or key < best.key:
                best = handle
        self._min_cache = best
        return best

    def extract_upto(self, limit_key: int, out: list) -> int:
        """Move every entry with packed key <= *limit_key* into *out*.

        Entries are appended (or merged, if *out* is non-empty) as
        ``(key, handle)`` pairs in ascending key order and unlinked from
        the wheel, so *out* becomes a ready-to-dispatch sorted run and
        the wheel retains only entries beyond the window.  This folds
        the cascade into run extraction: instead of a bitmap scan, a
        cascade check and an unlink *per fire*, the batched engine
        loops pay them once per window and then dispatch/re-arm against
        a flat sorted list.  Returns the number of entries moved.
        """
        moved = 0
        merge = bool(out)
        while self._count:
            handle = self._min_cache
            if handle is None:
                handle = self.peek()
            key = handle.key
            if key > limit_key:
                break
            # Inlined unlink of the cached minimum (cf. remove).
            self._min_cache = None
            self._count -= 1
            bucket = handle._bucket
            handle._bucket = None
            if type(bucket) is _Bucket:
                entries = bucket.entries
                entries.remove(handle)
                if not entries:
                    self._occupied[bucket.level] &= ~(1 << bucket.idx)
            else:
                bucket.remove((key, handle))
            if merge:
                insort(out, (key, handle))
            else:
                out.append((key, handle))
            moved += 1
        return moved

    def _wheel_min(self) -> Optional["PeriodicHandle"]:
        """Earliest entry held in the wheel proper, cascading as needed."""
        while True:
            occ0 = self._occupied[0]
            if occ0:
                cursor = (self._time >> _BASE_SHIFT) & _SLOT_MASK
                ahead = occ0 >> cursor
                if ahead:
                    idx = cursor + ((ahead & -ahead).bit_length() - 1)
                    entries = self._slots[0][idx].entries
                    if len(entries) == 1:
                        return entries[0]
                    return min(entries, key=_key_of)
            if not self._cascade():
                return None

    def _cascade(self) -> bool:
        """Advance the cursor to the next occupied higher-level slot and
        re-file that slot's entries one level down.  Returns False when
        the wheel proper is empty."""
        for level in range(1, _LEVELS):
            occ = self._occupied[level]
            if not occ:
                continue
            # Occupied slots at levels >= 1 always sit strictly ahead
            # of the cursor slot (same-slab entries live lower), so the
            # lowest set bit is the next one to expire.
            idx = (occ & -occ).bit_length() - 1
            shift = _BASE_SHIFT + _FAN_SHIFT * level
            slab = (self._time >> (shift + _FAN_SHIFT)) << (shift + _FAN_SHIFT)
            self._time = slab | (idx << shift)
            bucket = self._slots[level][idx]
            pending = bucket.entries
            bucket.entries = []
            self._occupied[level] = occ & ~(1 << idx)
            for handle in pending:
                self._file(handle)
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def handles(self) -> Iterator["PeriodicHandle"]:
        """Every live entry, in no particular order (teardown aid)."""
        for level in self._slots:
            for bucket in level:
                yield from bucket.entries
        for _, handle in self._near:
            yield handle
        for _, handle in self._far:
            yield handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimerWheel n={self._count} t={self._time}>"
