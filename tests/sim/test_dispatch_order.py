"""Dispatch order of the engine loop, checked against ``step()``.

``Simulator.run``/``run_until`` dispatch in windows: due wheel entries
are staged into a sorted run and one-shots fire in fused runs between
staged heads.  ``Simulator.step`` merges the heap head against the
wheel head one event at a time.  The oracle here is a ``step()``-driven
replay of ``run_until``: step while ``peek_time() <= t``, then set the
clock to ``t``.  Batching may only reorder bookkeeping, never
callbacks, so both must produce the identical ``(tag, now)`` history,
clock and ``events_fired`` -- on an adversarial fixed schedule and on
random ones.  The staged-run tests check that batching never hides
events from introspection.  The halt tests check that ``halt()`` stops
an advance right after the halting callback, on both dispatch paths,
and that resuming reproduces the unhalted ``(when, seq)`` history.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.engine import Simulator


def _step_until(sim, when):
    """The oracle for ``sim.run_until(when)``, one event at a time."""
    while True:
        nxt = sim.peek_time()
        if nxt is None or nxt > when:
            break
        sim.step()
    sim.now = max(sim.now, when)


def _step_drain(sim):
    """The oracle for ``sim.run()``."""
    while sim.step():
        pass


def _resume_until(sim, when, stops):
    """``run_until(when)``, resumed after every halt; logs the stops.

    A halt can land on ``when`` itself with more events still due
    there, so "halted" is "clock short of *when* or an event due by
    it", not the clock alone.
    """
    sim.run_until(when)
    while sim.now < when or _due_by(sim, when):
        stops.append(sim.now)
        sim.run_until(when)


def _due_by(sim, when):
    nxt = sim.peek_time()
    return nxt is not None and nxt <= when


def _resume_drain(sim):
    sim.run()
    while sim.peek_time() is not None:
        sim.run()


def _trace_schedule(sim, log):
    """An adversarial mixed schedule; appends (tag, now) to *log*.

    Returns the list of periodic handles (grown when callbacks arm
    more) so callers can cancel the streams and drain.
    """
    periodics = []

    def note(tag):
        return lambda: log.append((tag, sim.now))

    # One-shots colliding with periodic fires at t=100, 200, 300.
    periodics.append(sim.periodic(100, note("p100"), label="p100"))
    sim.at(100, note("a@100"))
    sim.at(200, note("a@200"))
    q = sim.periodic(150, note("p150"), label="p150")
    periodics.append(q)

    # A callback that schedules more work inside the window.
    def chain():
        log.append(("chain", sim.now))
        sim.after(5, note("chained+5"))
        sim.after(175, note("chained+175"))
    sim.at(120, chain)

    # A callback that cancels a staged-later periodic mid-run.
    def killer():
        log.append(("killer", sim.now))
        q.cancel()
    sim.at(290, killer)

    # A callback that arms a *new* periodic (boundary invalidation).
    def armer():
        log.append(("armer", sim.now))
        periodics.append(sim.periodic(7, note("late-p7"), label="late-p7"))
    sim.at(301, armer)

    # Cancelled one-shot noise (lazy deletion must skip these).
    doomed = [sim.after(140 + i, note("doomed")) for i in range(20)]
    for handle in doomed:
        handle.cancel()
    return periodics


_MARKS = (99, 100, 101, 149, 290, 300, 455)


def _trace_history(advance, drain):
    sim = Simulator(seed=7)
    log = []
    periodics = _trace_schedule(sim, log)
    for t in _MARKS:
        advance(sim, t)
        log.append(("mark", sim.now, sim.events_fired, sim.events_pending))
    # Cancel the free-running streams so the drain terminates.
    for handle in periodics:
        handle.cancel()
    drain(sim)
    return log, sim.now, sim.events_fired


class TestStepOracle:
    """run/run_until against the step()-driven replay."""

    def test_run_until_matches_step_replay(self):
        batched = _trace_history(Simulator.run_until, Simulator.run)
        oracle = _trace_history(_step_until, _step_drain)
        assert batched == oracle
        log = batched[0]
        # The schedule reaches every adversarial case it was built for.
        tags = {entry[0] for entry in log}
        assert {"chained+5", "killer", "armer", "late-p7"} <= tags
        assert "doomed" not in tags

    def test_step_run_stops_where_run_until_does(self):
        histories = []
        for advance in (Simulator.run_until, _step_until):
            sim = Simulator(seed=7)
            log = []
            _trace_schedule(sim, log)
            advance(sim, 500)
            histories.append((log, sim.now, sim.events_fired))
        assert histories[0] == histories[1]


# --- random schedules ---------------------------------------------------

_ACTION = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("after"), st.integers(0, 60)),
    st.tuples(st.just("cancel_oneshot"), st.integers(0, 31)),
    st.tuples(st.just("cancel_periodic"), st.integers(0, 31)),
    st.tuples(st.just("set_period"), st.integers(0, 31), st.integers(2, 50)),
    st.tuples(st.just("arm"), st.integers(0, 40), st.integers(2, 50)),
)


def _plan(action):
    return st.fixed_dictionaries({
        # (first fire, period, fire number that acts, action)
        "periodics": st.lists(st.tuples(st.integers(0, 100),
                                        st.integers(2, 60),
                                        st.integers(1, 5), action),
                              max_size=4),
        "oneshots": st.lists(st.tuples(st.integers(0, 400), action),
                             max_size=20),
        "marks": st.lists(st.integers(0, 500), max_size=6).map(sorted),
    })


_PLAN = _plan(_ACTION)
_HALTING_PLAN = _plan(st.one_of(_ACTION, st.tuples(st.just("halt"))))


class _Program:
    """Interprets a plan on one simulator, logging every callback."""

    def __init__(self, sim, plan):
        self.sim = sim
        self.log = []
        self.oneshots = []
        self.periodics = []
        for first, period, acts_on, action in plan["periodics"]:
            self._arm(period, acts_on, action, first_at=first)
        for t, action in plan["oneshots"]:
            tag = f"o{len(self.oneshots)}"
            self.oneshots.append(sim.at(t, self._oneshot(tag, action)))

    def _oneshot(self, tag, action):
        def fire():
            self.log.append((tag, self.sim.now))
            self._act(action)
        return fire

    def _arm(self, period, acts_on, action, limit=None, **first):
        index = len(self.periodics)
        tag = f"p{index}"
        fires = [0]

        def fire():
            fires[0] += 1
            self.log.append((tag, self.sim.now))
            if fires[0] == acts_on:
                self._act(action)
            if fires[0] == limit:
                self.periodics[index].cancel()
        self.periodics.append(self.sim.periodic(period, fire, **first))

    def _act(self, action):
        kind = action[0]
        if kind == "after":
            tag = f"o{len(self.oneshots)}"
            self.oneshots.append(
                self.sim.after(action[1], self._oneshot(tag, ("none",))))
        elif kind == "cancel_oneshot" and self.oneshots:
            self.oneshots[action[1] % len(self.oneshots)].cancel()
        elif kind == "cancel_periodic" and self.periodics:
            self.periodics[action[1] % len(self.periodics)].cancel()
        elif kind == "set_period" and self.periodics:
            self.periodics[action[1] % len(self.periodics)].set_period(
                action[2])
        elif kind == "arm":
            # Self-limiting, so a stream armed during the final drain
            # cannot keep it running forever.
            self._arm(action[2], 0, ("none",), limit=6,
                      first_delay=action[1])
        elif kind == "halt":
            self.sim.halt()

    def history(self, marks, advance, drain):
        sim = self.sim
        for t in marks:
            advance(sim, t)
            self.log.append(("mark", sim.now, sim.events_fired,
                             sim.events_pending, sim.peek_time()))
        for handle in self.periodics:
            handle.cancel()
        drain(sim)
        return self.log, sim.now, sim.events_fired


def _random_history(plan, advance, drain):
    program = _Program(Simulator(seed=3), plan)
    return program.history(plan["marks"], advance, drain)


class TestRandomSchedules:
    @settings(max_examples=120, deadline=None)
    @given(_PLAN)
    def test_run_until_matches_step_replay(self, plan):
        batched = _random_history(plan, Simulator.run_until, Simulator.run)
        oracle = _random_history(plan, _step_until, _step_drain)
        assert batched == oracle

    @settings(max_examples=120, deadline=None)
    @given(_HALTING_PLAN)
    # A halt at a mark's own time, with a one-shot still due there.
    @example({"periodics": [(0, 2, 1, ("halt",))],
              "oneshots": [(0, ("none",))], "marks": [0]})
    def test_resumed_halts_match_step_replay(self, plan):
        stops = []
        halted = _random_history(
            plan, lambda sim, t: _resume_until(sim, t, stops),
            _resume_drain)
        oracle = _random_history(plan, _step_until, _step_drain)
        assert halted == oracle


# --- staged-run state ---------------------------------------------------

class TestStagedRunVisibility:
    """Batching must never hide events from introspection."""

    def _stage(self, sim):
        # Force entries onto the active run without firing them: extract
        # directly, as an exceptional exit from _advance would leave it.
        sim._wheel.extract_upto(((10_000 + 1) << 44) - 1, sim._active_run)

    def test_staged_events_stay_pending(self):
        sim = Simulator(seed=1)
        sim.periodic(1000, lambda: None, label="tick-a")
        sim.periodic(3000, lambda: None, label="tick-b")
        before = sim.events_pending
        self._stage(sim)
        assert sim._active_run  # staged, not yet dispatched
        assert sim.events_pending == before

    def test_staged_events_in_pending_summary(self):
        sim = Simulator(seed=1)
        sim.periodic(1000, lambda: None, label="tick-a")
        self._stage(sim)
        summary = sim.pending_summary()
        assert "tick-a" in summary
        assert "staged" in summary

    def test_peek_time_sees_staged_head(self):
        sim = Simulator(seed=1)
        sim.periodic(1000, lambda: None, label="tick-a")
        sim.at(50_000, lambda: None)
        self._stage(sim)
        assert sim.peek_time() == 1000

    def test_cancel_pending_clears_staged(self):
        sim = Simulator(seed=1)
        sim.periodic(1000, lambda: None, label="tick-a")
        self._stage(sim)
        assert sim.cancel_pending() >= 1
        assert sim.events_pending == 0
        assert not sim._active_run

    def test_unstage_refiles_staged_entries(self):
        sim = Simulator(seed=1)
        fired = []
        sim.periodic(1000, lambda: fired.append(sim.now), label="tick-a")
        self._stage(sim)
        sim._unstage()
        assert not sim._active_run
        assert sim._wheel._count == 1
        # The refiled stream must fire normally.
        sim.run_until(3500)
        assert fired == [1000, 2000, 3000]

    def test_step_after_staging_dispatches_in_order(self):
        sim = Simulator(seed=1)
        fired = []
        sim.periodic(1000, lambda: fired.append(("p", sim.now)))
        sim.at(500, lambda: fired.append(("a", sim.now)))
        self._stage(sim)
        assert sim.step()  # must unstage and fire the earliest event
        assert fired == [("a", 500)]


class TestBatchedBoundaries:
    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator(seed=1)
        sim.at(10, lambda: None)
        sim.run_until(1000)
        assert sim.now == 1000

    def test_events_always_fire_even_at_huge_times(self):
        sim = Simulator(seed=1)
        fired = []
        sim.at(1 << 60, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1 << 60]

    def test_exception_in_callback_leaves_consistent_state(self):
        sim = Simulator(seed=1)
        fired = []
        sim.periodic(100, lambda: fired.append(sim.now))

        def boom():
            raise RuntimeError("callback exploded")
        sim.at(250, boom)
        with pytest.raises(RuntimeError, match="callback exploded"):
            sim.run_until(1000)
        # Staged state must still be visible and recoverable.
        assert sim.events_pending >= 1
        sim.run_until(1000)
        assert fired == [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]


# --- halt ---------------------------------------------------------------

def _halting_schedule(sim, log):
    """The adversarial schedule plus one halt on each dispatch path.

    Callbacks log ``(tag, now, seq)``: the seq counter pins every seq
    drawn so far, so equal logs mean an equal ``(when, seq)`` history.
    """
    periodics = _trace_schedule(sim, log)

    def note(tag):
        return lambda: log.append((tag, sim.now, sim._seq))

    # Staged periodic: its third fire (t=135) halts.
    fires = [0]

    def p45():
        fires[0] += 1
        log.append(("p45", sim.now, sim._seq))
        if fires[0] == 3:
            sim.halt()
    periodics.append(sim.periodic(45, p45, label="p45"))
    sim.at(140, note("after-p45"))

    # Fused one-shot path.
    def halter():
        log.append(("halter", sim.now, sim._seq))
        sim.halt()
    sim.at(170, halter)

    # A one-shot that arms a periodic and halts in the same callback.
    def arm_and_halt():
        log.append(("arm-and-halt", sim.now, sim._seq))
        periodics.append(sim.periodic(11, note("p11"), label="p11"))
        sim.halt()
    sim.at(333, arm_and_halt)
    return periodics


def _halting_history(advance, drain):
    sim = Simulator(seed=7)
    log = []
    periodics = _halting_schedule(sim, log)
    for t in _MARKS:
        advance(sim, t)
        log.append(("mark", sim.now, sim.events_fired, sim.events_pending,
                    sim.peek_time()))
    for handle in periodics:
        handle.cancel()
    drain(sim)
    return log, sim.now, sim.events_fired, sim._seq


class TestHalt:
    def test_resumed_run_matches_step_replay(self):
        stops = []
        halted = _halting_history(
            lambda sim, t: _resume_until(sim, t, stops), _resume_drain)
        oracle = _halting_history(_step_until, _step_drain)
        assert halted == oracle
        # One stop per halting callback, each at that callback's time.
        assert stops == [135, 170, 333]
        tags = {entry[0] for entry in halted[0]}
        assert {"p45", "after-p45", "halter", "arm-and-halt", "p11"} <= tags

    def test_halt_from_oneshot_keeps_clock_at_event(self):
        sim = Simulator(seed=1)
        fired = []
        sim.periodic(100, lambda: fired.append(sim.now))
        sim.at(250, sim.halt)
        sim.at(260, lambda: fired.append(sim.now))
        sim.run_until(1000)
        assert sim.now == 250
        assert fired == [100, 200]
        assert sim.peek_time() == 260
        sim.run_until(1000)
        assert sim.now == 1000
        assert fired == [100, 200, 260] + list(range(300, 1001, 100))

    def test_halt_from_staged_periodic_keeps_staged_run(self):
        sim = Simulator(seed=1)
        fired = []

        def first():
            fired.append(("a", sim.now))
            sim.halt()
        a = sim.periodic(100, first, label="tick-a")
        sim.periodic(150, lambda: fired.append(("b", sim.now)),
                     label="tick-b")
        sim.at(120, lambda: fired.append(("o", sim.now)))
        sim.run_until(1000)
        assert sim.now == 100
        assert fired == [("a", 100)]
        # The re-armed tick-a (200) and tick-b (150) are still staged.
        assert sim._active_run
        assert sim.peek_time() == 120
        assert sim.events_pending == 3
        summary = sim.pending_summary()
        assert "tick-a" in summary and "tick-b" in summary
        assert "staged" in summary
        a.cancel()
        sim.run_until(400)
        assert sim.now == 400
        assert fired == [("a", 100), ("o", 120), ("b", 150), ("b", 300)]

    def test_halt_from_callback_that_arms_a_periodic(self):
        sim = Simulator(seed=1)
        fired = []

        def arm():
            sim.periodic(10, lambda: fired.append(sim.now), label="new")
            sim.halt()
        sim.at(50, arm)
        sim.run_until(100)
        assert sim.now == 50
        assert fired == []
        assert sim.peek_time() == 60
        assert "new" in sim.pending_summary()
        sim.run_until(100)
        assert fired == [60, 70, 80, 90, 100]

    def test_halt_outside_an_advance_is_ignored(self):
        sim = Simulator(seed=1)
        fired = []
        sim.at(10, lambda: fired.append(sim.now))
        sim.halt()
        sim.run_until(100)
        assert sim.now == 100
        assert fired == [10]

    def test_run_returns_at_halt(self):
        sim = Simulator(seed=1)
        fired = []
        sim.at(10, sim.halt)
        sim.at(20, lambda: fired.append(sim.now))
        sim.run()
        assert sim.now == 10
        assert fired == []
        sim.run()
        assert fired == [20]
