"""Property tests for the block-prefetched RNG draw planes.

The contract under test: a :class:`repro.sim.rng.PlanedGenerator`
serves the *bit-identical* value sequence a fresh scalar-only
``numpy.random.Generator`` for the same stream would -- across plane
boundaries, through partial plane consumption (the rewind-and-replay
path), under interleaved access to multiple streams, and through the
``Choice`` inlined-CDF sampler and the kernel/mm cost samplers that
consume planes in production.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.mm import FaultModel
from repro.kernel.timing import Choice, Const, Exponential, LogNormal, Uniform
from repro.sim.rng import (
    PLANE_MAX,
    PLANE_START,
    PLANE_THRESHOLD,
    PlanedGenerator,
    RngStreams,
)


def _fresh_pair(seed: int = 1234):
    """A planed generator and an identically seeded raw generator."""
    planed = PlanedGenerator(np.random.Generator(np.random.PCG64(seed)))
    raw = np.random.Generator(np.random.PCG64(seed))
    return planed, raw


#: One scalar draw per supported plane method: (name, args).
_METHODS = [
    ("integers", (0, 7)),
    ("integers", (2_000, 9_001)),
    ("random", ()),
    ("uniform", (0.25, 3.5)),
    ("exponential", (5_000.0,)),
    ("lognormal", (3.0, 0.5)),
    ("normal", (10.0, 2.0)),
    ("poisson", (0.8,)),
]


@pytest.mark.parametrize("name,args", _METHODS)
def test_homogeneous_streak_identical_across_boundaries(name, args):
    """A long same-signature streak crosses the threshold, the first
    plane, and several doublings -- every value must match."""
    planed, raw = _fresh_pair()
    n = PLANE_THRESHOLD + PLANE_START * 8 + 3
    got = [getattr(planed, name)(*args) for _ in range(n)]
    want = [getattr(raw, name)(*args) for _ in range(n)]
    assert got == want


def test_partial_consumption_replay_is_exact():
    """Switching signatures mid-plane rewinds and replays: the draws
    after the switch must be what a scalar-only consumer sees."""
    planed, raw = _fresh_pair(77)
    seq = []
    ref = []
    # Streak long enough to have an active, part-consumed plane.
    for _ in range(PLANE_THRESHOLD + 3):
        seq.append(planed.integers(10, 1_000))
        ref.append(raw.integers(10, 1_000))
    # Abandon the plane for a different signature...
    for _ in range(3):
        seq.append(planed.random())
        ref.append(raw.random())
    # ...and come back; prediction now sizes planes from the last run.
    for _ in range(PLANE_THRESHOLD + 40):
        seq.append(planed.integers(10, 1_000))
        ref.append(raw.integers(10, 1_000))
    assert seq == ref


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=len(_METHODS) - 1),
                min_size=1, max_size=300),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_arbitrary_interleavings_bit_identical(pattern, seed):
    """Any draw pattern -- streaks, alternations, one-offs -- yields
    the scalar-equivalent sequence."""
    planed, raw = _fresh_pair(seed)
    for idx in pattern:
        name, args = _METHODS[idx]
        assert getattr(planed, name)(*args) == getattr(raw, name)(*args)
    # The underlying state must also land scalar-equivalent.
    assert planed.generator.bit_generator.state == raw.bit_generator.state


def test_interleaved_streams_stay_decoupled():
    """Planes are per-stream: heavy planed traffic on one stream must
    not move any other stream."""
    streams = RngStreams(9, planes=True)
    mirror = RngStreams(9, planes=False)
    a, b = streams.stream("alpha"), streams.stream("beta")
    ra, rb = mirror.stream("alpha"), mirror.stream("beta")
    got, want = [], []
    for i in range(500):
        if i % 7 == 3:
            got.append(b.exponential(100.0))
            want.append(rb.exponential(100.0))
        else:
            got.append(a.integers(0, 1_000_000))
            want.append(ra.integers(0, 1_000_000))
    assert got == want


def test_bulk_array_draws_sync_with_planes():
    """Explicit size= draws flush the plane and stay identical."""
    planed, raw = _fresh_pair(5)
    got, want = [], []
    for _ in range(PLANE_THRESHOLD + 6):
        got.append(planed.integers(0, 50))
        want.append(raw.integers(0, 50))
    got_arr = planed.integers(0, 50, size=100)
    want_arr = raw.integers(0, 50, size=100)
    assert got_arr.tolist() == want_arr.tolist()
    for _ in range(20):
        got.append(planed.integers(0, 50))
        want.append(raw.integers(0, 50))
    assert got == want


def test_getattr_fallthrough_syncs():
    """Un-planed Generator APIs (choice, shuffle, ...) observe the
    scalar-equivalent stream position."""
    planed, raw = _fresh_pair(11)
    for _ in range(PLANE_THRESHOLD + 10):
        planed.random()
        raw.random()
    assert planed.choice(10) == raw.choice(10)
    assert planed.random() == raw.random()


def test_choice_cdf_path_through_planes():
    """The Choice inlined-CDF sampler must keep reproducing
    ``Generator.choice``-compatible draws when fed a planed stream."""
    dist = Choice(options=(
        (0.5, Uniform(10, 100)),
        (0.3, Exponential(5_000, cap=50_000)),
        (0.2, LogNormal(2_000, 0.4, cap=100_000)),
    ))
    planed, raw = _fresh_pair(21)
    got = [dist.sample(planed) for _ in range(400)]
    want = [dist.sample(raw) for _ in range(400)]
    assert got == want


def test_kernel_cost_samplers_identical_on_planes():
    """The hot cost samplers of kernel/timing.py and kernel/mm.py
    consume draw planes without perturbing a single value."""
    uniform = Uniform(2_000, 9_000)
    expo = Exponential(7_500)
    fm = FaultModel()
    planed, raw = _fresh_pair(31)
    got, want = [], []
    for i in range(300):
        got.append(uniform.sample(planed))
        want.append(uniform.sample(raw))
        if i % 11 == 0:
            got.append(expo.sample(planed))
            want.append(expo.sample(raw))
        if i % 17 == 0:
            got.append(fm.sample_fault_count(3_000_000, planed))
            got.append(fm.sample_fault_cost(planed))
            got.append(fm.is_major(planed))
            want.append(fm.sample_fault_count(3_000_000, raw))
            want.append(fm.sample_fault_cost(raw))
            want.append(fm.is_major(raw))
    assert got == want


def test_const_dists_draw_nothing():
    """Const must not touch the stream (plane or not)."""
    planed, raw = _fresh_pair(41)
    c = Const(123)
    for _ in range(10):
        assert c.sample(planed) == 123
    assert planed.integers(0, 10 ** 9) == raw.integers(0, 10 ** 9)


def test_planes_flag_control():
    streams = RngStreams(1, planes=False)
    assert isinstance(streams.stream("x"), np.random.Generator)
    streams = RngStreams(1, planes=True)
    assert isinstance(streams.stream("x"), PlanedGenerator)
    assert isinstance(RngStreams(1).stream("x"), PlanedGenerator)


def test_raw_stream_accessor_is_synced():
    streams = RngStreams(4)
    s = streams.stream("dev")
    for _ in range(PLANE_THRESHOLD + 20):
        s.integers(0, 99)
    mirror = RngStreams(4, planes=False)
    m = mirror.stream("dev")
    for _ in range(PLANE_THRESHOLD + 20):
        m.integers(0, 99)
    assert (streams.raw_stream("dev").bit_generator.state
            == m.bit_generator.state)


def test_hopeless_pattern_drops_to_passthrough():
    """A stream that alternates signatures on every draw eventually
    stops streak-watching entirely -- and stays bit-identical through
    and after the transition."""
    planed, raw = _fresh_pair(61)
    got, want = [], []
    for i in range(1500):
        if i % 2:
            got.append(planed.random())
            want.append(raw.random())
        else:
            got.append(planed.integers(0, 1_000))
            want.append(raw.integers(0, 1_000))
    assert planed._direct, "alternating pattern should trip passthrough"
    assert got == want
    # Passthrough still serves every API shape correctly.
    assert planed.integers(5) == raw.integers(5)
    arr_got = planed.random(size=4)
    arr_want = raw.random(size=4)
    assert arr_got.tolist() == arr_want.tolist()
    assert planed.generator.bit_generator.state == raw.bit_generator.state


def test_plane_max_cap_respected():
    """Very long streaks keep doubling only up to PLANE_MAX and stay
    identical throughout."""
    planed, raw = _fresh_pair(51)
    n = PLANE_MAX * 2 + PLANE_THRESHOLD + 7
    for _ in range(n):
        assert planed.random() == raw.random()
