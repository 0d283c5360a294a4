"""Unit and property tests for the histograms."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.metrics.histogram import Histogram, LogHistogram


class TestLinearHistogram:
    def test_basic_binning(self):
        h = Histogram(0, 10, 10)
        for v in (0.5, 1.5, 1.7, 9.9):
            h.add(v)
        bins = h.bins()
        assert bins[0].count == 1
        assert bins[1].count == 2
        assert bins[9].count == 1

    def test_under_overflow(self):
        h = Histogram(0, 10, 5)
        h.add(-1)
        h.add(10)
        h.add(100)
        assert h.underflow == 1
        assert h.overflow == 2

    def test_total(self):
        h = Histogram(0, 10, 5)
        h.add_many([1, 2, 3, -5, 50])
        assert h.total() == 5

    def test_bad_params(self):
        with pytest.raises(ValueError):
            Histogram(10, 0, 5)
        with pytest.raises(ValueError):
            Histogram(0, 10, 0)

    @given(values=st.lists(st.floats(-100, 100, allow_nan=False),
                           max_size=200))
    def test_counts_conserved(self, values):
        h = Histogram(0, 50, 7)
        h.add_many(values)
        assert h.total() == len(values)


class TestLogHistogram:
    def test_bins_span_range(self):
        h = LogHistogram(1.0, 1000.0, bins_per_decade=10)
        assert h.nbins == 30
        assert h.edges[0] == pytest.approx(1.0)
        assert h.edges[-1] == pytest.approx(1000.0)

    def test_values_land_in_bracketing_bin(self):
        h = LogHistogram(1.0, 1000.0)
        h.add(50.0)
        occupied = [b for b in h.bins() if b.count]
        assert len(occupied) == 1
        assert occupied[0].lo <= 50.0 < occupied[0].hi

    def test_under_overflow(self):
        h = LogHistogram(10.0, 100.0)
        h.add(5.0)
        h.add(100.0)
        assert h.counts[0] == 1
        assert h.counts[-1] == 1

    def test_requires_positive_range(self):
        with pytest.raises(ValueError):
            LogHistogram(0.0, 10.0)
        with pytest.raises(ValueError):
            LogHistogram(10.0, 10.0)

    def test_render_ascii(self):
        h = LogHistogram(1_000.0, 100_000_000.0)  # 1 us .. 100 ms in ns
        h.add_many([15_000.0] * 100 + [50_000_000.0])
        art = h.render_ascii(unit="ms", scale=1e6)
        lines = art.splitlines()
        assert len(lines) == 2
        assert "100" in art

    def test_render_empty(self):
        h = LogHistogram(1.0, 10.0)
        assert h.render_ascii() == "(empty histogram)"

    @given(values=st.lists(st.floats(0.1, 10**6, allow_nan=False),
                           max_size=300))
    def test_counts_conserved(self, values):
        h = LogHistogram(1.0, 10**5, bins_per_decade=5)
        h.add_many(values)
        assert h.total() == len(values)

    @given(value=st.floats(1.0, 9.99e4, allow_nan=False))
    def test_single_value_bracketing(self, value):
        h = LogHistogram(1.0, 1e5)
        h.add(value)
        occupied = [b for b in h.bins() if b.count]
        assert len(occupied) == 1
        assert occupied[0].lo <= value
        assert value < occupied[0].hi or value == pytest.approx(occupied[0].hi)


# ----------------------------------------------------------------------
# Vectorised add_many against the scalar loop it replaced
# ----------------------------------------------------------------------
def reference_linear_counts(h, values):
    """The original one-sample-at-a-time linear binning."""
    counts = np.zeros(h.nbins + 2, dtype=np.int64)
    for value in values:
        if value < h.lo:
            counts[0] += 1
        elif value >= h.hi:
            counts[-1] += 1
        else:
            idx = int((value - h.lo) / (h.hi - h.lo) * h.nbins)
            counts[1 + idx] += 1
    return counts


def reference_log_counts(h, values):
    """The original one-sample-at-a-time log binning."""
    counts = np.zeros(h.nbins + 2, dtype=np.int64)
    for value in values:
        if value < h.lo:
            counts[0] += 1
        elif value >= h.hi:
            counts[-1] += 1
        else:
            idx = int(np.searchsorted(h.edges, value, side="right")) - 1
            idx = min(max(idx, 0), h.nbins - 1)
            counts[1 + idx] += 1
    return counts


def as_container(values, kind):
    if kind == "list":
        return list(values)
    if kind == "int64":
        return np.asarray(values, dtype=np.int64)
    return np.asarray(values, dtype=np.float64)


LOG_LO, LOG_HI = 1_000.0, 100_000_000.0


def log_edge_values():
    """Values on, just below and just above every log bin edge."""
    edges = LogHistogram(LOG_LO, LOG_HI).edges
    return st.sampled_from(
        [float(e) for e in edges]
        + [float(np.nextafter(e, 0)) for e in edges]
        + [float(np.nextafter(e, np.inf)) for e in edges])


log_values = st.one_of(
    log_edge_values(),
    st.floats(0.0, 2 * LOG_HI, allow_nan=False),
    st.floats(-1e3, LOG_LO),                # below lo
    st.floats(LOG_HI, 1e12),                # at or above hi
)


class TestVectorisedMatchesScalar:
    @given(values=st.lists(log_values, max_size=200),
           kind=st.sampled_from(["list", "float64"]))
    def test_log_floats(self, values, kind):
        h = LogHistogram(LOG_LO, LOG_HI)
        h.add_many(as_container(values, kind))
        assert h.counts.tolist() == reference_log_counts(h, values).tolist()

    @given(values=st.lists(st.integers(-10, 2 * 10**8), max_size=200),
           kind=st.sampled_from(["list", "int64", "float64"]))
    def test_log_integers(self, values, kind):
        h = LogHistogram(LOG_LO, LOG_HI)
        h.add_many(as_container(values, kind))
        assert h.counts.tolist() == reference_log_counts(h, values).tolist()

    def test_log_exact_edges(self):
        h = LogHistogram(LOG_LO, LOG_HI)
        values = h.edges.tolist()
        h.add_many(values)
        assert h.counts.tolist() == reference_log_counts(h, values).tolist()
        assert h.counts[-1] == 1  # the last edge is hi itself

    def test_log_last_edge_rounded_below_hi(self):
        # logspace puts the last edge a hair below hi here, so a value
        # in [edges[-1], hi) must be clamped into the last bin.
        h = LogHistogram(0.3, 9.7)
        value = float(h.edges[-1])
        assert value < h.hi
        h.add_many([value, h.lo, h.edges[0]])
        assert h.counts.tolist() == \
            reference_log_counts(h, [value, h.lo, h.edges[0]]).tolist()
        assert h.counts[h.nbins] == 1

    @given(values=st.lists(st.floats(-50, 150, allow_nan=False),
                           max_size=200),
           lo=st.floats(-10, 10), width=st.floats(1e-3, 100),
           nbins=st.integers(1, 64),
           kind=st.sampled_from(["list", "float64"]))
    def test_linear_floats(self, values, lo, width, nbins, kind):
        h = Histogram(lo, lo + width, nbins)
        h.add_many(as_container(values, kind))
        assert h.counts.tolist() == \
            reference_linear_counts(h, values).tolist()

    @given(values=st.lists(st.integers(-100, 100), max_size=200),
           nbins=st.integers(1, 30),
           kind=st.sampled_from(["list", "int64", "float64"]))
    def test_linear_integers(self, values, nbins, kind):
        h = Histogram(0, 50, nbins)
        h.add_many(as_container(values, kind))
        assert h.counts.tolist() == \
            reference_linear_counts(h, values).tolist()

    def test_linear_index_rounding_up_to_nbins(self):
        # Just below hi, (v - lo) / (hi - lo) * nbins rounds to nbins
        # exactly, so the sample lands in the overflow slot.
        lo, hi, nbins = 0.3, 1.0, 3
        value = float(np.nextafter(hi, 0))
        assert int((value - lo) / (hi - lo) * nbins) == nbins
        h = Histogram(lo, hi, nbins)
        h.add_many([value])
        assert h.counts.tolist() == \
            reference_linear_counts(h, [value]).tolist()
        assert h.overflow == 1

    @pytest.mark.parametrize("kind", ["list", "int64", "float64"])
    def test_empty_input(self, kind):
        for h in (Histogram(0, 10, 5), LogHistogram(LOG_LO, LOG_HI)):
            h.add_many(as_container([], kind))
            assert h.total() == 0

    def test_add_is_add_many_of_one(self):
        one, many = LogHistogram(LOG_LO, LOG_HI), LogHistogram(LOG_LO,
                                                               LOG_HI)
        for value in (5.0, 1_500.0, 2e8):
            one.add(value)
        many.add_many([5.0, 1_500.0, 2e8])
        assert one.counts.tolist() == many.counts.tolist()

    def test_linear_nan_is_rejected(self):
        with pytest.raises(ValueError):
            Histogram(0, 10, 5).add_many([1.0, float("nan")])
