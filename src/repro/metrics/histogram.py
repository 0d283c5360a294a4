"""Histograms matching the paper's figure style.

The interrupt-response figures are log-y histograms of sample counts
per latency bin; the summaries under them are cumulative bucket
tables.  :class:`Histogram` bins linearly (the determinism figures);
:class:`LogHistogram` uses logarithmic bin edges suited to latency
distributions spanning 10 us .. 100 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class BinCount:
    lo: float
    hi: float
    count: int


class Histogram:
    """Fixed-width linear histogram."""

    def __init__(self, lo: float, hi: float, nbins: int) -> None:
        if hi <= lo or nbins <= 0:
            raise ValueError("bad histogram parameters")
        self.lo = lo
        self.hi = hi
        self.nbins = nbins
        self.counts = np.zeros(nbins + 2, dtype=np.int64)  # +under/overflow

    def add(self, value: float) -> None:
        self.add_many((value,))

    def add_many(self, values: Sequence[float]) -> None:
        """Bin every value in one vectorised pass.

        The bin index is ``int((v - lo) / (hi - lo) * nbins)``, the
        same float64 arithmetic per element as a scalar loop; an index
        that rounds up to ``nbins`` lands in the overflow slot.
        """
        v = np.asarray(values)
        if v.size == 0:
            return
        if np.isnan(v).any():
            raise ValueError("cannot bin NaN")
        slot = np.empty(v.shape, dtype=np.int64)
        under = v < self.lo
        over = v >= self.hi
        inside = ~(under | over)
        slot[under] = 0
        slot[over] = self.nbins + 1
        idx = (v[inside] - self.lo) / (self.hi - self.lo) * self.nbins
        slot[inside] = 1 + idx.astype(np.int64)
        self.counts += np.bincount(slot.ravel(),
                                   minlength=self.nbins + 2)

    @property
    def underflow(self) -> int:
        return int(self.counts[0])

    @property
    def overflow(self) -> int:
        return int(self.counts[-1])

    def bins(self) -> List[BinCount]:
        width = (self.hi - self.lo) / self.nbins
        counts = self.counts[1:-1].tolist()
        return [BinCount(self.lo + i * width, self.lo + (i + 1) * width,
                         counts[i])
                for i in range(self.nbins)]

    def total(self) -> int:
        return int(self.counts.sum())

    def merge_from(self, other: "Histogram") -> None:
        """Add *other*'s counts bin-for-bin (identical binning only)."""
        if (other.lo, other.hi, other.nbins) != (self.lo, self.hi,
                                                 self.nbins):
            raise ValueError("cannot merge histograms with different bins")
        self.counts += other.counts


class LogHistogram:
    """Histogram with logarithmically spaced bin edges."""

    def __init__(self, lo: float, hi: float, bins_per_decade: int = 10) -> None:
        if lo <= 0 or hi <= lo:
            raise ValueError("log histogram needs 0 < lo < hi")
        self.lo = lo
        self.hi = hi
        decades = math.log10(hi / lo)
        self.nbins = max(1, int(math.ceil(decades * bins_per_decade)))
        self.edges = np.logspace(math.log10(lo), math.log10(hi),
                                 self.nbins + 1)
        self.counts = np.zeros(self.nbins + 2, dtype=np.int64)

    def add(self, value: float) -> None:
        self.add_many((value,))

    def add_many(self, values: Sequence[float]) -> None:
        """Bin every value with one ``searchsorted`` and one ``bincount``.

        A value in ``[lo, hi)`` goes to the bin whose left edge is the
        last one ``<=`` it, clamped to ``[0, nbins - 1]`` so that edge
        rounding in ``logspace`` never spills into under/overflow.
        """
        v = np.asarray(values)
        if v.size == 0:
            return
        idx = np.searchsorted(self.edges, v, side="right") - 1
        slot = 1 + np.clip(idx, 0, self.nbins - 1)
        slot[v < self.lo] = 0
        slot[v >= self.hi] = self.nbins + 1
        self.counts += np.bincount(slot.ravel(),
                                   minlength=self.nbins + 2)

    def bins(self) -> List[BinCount]:
        edges = self.edges.tolist()
        counts = self.counts[1:-1].tolist()
        return [BinCount(edges[i], edges[i + 1], counts[i])
                for i in range(self.nbins)]

    def total(self) -> int:
        return int(self.counts.sum())

    def merge_from(self, other: "LogHistogram") -> None:
        """Add *other*'s counts bin-for-bin (identical binning only)."""
        if (other.lo, other.hi, other.nbins) != (self.lo, self.hi,
                                                 self.nbins):
            raise ValueError("cannot merge histograms with different bins")
        self.counts += other.counts

    def render_ascii(self, width: int = 60, unit: str = "ms",
                     scale: float = 1e6) -> str:
        """Log-count bar chart, one line per occupied bin.

        *scale* divides raw (ns) bin edges into *unit*.
        """
        lines = []
        occupied = [(b.lo / scale, b.hi / scale, b.count)
                    for b in self.bins() if b.count > 0]
        if not occupied:
            return "(empty histogram)"
        max_log = max(math.log10(c + 1) for _lo, _hi, c in occupied)
        for lo, hi, count in occupied:
            bar = "#" * max(1, int(width * math.log10(count + 1) / max_log))
            lines.append(f"{lo:>10.3f}-{hi:<10.3f}{unit} |{bar} {count}")
        return "\n".join(lines)
