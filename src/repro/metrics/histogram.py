"""The one fixed-bin, mergeable histogram.

Every latency distribution in the repo -- the Figure 11 waiting-time
histograms, the telemetry registry's instruments, the cross-shard
merged view and the serving arena's per-class digests -- is a
:class:`Histogram`: integer bin index -> count over one fixed bin
width, plus an observation count and a running sum.  Raw samples are
never kept, so memory is O(distinct bins) however long the run, and two
histograms of one width merge exactly by adding bin counts -- the only
thing that crosses a shard barrier (frames carry bins, not samples).

Percentiles follow one nearest-rank rule over bins: the ``q``-th
percentile is the *upper edge* of the bin holding the observation of
rank ``max(1, ceil(q * n / 100))``.  It never under-reports a latency
bound, and two runs that fill identical bins report identical
quantiles.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = ["Histogram", "merge_states"]


class Histogram:
    """Fixed-width bin counts with a count and a running sum."""

    def __init__(self, bin_width: float) -> None:
        if bin_width <= 0:
            raise ReproError(f"bin width must be positive: {bin_width}")
        self.bin_width = bin_width
        self.count = 0
        #: Sum of the observations, added in record order from 0.0.
        self.total = 0.0
        #: bin index -> observations; index = floor(value / bin_width).
        self._bins: Dict[int, int] = {}

    def record(self, value: float) -> None:
        """Record one observation (must be non-negative)."""
        if value < 0:
            raise ReproError(f"histogram values must be non-negative: {value}")
        index = int(value // self.bin_width)
        self._bins[index] = self._bins.get(index, 0) + 1
        self.count += 1
        self.total += value

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s bins, count and sum into this histogram."""
        if other.bin_width != self.bin_width:
            raise ReproError(
                f"cannot merge bin width {other.bin_width:g} into "
                f"{self.bin_width:g}")
        for index, count in other._bins.items():
            self._bins[index] = self._bins.get(index, 0) + count
        self.count += other.count
        self.total += other.total

    def copy(self) -> "Histogram":
        """An independent histogram with the same bins, count and sum."""
        twin = Histogram(self.bin_width)
        twin.merge(self)
        return twin

    def since(self, earlier: Optional["Histogram"]) -> "Histogram":
        """Observations recorded after ``earlier``, a :meth:`copy` of
        this cumulative histogram (None: since the start)."""
        if earlier is None:
            return self.copy()
        window = Histogram(self.bin_width)
        for index, count in self._bins.items():
            delta = count - earlier._bins.get(index, 0)
            if delta > 0:
                window._bins[index] = delta
                window.count += delta
        window.total = self.total - earlier.total
        return window

    def bins(self) -> List[Tuple[float, float, int]]:
        """Sorted (bin_start, bin_end, count) triples, empty bins omitted."""
        width = self.bin_width
        return [(i * width, (i + 1) * width, self._bins[i])
                for i in sorted(self._bins)]

    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Upper edge of the bin holding the nearest-rank ``q``-th
        percentile (0 <= q <= 100); 0 when empty."""
        if not 0 <= q <= 100:
            raise ReproError(f"percentile must be in [0, 100]: {q}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count / 100))
        bins = self._bins
        seen = 0
        for index in sorted(bins):
            seen += bins[index]
            if seen >= rank:
                break
        return (index + 1) * self.bin_width

    def snapshot_state(self) -> Dict[str, Any]:
        """The registry shape: count, mean and ``[start, end, count]`` bins."""
        width, bins = self.bin_width, self._bins
        return {
            "count": self.count,
            "mean": self.mean(),
            "bins": [[i * width, (i + 1) * width, bins[i]]
                     for i in sorted(bins)],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram width={self.bin_width:g} n={self.count}>"


def merge_states(states: Sequence[Dict[str, Any]]) -> Histogram:
    """Fold :meth:`Histogram.snapshot_state` data, in order, into one.

    Shard frames carry bins but not the width, so it is read off the
    first bin's edges.  That is exact for binary-fraction widths (the
    probes use 5 ms); edges a recovered width would not reproduce bit
    for bit raise instead of drifting.  The merged mean is
    sum(mean * count) / sum(count), added in ``states`` order.
    """
    first = next((state["bins"][0] for state in states if state["bins"]),
                 (0.0, 1.0, 0))
    width = float(first[1]) - float(first[0])
    merged = Histogram(width)
    bins = merged._bins
    for state in states:
        for start, end, count in state["bins"]:
            index = round(start / width)
            if index * width != start or (index + 1) * width != end:
                raise ReproError(
                    f"bin [{start}, {end}) is off the {width:g} grid")
            bins[index] = bins.get(index, 0) + int(count)
        merged.count += int(state["count"])
        merged.total += float(state["mean"]) * int(state["count"])
    return merged
