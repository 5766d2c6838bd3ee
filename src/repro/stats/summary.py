"""Summary statistics: percentiles, means, CDFs.

Plain-Python implementations over lists, using the standard
nearest-rank percentile definition.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile_sorted(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an *already sorted* sequence.

    The sort is the expensive part of a percentile query; callers that
    cache a sorted sample (e.g. ``LoadResult``, whose sample is an
    ndarray) use this entry point to answer many percentile queries off
    one sort.
    """
    if len(ordered) == 0:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction out of range: {fraction}")
    if fraction == 0.0:
        return ordered[0]
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, rank - 1)]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; ``fraction`` in [0, 1]."""
    return percentile_sorted(sorted(values), fraction)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """The empirical CDF as (value, cumulative fraction) steps."""
    if not values:
        return []
    ordered = sorted(values)
    total = len(ordered)
    points: List[Tuple[float, float]] = []
    for index, value in enumerate(ordered, start=1):
        if points and points[-1][0] == value:
            points[-1] = (value, index / total)
        else:
            points.append((value, index / total))
    return points


class Distribution:
    """An accumulating sample with summary accessors."""

    def __init__(self, values: Iterable[float] = ()):
        self._values: List[float] = list(values)

    def add(self, value: float) -> None:
        self._values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self._values.extend(values)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError("mean of empty distribution")
        return sum(self._values) / len(self._values)

    @property
    def minimum(self) -> float:
        return min(self._values)

    @property
    def maximum(self) -> float:
        return max(self._values)

    def p(self, fraction: float) -> float:
        return percentile(self._values, fraction)

    @property
    def p50(self) -> float:
        return self.p(0.50)

    @property
    def p90(self) -> float:
        return self.p(0.90)

    @property
    def p99(self) -> float:
        return self.p(0.99)

    def cdf(self) -> List[Tuple[float, float]]:
        return cdf_points(self._values)

    def histogram(self, bins: int = 10) -> List[Tuple[float, float, int]]:
        """Equal-width histogram: (bin_lo, bin_hi, count) triples.

        The final bin's upper edge is inclusive so the maximum lands in
        the last bucket.
        """
        if bins <= 0:
            raise ValueError(f"bins must be positive, got {bins!r}")
        if not self._values:
            return []
        lo, hi = self.minimum, self.maximum
        if lo == hi:
            return [(lo, hi, len(self._values))]
        width = (hi - lo) / bins
        counts = [0] * bins
        for value in self._values:
            index = min(bins - 1, int((value - lo) / width))
            counts[index] += 1
        return [
            (lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)
        ]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(len(self._values)),
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "min": self.minimum,
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        if not self._values:
            return "<Distribution empty>"
        return f"<Distribution n={len(self)} p50={self.p50:.3g} mean={self.mean:.3g}>"
