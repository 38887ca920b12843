"""Statistics collectors for the simulation.

Small, dependency-free accumulators in the style of CSIM's tables:
:class:`Tally` for per-sample statistics (running mean and extrema) and
:class:`Histogram` for distributions whose quantiles are read.
"""

from __future__ import annotations

import math
from typing import Optional


class Tally:
    """Online count / mean / extrema of a sample stream."""

    __slots__ = ("name", "n", "total", "_mean", "min", "max")

    def __init__(self, name: str = "tally") -> None:
        self.name = name
        self.n = 0
        self.total = 0.0
        self._mean = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        """Record one sample."""
        self.n += 1
        self.total += value
        # Welford's running mean: repro.explore.vectorized.welford_means
        # replays this arithmetic bit-for-bit.
        self._mean += (value - self._mean) / self.n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.n else 0.0

    def merge(self, other: "Tally") -> None:
        """Fold another tally into this one."""
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.total, self._mean = other.n, other.total, other._mean
            self.min, self.max = other.min, other.max
            return
        n = self.n + other.n
        self._mean += (other._mean - self._mean) * other.n / n
        self.total += other.total
        self.n = n
        self.min = min(self.min, other.min)  # type: ignore[type-var]
        self.max = max(self.max, other.max)  # type: ignore[type-var]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tally {self.name!r} n={self.n} mean={self.mean:.2f} "
                f"min={self.min} max={self.max}>")


#: Sub-buckets per power of two.  A bucket spans 1/64 of its octave, so
#: its midpoint is within 1/128 (relative) of every value in it.
_SUB = 64
#: Bucket key of the value 0, below every positive value's key.
_ZERO = -(1 << 31)


class Histogram:
    """Log-linear (HDR-style) histogram of non-negative values.

    Each power of two is split into 64 equal sub-buckets, counted
    sparsely, so no range is chosen up front and a quantile is within
    1/128 relative of the exact one at any scale.
    """

    __slots__ = ("name", "counts", "tally")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Sample count per bucket key (see :func:`_bucket`).
        self.counts: dict[int, int] = {}
        self.tally = Tally(f"{name}.tally")

    def add(self, value: float) -> None:
        """Record one sample."""
        if value < 0:
            raise ValueError(f"histogram {self.name!r} takes non-negative "
                             f"values, got {value}")
        self.tally.add(value)
        key = _bucket(value)
        self.counts[key] = self.counts.get(key, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Add another histogram's samples to this one."""
        for key, count in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + count
        self.tally.merge(other.tally)

    @property
    def n(self) -> int:
        """Total samples recorded."""
        return self.tally.n

    def percentile(self, q: float) -> float:
        """Nearest-rank q-quantile (0..1): the midpoint of the bucket
        holding the rank-``ceil(q * n)`` sample, clamped to the recorded
        min and max (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.n))
        seen = 0
        for key in sorted(self.counts):
            seen += self.counts[key]
            if seen >= rank:
                break
        return min(max(_midpoint(key), self.tally.min), self.tally.max)


def _bucket(value: float) -> int:
    """Bucket key of ``value``: octave exponent and sub-bucket, ordered
    like the values."""
    if value == 0:
        return _ZERO
    mantissa, exponent = math.frexp(value)       # mantissa in [0.5, 1)
    return exponent * _SUB + int((mantissa - 0.5) * 2 * _SUB)


def _midpoint(key: int) -> float:
    if key == _ZERO:
        return 0.0
    exponent, sub = divmod(key, _SUB)
    return math.ldexp(0.5 + (sub + 0.5) / (2 * _SUB), exponent)
