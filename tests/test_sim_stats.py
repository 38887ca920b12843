"""Unit tests for statistics collectors, including hypothesis properties."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import Histogram, Tally


def test_tally_basic():
    t = Tally()
    for v in (2, 4, 6):
        t.add(v)
    assert t.n == 3
    assert t.total == 12
    assert t.mean == pytest.approx(4.0)
    assert t.min == 2 and t.max == 6


def test_tally_empty_is_safe():
    t = Tally()
    assert t.mean == 0.0
    assert t.min is None and t.max is None


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_tally_matches_direct_computation(values):
    t = Tally()
    for v in values:
        t.add(v)
    mean = sum(values) / len(values)
    assert t.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
    assert t.min == min(values)
    assert t.max == max(values)


@given(st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
                min_size=0, max_size=50),
       st.lists(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
                min_size=0, max_size=50))
def test_tally_merge_equals_combined(a_values, b_values):
    a, b, c = Tally(), Tally(), Tally()
    for v in a_values:
        a.add(v)
        c.add(v)
    for v in b_values:
        b.add(v)
        c.add(v)
    a.merge(b)
    assert a.n == c.n
    assert a.mean == pytest.approx(c.mean, rel=1e-9, abs=1e-6)
    assert (a.min, a.max) == (c.min, c.max)


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _within_bucket_error(got, exact):
    # 1/128 relative, plus a few ulps for the float comparison itself.
    return abs(got - exact) <= exact / 128 * (1 + 1e-12)


def test_histogram_binning():
    """Every value lands in a bucket whose midpoint is within 1/128 of
    it, at any scale, with no range chosen up front."""
    for v in (1e-9, 3e-3, 0.25, 1.0, 5.0, 95.0, 1023.0, 7e12):
        h = Histogram("one")
        for sample in (v / 4, v, 4 * v):  # the clamp to min..max stays off
            h.add(sample)
        assert _within_bucket_error(h.percentile(0.5), v)
        assert h.n == 3
    h = Histogram("zero")
    h.add(0.0)
    assert h.percentile(0.5) == 0.0


def test_histogram_percentile():
    h = Histogram("lat")
    for v in range(100):
        h.add(v)
    assert _within_bucket_error(h.percentile(0.5), 49)
    assert h.percentile(0.0) == 0.0
    assert h.percentile(1.0) == 99


def test_histogram_validation():
    h = Histogram("p")
    with pytest.raises(ValueError):
        h.percentile(1.5)
    with pytest.raises(ValueError, match="non-negative"):
        h.add(-1.0)


def test_percentile_skips_empty_leading_bins():
    h = Histogram("lat")
    for _ in range(5):
        h.add(75)
    assert h.percentile(0.0) == pytest.approx(75.0)
    assert h.percentile(0.5) == pytest.approx(75.0)
    assert h.percentile(1.0) == pytest.approx(75.0)


_QS = (0.0, 0.01, 0.5, 0.9, 0.99, 1.0)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
                      allow_infinity=False)


@given(st.lists(_POSITIVE, min_size=1, max_size=300),
       st.lists(_POSITIVE, min_size=0, max_size=100))
def test_histogram_quantiles_are_true(values, more):
    h = Histogram("lat")
    for v in values:
        h.add(v)
    for q in _QS:
        exact = _nearest_rank(values, q)
        assert _within_bucket_error(h.percentile(q), exact), (q, exact)
    assert h.percentile(0.5) <= h.percentile(0.99) <= max(values)
    assert h.tally.max == max(values)

    # merge == one histogram fed both streams.
    other, both = Histogram("more"), Histogram("both")
    for v in more:
        other.add(v)
    for v in values + more:
        both.add(v)
    h.merge(other)
    assert h.counts == both.counts
    assert (h.n, h.tally.min, h.tally.max) == \
        (both.n, both.tally.min, both.tally.max)
    for q in _QS:
        assert h.percentile(q) == both.percentile(q)


def test_empty_histogram_reads_zero():
    h = Histogram("lat")
    assert h.n == 0
    for q in _QS:
        assert h.percentile(q) == 0.0
    h.merge(Histogram("also-empty"))
    assert h.percentile(0.5) == 0.0
