from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordensity.dyadics import (
    RatInterval,
    dyadic_of_rank,
    dyadic_rank,
    format_fraction,
    is_dyadic,
    least_dyadic_parts,
)

F = Fraction


def least_dyadic_in(lo, hi):
    """The least dyadic between two Fractions, over their common denominator."""
    scale = lo.denominator * hi.denominator
    parts = least_dyadic_parts(lo.numerator * hi.denominator, hi.numerator * lo.denominator, scale)
    return F(parts[0], 1 << parts[1])


def test_is_dyadic():
    assert is_dyadic(F(3, 8))
    assert is_dyadic(F(1))
    assert not is_dyadic(F(1, 3))


def test_rank_order_start():
    expected = [F(1, 2), F(1, 4), F(3, 4), F(1, 8), F(3, 8), F(5, 8), F(7, 8)]
    assert [dyadic_of_rank(r) for r in range(7)] == expected
    for r, q in enumerate(expected):
        assert dyadic_rank(q) == r


@given(st.integers(0, 2000))
def test_rank_round_trip(rank):
    assert dyadic_rank(dyadic_of_rank(rank)) == rank


def test_rank_order_rejects_non_members():
    assert dyadic_rank(F(3, 4)) == 2
    for outside in (F(1, 3), F(0), F(1), F(5, 4), F(-1, 2)):
        with pytest.raises(ValueError):
            dyadic_rank(outside)


def test_least_dyadic_examples():
    assert least_dyadic_in(F(7, 24), F(2, 3)) == F(1, 2)
    assert least_dyadic_in(F(-1, 6), F(5, 6)) == F(1, 2)
    assert least_dyadic_in(F(3, 5), F(7, 10)) == F(5, 8)


def test_least_dyadic_empty_interval():
    with pytest.raises(ValueError):
        least_dyadic_in(F(2, 3), F(1, 3))


@given(
    st.fractions(min_value=-1, max_value=1, max_denominator=64),
    st.fractions(min_value=0, max_value=2, max_denominator=64),
)
def test_least_dyadic_is_rank_minimal(lo, hi):
    if max(lo, F(0)) >= min(hi, F(1)):
        return
    best = least_dyadic_in(lo, hi)
    assert lo < best < hi
    rank = dyadic_rank(best)
    for r in range(rank):
        other = dyadic_of_rank(r)
        assert not (lo < other < hi)


def test_interval_basics():
    box = RatInterval(F(1, 4), F(3, 4))
    assert box.width == F(1, 2)
    assert box.midpoint == F(1, 2)
    assert box.contains(F(1, 3))
    assert box.reflect() == box
    assert (box + RatInterval.point(F(1, 4))).lo == F(1, 2)
    with pytest.raises(ValueError):
        RatInterval(F(1), F(0))


def test_interval_intersects_is_closed_and_symmetric():
    box = RatInterval(F(1, 4), F(3, 4))
    for other, meets in ((RatInterval(F(1, 2), F(2)), True),
                         (RatInterval(F(3, 4), F(1)), True),   # a shared endpoint
                         (RatInterval.point(F(1, 4)), True),
                         (RatInterval(F(0), F(1)), True),      # containing the box
                         (RatInterval(F(0), F(1, 5)), False),
                         (RatInterval(F(4, 5), F(1)), False)):
        assert box.intersects(other) == meets, other
        assert other.intersects(box) == meets, other


def test_point_intervals_with_equal_or_identical_endpoints():
    # A point interval may share one endpoint object or hold two equal
    # ones; either way it is a point, and only a reversed pair is empty.
    third = F(1, 3)
    for interval in (RatInterval.point(third), RatInterval(third, third),
                     RatInterval(F(1, 3), F(2, 6))):
        assert interval.is_point()
        assert interval.width == 0
        assert interval.contains(third)
    with pytest.raises(ValueError, match="empty interval"):
        RatInterval(F(1, 3), F(1, 4))


def test_fraction_io():
    assert format_fraction(F(5, 8)) == "5/8"
    assert format_fraction(F(3)) == "3"
    assert format_fraction(F(-1, 3)) == "-1/3"
