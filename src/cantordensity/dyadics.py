"""Exact rational arithmetic helpers: dyadics and rational intervals.

Everything in the package computes exactly: with ``fractions.Fraction``, or
on hot paths with integer numerators over a known scale (a dyadic as
(numerator, exponent), an interval as (lo, hi, scale)); floats never
appear. The dyadic rationals strictly between 0 and 1 carry a rank order
(coarser denominator first, then numerator) used whenever a construction
asks for a canonical dyadic inside an interval.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def is_dyadic(q: Fraction) -> bool:
    """True when the reduced denominator is a power of two."""
    d = q.denominator
    return d & (d - 1) == 0


def dyadic_exponent(q: Fraction) -> int:
    """Least n with q * 2^n an integer. Requires a dyadic argument."""
    if not is_dyadic(q):
        raise ValueError(f"not dyadic: {q}")
    return q.denominator.bit_length() - 1


def dyadic_rank(q: Fraction) -> int:
    """Position of a dyadic in (0,1) in the (exponent, numerator) order.

    1/2 has rank 0, then 1/4, 3/4, 1/8, 3/8, 5/8, 7/8, ...
    """
    if not (ZERO < q < ONE) or not is_dyadic(q):
        raise ValueError(f"not a dyadic in (0,1): {q}")
    n = dyadic_exponent(q)
    # 2^(n-1) - 1 dyadics have a coarser denominator; q's numerator is odd.
    return (1 << (n - 1)) - 1 + (q.numerator - 1) // 2


def dyadic_of_rank(rank: int) -> Fraction:
    if rank < 0:
        raise ValueError("rank must be non-negative")
    n = 1
    while rank >= (1 << (n - 1)):
        rank -= 1 << (n - 1)
        n += 1
    return Fraction(2 * rank + 1, 1 << n)


def clip_to_unit(lo: int, hi: int, scale: int) -> tuple[int, int]:
    """The numerators of the open interval (lo/scale; hi/scale), for a
    positive scale, clipped to the unit interval; raises when the
    clipped interval is empty and so holds no dyadic."""
    if lo < 0:
        lo = 0
    if hi > scale:
        hi = scale
    if lo >= hi:
        raise ValueError(
            f"no dyadic in empty interval ({Fraction(lo, scale)}, {Fraction(hi, scale)})"
        )
    return lo, hi


def least_dyadic_parts(lo: int, hi: int, scale: int) -> tuple[int, int]:
    """The rank-least dyadic of (0,1) inside the open interval
    (lo/scale; hi/scale), for a positive scale, as (numerator, exponent):
    odd over 2^exponent. Endpoints may stick out of the unit interval;
    raises when the clipped interval is empty."""
    lo, hi = clip_to_unit(lo, hi, scale)
    # At resolution 2^-bits the interval holds the integers low..high, at
    # least two since its width is at least 1/scale. The dyadic of least
    # exponent inside is the one of them with the most trailing zeros:
    # low itself when its bits below the first bit where low and high
    # differ are all 0, else high cut down to that bit.
    bits = scale.bit_length() + 1
    low = (lo << bits) // scale + 1
    high = ((hi << bits) - 1) // scale
    split = (low ^ high).bit_length()
    if low & ((1 << split) - 1) == 0:
        best = low
    else:
        best = high >> (split - 1) << (split - 1)
    zeros = (best & -best).bit_length() - 1
    return best >> zeros, bits - zeros


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with rational endpoints; the workhorse bound type."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo is not self.hi and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(value: Fraction) -> "RatInterval":
        return RatInterval(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi

    def intersects(self, other: "RatInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def reflect(self) -> "RatInterval":
        """The interval of 1 - x for x in self."""
        return RatInterval(1 - self.hi, 1 - self.lo)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


UNIT = RatInterval(ZERO, ONE)
EMPTY_MASS = RatInterval.point(ZERO)
FULL_MASS = RatInterval.point(ONE)


def format_fraction(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
    except ValueError:  # only from an integer with more digits than the interpreter prints
        raise ValueError(f"bounds too large to print: over {sys.get_int_max_str_digits()} digits") from None
