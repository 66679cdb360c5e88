"""Sets of prescribed measure whose density behavior is controlled everywhere.

The raw material is a pair of complementary cylinder families splitting
Cantor space (up to the single all-zeros point):

* behind each word 0^n 1^n (n >= 1) sits one third of the space,
* behind the words 0^n 1^m 0 (n > m > 0) together with the word (1,)
  sit the remaining two thirds.

Scaling pieces grafted behind the first family yields a set of any
prescribed measure r <= 1/3 whose localized measures along every branch
stay controlled: the piece behind 0^n 1^n has measure f(n), where f is
read off the base-4 digits of r. Larger measures take a clopen chunk
carved from the second family plus such a remainder set.

All oracles in this module are exact: localized measures come out as
point intervals at every budget, through closed-form digit and
geometric-series arithmetic rather than enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .branches import Branch, StretchedBranch
from .clopen import ClopenSet
from .dyadics import ONE, ZERO, RatInterval, is_dyadic, least_dyadic_parts
from .oracles import (
    EMPTY_SEGMENT,
    ClopenOracle,
    DisjointSumOracle,
    GraftedUnionOracle,
    MeasureOracle,
    SegmentOracle,
    SpinePrefixOracle,
    TailCertificate,
    entered_certificate,
)
from .words import Word

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def first_family_word(n: int) -> Word:
    """0^n 1^n, the n-th graft site (n >= 1)."""
    if n < 1:
        raise ValueError("graft sites are indexed from 1")
    return (0,) * n + (1,) * n


def second_family_words(max_length: int) -> list[Word]:
    """All words 0^n 1^m 0 (n > m > 0) up to the length bound, plus (1,)."""
    out: list[Word] = [(1,)]
    for n in range(2, max_length):
        for m in range(1, n):
            word = (0,) * n + (1,) * m + (0,)
            if len(word) <= max_length:
                out.append(word)
    return out


class SpongyMeasureOracle(MeasureOracle):
    """The set union over n >= 1 of 0^n 1^n ^ D(f(n)), measure r <= 1/3.

    f comes from the greedy base-4 digits d_1 d_2 ... of r: writing h
    for the first position with digit 0 (which exists for r < 1/3),
    f(n) = 1 for n < h and f(n) = d_(n+1)/4 from h on. At r = 1/3 the
    digits are all 1 and f is constantly 1. Tail sums collapse to
    digit-prefix arithmetic, so every localized measure is a closed
    form; nothing depends on the digit cycle length.
    """

    def __init__(self, measure: Fraction):
        if not (ZERO <= measure <= THIRD):
            raise ValueError(f"measure must be in [0, 1/3]: {measure}")
        self.measure = measure
        self.h = None if measure == THIRD else self._first_zero_digit()
        # Leading zeros read so far: child steps walk down the spine.
        self.zeros = 0

    def _digit(self, j: int) -> int:
        scaled = self.measure * (4**j)
        return int(scaled) - 4 * int(scaled / 4)

    def _first_zero_digit(self) -> int:
        j = 1
        while True:
            d = self._digit(j)
            if d == 0:
                return j
            if d != 1:
                raise AssertionError("digits of a value below 1/3 are 1s before the first 0")
            j += 1

    def piece_measure(self, n: int) -> Fraction:
        """f(n), the measure of the piece behind 0^n 1^n."""
        if n < 1:
            raise ValueError("pieces are indexed from 1")
        if self.h is None or n < self.h:
            return ONE
        return Fraction(self._digit(n + 1), 4)

    def tail_sum(self, m: int) -> Fraction:
        """Sum over n >= m of f(n) 4^-n, exactly (m >= 1)."""
        if m < 1:
            raise ValueError("the series starts at n = 1")
        if self.h is None:
            return Fraction(4, 3) * Fraction(1, 4**m)
        start = max(m, self.h)
        # Digits from position start+1 on are the base-4 tail of r.
        tail = self.measure - Fraction(int(self.measure * 4**start), 4**start)
        if m < self.h:
            tail += (Fraction(4, 4**m) - Fraction(4, 4**self.h)) / 3
        return tail

    def child(self, letter: int) -> MeasureOracle:
        if letter == 0:
            inner = object.__new__(SpongyMeasureOracle)
            inner.measure, inner.h, inner.zeros = self.measure, self.h, self.zeros + 1
            return inner
        n = self.zeros
        if n == 0:
            return EMPTY_SEGMENT
        # Past 0^n 1 only the graft at 0^n 1^n meets the cylinder.
        return GraftedUnionOracle([((1,) * (n - 1), SegmentOracle(self.piece_measure(n)))])

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        if not self.zeros:
            # tail_sum(1) is the whole series, leading 1-digits included.
            return RatInterval.point(self.measure)
        return RatInterval.point((1 << self.zeros) * self.tail_sum(self.zeros))

    def tail_certificate(self, point, effort: int) -> TailCertificate | None:
        # The certificates below read the point from the root.
        if isinstance(point, StretchedBranch) or self.zeros:
            return None
        if point.constant_tail() == (0, 0):
            start = max(1, effort - 20)
            bound = Fraction(4, 3) * Fraction(1, 1 << start)
            return TailCertificate(RatInterval(ZERO, min(bound, ONE)), start)
        first_one = 0
        while point.at(first_one) == 0:
            first_one += 1
        n = first_one
        if n == 0:
            return TailCertificate(RatInterval.point(ZERO), 1)
        for j in range(n + 1, 2 * n):
            if point.at(j) != 1:
                return TailCertificate(RatInterval.point(ZERO), j + 1)
        return entered_certificate(SegmentOracle(self.piece_measure(n)), point, 2 * n, effort)


@dataclass(frozen=True)
class DualisticSet:
    """A set of prescribed measure: a clopen chunk plus a spongy remainder."""

    measure: Fraction
    clopen_part: ClopenSet | None
    spongy_rate: Fraction
    oracle: MeasureOracle = field(compare=False)


def dualistic_of_measure(r: Fraction) -> DualisticSet:
    """A set of exact measure r in (0;1) with blurry points everywhere it can.

    For r <= 1/3 the graft construction applies directly. Beyond that a
    dyadic chunk d is carved from the complementary cylinder family
    (which supports clopen subsets of any dyadic measure below 2/3) and
    the remainder r - d < 1/3 is built by grafting; the two parts live
    behind incomparable words, so measures add exactly.
    """
    if not (ZERO < r < ONE):
        raise ValueError(f"measure must be in (0;1): {r}")
    if r <= THIRD:
        return DualisticSet(
            measure=r,
            clopen_part=None,
            spongy_rate=r,
            oracle=SpongyMeasureOracle(r),
        )
    # The least dyadic in (r - 1/3; min(r, 2/3)), over 3q for r = p/q.
    p, q = r.numerator, r.denominator
    numerator, exponent = least_dyadic_parts(3 * p - q, min(3 * p, 2 * q), 3 * q)
    d = Fraction(numerator, 1 << exponent)
    chunk = _second_family_chunk(d)
    remainder = r - d
    oracle = DisjointSumOracle([ClopenOracle(chunk), SpongyMeasureOracle(remainder)])
    return DualisticSet(
        measure=r,
        clopen_part=chunk,
        spongy_rate=remainder,
        oracle=oracle,
    )


def _second_family_chunk(d: Fraction) -> ClopenSet:
    """The first clopen subset of the complementary family with measure d."""
    if not is_dyadic(d) or not (ZERO < d < TWO_THIRDS):
        raise ValueError(f"chunk measure must be a dyadic in (0, 2/3): {d}")
    length = 3
    while True:
        superset = ClopenSet.from_words(second_family_words(length))
        if superset.measure() > d:
            return superset.take_submass(d)
        length += 2


@dataclass(frozen=True)
class SolidCountableRange:
    """A set whose density values on a designated sequence realize a list.

    Behind each word 0^n 1^n hangs a spine construction with constant
    localized measure value_n, so the point 0^n 1^n 0^infinity has
    density exactly value_n; the all-zeros point has density 0. The
    builder rejects duplicate values, and ``audit`` re-checks that the
    designated points and their values both stay pairwise distinct.
    """

    values: tuple[Fraction, ...]
    oracle: MeasureOracle = field(compare=False)

    def designated_points(self) -> list[tuple[Branch, Fraction]]:
        return [
            (Branch(first_family_word(n + 1), (0,)), value)
            for n, value in enumerate(self.values)
        ]

    def audit(self) -> bool:
        """Distinct values at distinct designated points."""
        if len(set(self.values)) != len(self.values):
            return False
        points = [p.head for p, _ in self.designated_points()]
        return len(set(points)) == len(points)


def solid_countable_range(values: list[Fraction]) -> SolidCountableRange:
    """A solid set realizing the given density values on designated points.

    An empty list yields a proper nonempty clopen set (solid, nothing
    designated). Values must lie strictly between 0 and 1.
    """
    for v in values:
        if not (ZERO < v < ONE):
            raise ValueError(f"density values must be in (0;1): {v}")
    if len(set(values)) != len(values):
        raise ValueError("density values must be pairwise distinct")
    if not values:
        return SolidCountableRange((), SegmentOracle(Fraction(1, 2)))
    parts: list[tuple[Word, MeasureOracle]] = []
    for n, value in enumerate(values, start=1):
        piece = SegmentOracle(value) if is_dyadic(value) else dualistic_of_measure(value).oracle
        parts.append((first_family_word(n), SpinePrefixOracle(piece)))
    return SolidCountableRange(tuple(values), GraftedUnionOracle(parts))
