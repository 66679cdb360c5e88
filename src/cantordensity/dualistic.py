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
point intervals at every budget, never by enumeration. Along the zero
spine the spongy set carries r = p/q as one integer x moved by the
base-4 shift map x -> 4x mod q, the quotient being the next digit, so
each step costs one division and no digit is read twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .branches import Branch, StretchedBranch
from .clopen import ClopenSet
from .dyadics import ONE, ZERO, RatInterval, dyadic_exponent, is_dyadic, least_dyadic_parts
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

    f comes from the greedy base-4 digits d_1 d_2 ... of r = p/q: writing h
    for the first position with digit 0 (which exists for r < 1/3; at
    r = 1/3 the digits are all 1 and h is infinite), f(n) = 1 for n < h
    and f(n) = d_(n+1)/4 from h on. Below 0^z the state is (x, lead) with
    x/q = frac(4^z r) and lead = [z < h]: a 0 step is the base-4 shift,
    d_(z+1), x' = divmod(4x, q), and lead stays while the digit is not 0.
    The grafts left below 0^z sum to T(z) = sum over n >= z of f(n) 4^-n,
    and 4^z T(z) = [z < h] + frac(4^z r) (the 1-digits before h sum to
    the geometric head), so the localized measure 2^z T(z) is
    (lead q + x) / (q 2^z) for z >= 1; the root answers r itself.
    """

    def __init__(self, measure: Fraction):
        if not (ZERO <= measure <= THIRD):
            raise ValueError(f"measure must be in [0, 1/3]: {measure}")
        self.measure = measure
        # Leading zeros read so far, and the shift state below them.
        self.zeros, self.x, self.lead = 0, measure.numerator, True

    def piece_measure(self) -> Fraction:
        """f(zeros), the measure of the piece behind 0^n 1^n for n = zeros >= 1."""
        return ONE if self.lead else Fraction(4 * self.x // self.measure.denominator, 4)

    def child(self, letter: int) -> MeasureOracle:
        if letter == 0:
            digit, x = divmod(4 * self.x, self.measure.denominator)
            inner = object.__new__(SpongyMeasureOracle)
            inner.measure, inner.zeros, inner.x = self.measure, self.zeros + 1, x
            inner.lead = self.lead and digit != 0
            return inner
        n = self.zeros
        if n == 0:
            return EMPTY_SEGMENT
        # Past 0^n 1 only the graft at 0^n 1^n meets the cylinder.
        return GraftedUnionOracle([((1,) * (n - 1), SegmentOracle(self.piece_measure()))])

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        if not self.zeros:
            return RatInterval.point(self.measure)
        q = self.measure.denominator
        return RatInterval.point(Fraction(self.lead * q + self.x, q << self.zeros))

    def tail_certificate(self, point, effort: int) -> TailCertificate | None:
        # The certificates below read the point from the root.
        if isinstance(point, StretchedBranch) or self.zeros:
            return None
        if point.constant_tail() == (0, 0):
            start = max(1, effort - 20)
            bound = Fraction(4, 3) * Fraction(1, 1 << start)
            return TailCertificate(RatInterval(ZERO, min(bound, ONE)), start)
        # The point is 0^n 1^m ...: past 0^n 1 only the graft at 0^n 1^n
        # meets it, and a run of 1s shorter than n leaves that too.
        runs = point.runs()
        letter, n = next(runs)
        if letter == 1:
            return TailCertificate(RatInterval.point(ZERO), 1)
        m = next(runs)[1]
        if m is not None and m < n:
            return TailCertificate(RatInterval.point(ZERO), n + m + 1)
        piece = self.localize((0,) * n).piece_measure()
        return entered_certificate(SegmentOracle(piece), point, 2 * n, effort)


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
    words = ["".join(map(str, w)) for w in chunk.words]
    oracle = DisjointSumOracle([ClopenOracle(words), SpongyMeasureOracle(remainder)])
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
    # The words up to length L have measure mass / 2^L: 1/2 for (1,),
    # plus 2^-l for each of the (l - 2) // 2 words 0^n 1^m 0 of length l.
    numerator, exponent = d.numerator, dyadic_exponent(d)
    length, mass = 3, 4
    while mass << exponent <= numerator << length:
        length += 2
        mass = 4 * mass + 2 * ((length - 3) // 2) + (length - 2) // 2
    return ClopenSet.from_words(second_family_words(length)).take_submass(d)


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
    designated). Values must lie strictly between 0 and 1. Each spine
    builds its piece on entry, so a query builds at most one piece.
    """
    for v in values:
        if not 0 < v.numerator < v.denominator:  # integer compares: v is reduced
            raise ValueError(f"density values must be in (0;1): {v}")
    if len({(v.numerator, v.denominator) for v in values}) != len(values):
        raise ValueError("density values must be pairwise distinct")
    if not values:
        return SolidCountableRange((), SegmentOracle(Fraction(1, 2)))
    def piece(value: Fraction) -> MeasureOracle:
        return SegmentOracle(value) if is_dyadic(value) else dualistic_of_measure(value).oracle
    parts = [(first_family_word(n), SpinePrefixOracle(piece, v)) for n, v in enumerate(values, 1)]
    return SolidCountableRange(tuple(values), GraftedUnionOracle(parts))
