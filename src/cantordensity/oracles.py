"""Set oracles: certified interval answers about localized measures.

An oracle stands for a measurable subset of Cantor space up to null
difference. It answers two questions exactly: ``child(letter)`` is the
set seen from inside that letter's cylinder, again an oracle, and
``measure_bounds(budget)`` is a rational interval certain to contain
the set's measure, refined with ``budget`` letters of lookahead. Exact
oracles ignore the budget and answer with point intervals. The
localized measure at a word is the measure of the set reached by one
``child`` per letter. A word is walked by ``localize`` and a point by
``bound_runs``, so a walk along a point costs at most one step per depth.

By the density theorem almost every point sees the localized set
settle to full or empty, and the exact constructions here settle after
finitely many letters. Such a localization is one of two shared settled
segments, ``FULL_SEGMENT`` or ``EMPTY_SEGMENT``, and each is its own
child, so a walk past the settling depth builds nothing. Bounds stay
equal: a settled piece answers the point interval at 1 or 0 that the
structure it replaces answers, an empty part adds exactly 0 to a
disjoint sum, and the complement of a settled set is the other one.

On top of these sit traces (bounds along a branch's prefixes, walked
by ``bound_runs`` from the root: below the first depth asked it only
steps, then yields one (bounds, count) pair per oracle it holds, the rest
of a run or, past settling, of the trace being one more pair; a printer
formats each run once) and a classifier with three verdicts:

* ``converges``     a structural tail certificate confines every deep
                    enough localized measure to a narrow interval
* ``blurry``        the trace's certified bounds witness interleaved
                    high and low excursions, at least two on each side,
                    separated by the reported delta
* ``undetermined``  neither certificate was found within the depth,
                    or an evaluation exhausted its states budget

A blurry verdict certifies finite-depth oscillation; a converges
verdict certifies containment from its start depth on. Upper and lower
density themselves are not computable from oracle queries, so no
stronger claim is ever returned. Before a tail certificate is used,
``CROSS_CHECK_STEPS`` fresh bounds from its start depth on must each
meet its interval; a contradiction raises instead of classifying.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .branches import Branch, StretchedBranch
from .dyadics import EMPTY_MASS, FULL_MASS, ONE, ZERO, RatInterval, dyadic_exponent
from .words import Word, is_prefix

Point = Branch | StretchedBranch

DEFAULT_WINDOW = 16
CROSS_CHECK_STEPS = 20
# Bits that a clopen oracle's prefix sums may hold in all, each up to its longest word's length.
MAX_SUM_BITS = 1 << 26


class BudgetExhausted(RuntimeError):
    """An evaluation opened more states than its cap allows."""


@dataclass(frozen=True)
class TailCertificate:
    """From ``start`` on, every localized measure lies in ``interval``."""

    interval: RatInterval
    start: int


@dataclass(frozen=True)
class Verdict:
    kind: str  # converges | blurry | undetermined
    interval: RatInterval | None = None
    delta: Fraction | None = None
    depth: int = 0
    detail: str = ""


class MeasureOracle:
    """Base class; subclasses implement ``child`` and ``measure_bounds``."""

    def child(self, letter: int) -> MeasureOracle:
        """The set seen from inside the cylinder of one letter."""
        raise NotImplementedError

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        """Bounds on the set's measure with ``budget`` letters of
        lookahead; a negative budget reads as 0."""
        raise NotImplementedError

    def localize(self, word: Word) -> MeasureOracle:
        oracle = self
        for letter in word:
            oracle = oracle.child(letter)
        return oracle

    def bound_runs(self, point: Point, start: int, stop: int,
                   window: int = DEFAULT_WINDOW) -> Iterator[tuple[RatInterval, int]]:
        """Bounds at the prefixes of the point of lengths ``start`` to
        ``stop - 1``, as (bounds, count): the next ``count`` depths share
        the interval object ``bounds`` of one oracle the walk holds.

        The walk reads the point's runs from the root, building no prefix,
        and below ``start`` only steps, one ``child`` per letter. Each later
        depth costs one ``child`` step and one fresh ``measure_bounds``,
        until the oracle is its own child on the letter of a run: the rest
        of that run is one pair with no further step. An oracle that is its
        own child on both letters (a settled segment) holds every later
        depth, so the rest of the walk is one pair. ``child`` is asked only
        for depths below ``stop``.
        """
        if start >= stop:
            return
        oracle, depth, own, bounds, last = self, 0, 0, None, stop - 1  # depth is the oracle's
        for letter, count in point.runs():
            end = last if count is None else min(depth + count, last)
            if bounds is None:
                ahead = min(end, start) - depth
                for _ in range(ahead):
                    oracle = oracle.child(letter)
                depth += ahead
                if depth < start:
                    continue
                bounds = oracle.measure_bounds(window)
                yield bounds, 1
            while depth < end:
                inner = oracle.child(letter)
                if inner is oracle:
                    own |= 1 << letter  # bit c set: the oracle is its own child on c
                    if own == 3:
                        end = last
                    yield bounds, end - depth
                    depth = end
                    break
                oracle, own = inner, 0
                bounds = oracle.measure_bounds(window)
                yield bounds, 1
                depth += 1
            if depth == last:
                return

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        return None

    def classify(
        self,
        point: Point,
        eps: Fraction = Fraction(1, 256),
        max_depth: int = 80,
    ) -> Verdict:
        try:
            cert = self.tail_certificate(point, max_depth)
            if cert is not None and cert.interval.width <= eps:
                self._cross_check(point, cert)
                return Verdict(
                    kind="converges",
                    interval=cert.interval,
                    depth=cert.start,
                    detail="tail certificate",
                )
            runs = list(self.bound_runs(point, 0, max_depth + 1))
            # A run repeats one interval: its entries add no mark or threshold.
            swing = certified_oscillation([bounds for bounds, _ in runs])
            if swing is not None:
                delta, low, high = swing
                return Verdict(
                    kind="blurry",
                    delta=delta,
                    interval=RatInterval(low, high),
                    depth=max_depth,
                    detail="interleaved excursions",
                )
            if cert is not None:
                self._cross_check(point, cert)
                return Verdict(
                    kind="undetermined",
                    interval=cert.interval,
                    depth=max_depth,
                    detail="tail certificate wider than eps",
                )
            return Verdict(
                kind="undetermined",
                interval=runs[-1][0],
                depth=max_depth,
                detail="no certificate within depth",
            )
        except BudgetExhausted as err:
            return Verdict(kind="undetermined", depth=max_depth, detail=str(err))

    def _cross_check(self, point: Point, cert: TailCertificate) -> None:
        n = cert.start
        for probe, count in self.bound_runs(point, n, n + CROSS_CHECK_STEPS):
            if not probe.intersects(cert.interval):
                raise RuntimeError(
                    f"tail certificate {cert.interval} contradicts certified "
                    f"bounds {probe} at depth {n}"
                )
            n += count


def entered_certificate(part: MeasureOracle, point: Point, depth: int,
                        effort: int) -> TailCertificate | None:
    """The certificate of ``part`` for a plain point that enters it at
    ``depth``, counted from the root."""
    if not isinstance(point, Branch):
        return None
    inner = part.tail_certificate(point.drop(depth), effort)
    if inner is None:
        return None
    return TailCertificate(inner.interval, inner.start + depth)


def certified_oscillation(bounds: Sequence[RatInterval]) -> tuple[Fraction, Fraction, Fraction] | None:
    """Best certified oscillation in a trace, as (delta, low, high).

    Certified means: there are steps whose whole interval sits above
    ``high`` and steps sitting below ``low``, interleaved with at least
    two excursions per side. Returns the maximal high - low over
    threshold candidates drawn from the trace itself, the 40 extreme
    ones on each side; of equal deltas, the one with the least low.

    Raising ``low`` or lowering ``high`` only adds marks, so the highest
    high interleaved with a low never falls as the low rises: one
    pointer walks up the highs while the lows ascend, and each low costs
    one failed test at most. Every comparison is between endpoints of
    the trace, so it compares their integer numerators over the trace's
    least common denominator.
    """
    common = lcm(*{b.lo.denominator for b in bounds}, *{b.hi.denominator for b in bounds})
    ranked = [
        (b.lo.numerator * (common // b.lo.denominator), b.hi.numerator * (common // b.hi.denominator))
        for b in bounds
    ]
    los = sorted({hi for _, hi in ranked})[:40]
    his = sorted({lo for lo, _ in ranked}, reverse=True)[:40]
    best: tuple[int, int, int] | None = None
    # his[:above] lie above the low; his[top:above] are interleaved with it.
    above = top = len(his)
    for low in los:
        while above and his[above - 1] <= low:
            above -= 1
        top = min(top, above)
        while top and _interleaved(ranked, low, his[top - 1]):
            top -= 1
        if top < above and (best is None or his[top] - low > best[0]):
            best = (his[top] - low, low, his[top])
    if best is None:
        return None
    delta, low, high = best
    return Fraction(delta, common), Fraction(low, common), Fraction(high, common)


def _interleaved(ranked: list[tuple[int, int]], low: int, high: int) -> bool:
    marks = []
    for lo, hi in ranked:
        if hi <= low:
            mark = "L"
        elif lo >= high:
            mark = "H"
        else:
            continue
        if not marks or marks[-1] != mark:
            marks.append(mark)
    # Four full swings between the levels; fewer could be settling noise.
    return len(marks) >= 5


class ClopenOracle(MeasureOracle):
    """Exact oracle of a clopen set; bounds are always points.

    The root keeps the canonical antichain as sorted "01" strings, and
    each localization is a view of it: a depth d and the index range of
    the words below the view's word, cut from its parent's range by one
    bisection on the letter at d. A view whose set is full or empty is
    ``FULL_SEGMENT`` or ``EMPTY_SEGMENT`` instead. The root builds, for
    the first bound asked, integer prefix sums of 2^(top - len(w)) for
    the longest word's length top, and a view's bound is one difference
    of them times 2^d. Past ``MAX_SUM_BITS`` bits of sums (many words
    beside a long one) none are built, and a bound adds up its view.
    """

    def __init__(self, words: list[str]):
        self.words = words
        self.root, self.depth, self.lo, self.hi = self, 0, 0, len(words)

    @cached_property
    def sums(self) -> tuple[int, list[int] | None]:
        top = max(map(len, self.words), default=0)
        if len(self.words) * top > MAX_SUM_BITS:
            return top, None
        return top, [0, *accumulate(1 << (top - len(w)) for w in self.words)]

    def child(self, letter: int) -> MeasureOracle:
        words, d, i, j = self.root.words, self.depth, self.lo, self.hi
        if i == j or not words[i]:  # the empty set or the full one, at the root
            return EMPTY_SEGMENT if i == j else FULL_SEGMENT
        split = bisect_left(words, "1", i, j, key=itemgetter(d))
        i, j = (split, j) if letter else (i, split)
        if i == j:
            return EMPTY_SEGMENT
        if len(words[i]) == d + 1:  # a word that no other one extends
            return FULL_SEGMENT
        inner = object.__new__(ClopenOracle)
        inner.root, inner.depth, inner.lo, inner.hi = self.root, d + 1, i, j
        return inner

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        top, sums = self.root.sums
        if sums is None:
            total = sum(1 << (top - len(w)) for w in self.root.words[self.lo:self.hi])
        else:
            total = sums[self.hi] - sums[self.lo]
        return RatInterval.point(Fraction(total << self.depth, 1 << top))

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        # Once the prefix is as long as the deepest word, the localized
        # set is full or empty and stays that way.
        depth = max(map(len, self.root.words[self.lo:self.hi]), default=self.depth) - self.depth
        return TailCertificate(self.localize(point.prefix(depth)).measure_bounds(), depth)


def segment_step(a: int, k: int, letter: int) -> tuple[int, int]:
    """The segment [0, a/2^k), reduced, seen from inside a letter's
    cylinder: the doubling map m -> clamp(2m - letter, 0, 1)."""
    if k == 0:
        return a, 0
    half = 1 << (k - 1)
    if letter == 0:
        return (a, k - 1) if a < half else (1, 0)
    return (a - half, k - 1) if a > half else (0, 0)


class SegmentOracle(MeasureOracle):
    """Exact oracle of the initial segment [0, m) of a dyadic m in [0, 1].

    Reading points as binary expansions, the lexicographically first
    clopen set of measure m is exactly [0, m). Its localized measures
    follow the doubling map and settle at 0 or 1 after as many letters
    as m's exponent, so the set is never built. The child of a settled
    segment (exponent 0) is the shared ``EMPTY_SEGMENT`` or
    ``FULL_SEGMENT`` of its value, so those two are their own children.
    Steps keep the numerator odd over 2^k, so they skip the range and
    dyadic checks.
    """

    def __init__(self, measure: Fraction):
        if not ZERO <= measure <= ONE:
            raise ValueError(f"measure out of range: {measure}")
        self.k = dyadic_exponent(measure)
        self.a = measure.numerator

    def child(self, letter: int) -> MeasureOracle:
        if not self.k:
            return FULL_SEGMENT if self.a else EMPTY_SEGMENT
        a, k = segment_step(self.a, self.k, letter)
        if not k:
            return FULL_SEGMENT if a else EMPTY_SEGMENT
        inner = object.__new__(SegmentOracle)
        inner.a, inner.k = a, k
        return inner

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        if not self.k:
            return FULL_MASS if self.a else EMPTY_MASS
        return RatInterval.point(Fraction(self.a, 1 << self.k))

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        return TailCertificate(self.localize(point.prefix(self.k)).measure_bounds(), self.k)


EMPTY_SEGMENT = SegmentOracle(ZERO)
FULL_SEGMENT = SegmentOracle(ONE)


class ComplementOracle(MeasureOracle):
    def __init__(self, inner: MeasureOracle):
        self.inner = inner

    def child(self, letter: int) -> MeasureOracle:
        inner = self.inner.child(letter)
        if inner is EMPTY_SEGMENT:
            return FULL_SEGMENT
        if inner is FULL_SEGMENT:
            return EMPTY_SEGMENT
        return ComplementOracle(inner)

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        return self.inner.measure_bounds(budget).reflect()

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        cert = self.inner.tail_certificate(point, effort)
        if cert is None:
            return None
        return TailCertificate(cert.interval.reflect(), cert.start)


class DisjointSumOracle(MeasureOracle):
    """Union of parts the caller guarantees pairwise disjoint.

    A part that settles empty adds exactly 0, so ``child`` drops it, and
    a sum left with one part is that part.
    """

    def __init__(self, parts: list[MeasureOracle]):
        if not parts:
            raise ValueError("need at least one part")
        self.parts = parts

    def child(self, letter: int) -> MeasureOracle:
        parts = [inner for inner in (part.child(letter) for part in self.parts)
                 if inner is not EMPTY_SEGMENT]
        if not parts:
            return EMPTY_SEGMENT
        return parts[0] if len(parts) == 1 else DisjointSumOracle(parts)

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        return sum((part.measure_bounds(budget) for part in self.parts), EMPTY_MASS)

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        certs = [p.tail_certificate(point, effort) for p in self.parts]
        if any(c is None for c in certs):
            return None
        return TailCertificate(sum((c.interval for c in certs), EMPTY_MASS),
                               max(c.start for c in certs))


class GraftedUnionOracle(MeasureOracle):
    """Union of copies of sets grafted inside pairwise incomparable cylinders.

    Mass lives only inside the grafts: the set seen from a cylinder off
    every graft is empty. Each localization is a view of one table of the
    graft words, sorted (a prefix then sits next to an extension), and their
    parts: a depth d and an index range, with ``parts`` cut at d. If all parts
    are spines, the table keeps integer prefix sums of m * 2^-len(w) over one
    denominator, and a view's bounds are one difference times 2^d.
    """

    parts = cached_property(lambda self: [(w[self.depth:], p) for w, p in self.root.table[self.lo:self.hi]])

    def __init__(self, parts: list[tuple[Word, MeasureOracle]]):
        self.parts = [(tuple(w), oracle) for w, oracle in parts]
        self.table = table = sorted(self.parts, key=lambda part: part[0])
        if any(is_prefix(a, b) for (a, _), (b, _) in zip(table, table[1:])):
            for i, (a, _) in enumerate(self.parts):
                for b, _ in self.parts[i + 1:]:
                    if is_prefix(a, b) or is_prefix(b, a):
                        raise ValueError(f"graft words {a} and {b} are comparable")
        self.root, self.depth, self.lo, self.hi, self.sums = self, 0, 0, len(table), None
        if all(isinstance(oracle, SpinePrefixOracle) for _, oracle in table):
            scaled = [(o.bounds.lo.numerator, o.bounds.lo.denominator << len(w)) for w, o in table]
            self.den = lcm(*(q for _, q in scaled))
            self.sums = [0, *accumulate(p * (self.den // q) for p, q in scaled)]

    def child(self, letter: int) -> MeasureOracle:
        table, d, i, j = self.root.table, self.depth, self.lo, self.hi
        if not table[i][0]:  # the empty graft word: the part is the union
            return table[i][1].child(letter)
        split = bisect_left(table, 1, i, j, key=lambda part: part[0][d])
        i, j = (split, j) if letter else (i, split)
        if i == j:
            return EMPTY_SEGMENT
        if len(table[i][0]) == d + 1:  # a word that no other one extends
            return table[i][1]
        inner = object.__new__(GraftedUnionOracle)
        inner.root, inner.depth, inner.lo, inner.hi = self.root, d + 1, i, j
        return inner

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        root, d = self.root, self.depth
        if root.sums is not None:
            return RatInterval.point(Fraction((root.sums[self.hi] - root.sums[self.lo]) << d, root.den))
        # Integer numerators over one common denominator, the lcm of the parts'
        # ones times 2^len(word): one Fraction per endpoint, shifted to depth d.
        lo, hi, den = 0, 0, 1
        for word, part in root.table[self.lo:self.hi]:
            bounds = part.measure_bounds(budget + d - len(word))
            d_lo, d_hi = bounds.lo.denominator << len(word), bounds.hi.denominator << len(word)
            common = lcm(den, d_lo, d_hi)
            lo = lo * (common // den) + bounds.lo.numerator * (common // d_lo)
            hi = hi * (common // den) + bounds.hi.numerator * (common // d_hi)
            den = common
        return RatInterval(Fraction(lo << d, den), Fraction(hi << d, den))

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        # No graft word is longer than this prefix, so by now the point
        # has entered one graft or fallen off all of them for good.
        depth = max((len(w) for w, _ in self.parts), default=0)
        prefix = point.prefix(depth)
        for graft, part in self.parts:
            if is_prefix(graft, prefix):
                return entered_certificate(part, point, len(graft), effort)
        return TailCertificate(RatInterval.point(ZERO), depth)


class SpinePrefixOracle(MeasureOracle):
    """The union over m of 0^m 1 ^ piece, one copy behind every zero run.

    Its localized measure along the zero spine is the piece's measure
    at every single depth: the grafted copies below 0^m contribute the
    geometric series sum 2^m * sum_{j >= m} 2^-(j+1) * r = r exactly.
    The piece must be exact, of measure r: the bounds are that value.
    ``build(r)`` makes the piece the first time a walk or certificate enters it.
    """

    def __init__(self, build: Callable[[Fraction], MeasureOracle], measure: Fraction):
        self.build = build
        self.bounds = RatInterval.point(measure)

    piece = cached_property(lambda self: self.build(self.bounds.lo))

    def child(self, letter: int) -> MeasureOracle:
        return self if letter == 0 else self.piece

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        return self.bounds

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        if not isinstance(point, Branch):
            return None
        letter, count = next(point.runs())
        if letter == 0 and count is None:
            # The all-zeros point rides the spine forever.
            return TailCertificate(self.bounds, 0)
        # Any other point leaves the spine at its first 1.
        return entered_certificate(self.piece, point, (count if letter == 0 else 0) + 1, effort)
