"""Canonical dyadic approximations of presented continuous functions.

A presentation of a continuous function assigns to every finite word an
open rational interval containing the function's values on the cylinder
behind that word, nested along extensions and shrinking along branches.
It gives the interval as integers (lo, hi, scale), the endpoints'
numerators over one positive scale, so that the label hot path never
builds a Fraction; a caller that needs the values divides at its own
site. The canonical approximation picks at each node the dyadic of
least rank inside the presented interval, as (numerator, exponent):
``least_dyadic_parts`` of ``presented_numerators``. Rank order makes
the choice canonical: two nodes with overlapping
presentations tend to agree, and sibling jumps are controlled by the
parent's interval width. Values just below or above a dyadic, in the
first and third reductions' labels, come from one nudge rule on the
same integer pairs, ``nudged_parts``.

Nodes may carry arbitrary natural-number letters; binary words are the
special case used when the function lives on Cantor space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol

from .branches import Branch
from .words import Word, runs_to_bits


class FunctionPresentation(Protocol):
    """Open rational enclosures of a continuous function, node by node.

    An enclosure is three integers (lo, hi, scale) with scale > 0: the
    open interval (lo/scale; hi/scale). The numerators need not be
    reduced, and may stick out of (0; scale).
    """

    def presented_numerators(self, node: Word) -> tuple[int, int, int]:
        """(lo, hi, scale) of an open interval containing every value on
        the cylinder."""
        ...

    def value(self, point: Branch) -> Fraction | None:
        """Exact value at an eventually periodic point, when computable."""
        ...


def nudged_parts(numerator: int, exponent: int, offset: int, up: bool) -> tuple[int, int]:
    """The dyadic numerator/2^exponent in (0;1) moved up or down by
    2^-offset, as (numerator, exponent) with an odd numerator; an end
    leaving (0;1) folds back to the midpoint between the dyadic and the
    boundary it crossed, so the result stays strictly inside (0;1)."""
    # One bit below both the dyadic and the offset, for the fold.
    scale = max(exponent, offset) + 1
    base = numerator << (scale - exponent)
    step = 1 << (scale - offset)
    moved = base + step if up else base - step
    if moved >= 1 << scale:
        moved = ((1 << scale) + base) >> 1
    elif moved <= 0:
        moved = base >> 1
    zeros = (moved & -moved).bit_length() - 1
    return moved >> zeros, scale - zeros


@dataclass(frozen=True)
class ConstantPresentation:
    """The constant function at a rational in (0;1)."""

    constant: Fraction
    # (p, q) for the constant p/q.
    _integers: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.constant < 1):
            raise ValueError(f"constant must be in (0;1): {self.constant}")
        object.__setattr__(self, "_integers", (self.constant.numerator, self.constant.denominator))

    def presented_numerators(self, node: Word) -> tuple[int, int, int]:
        # constant -+ 2^-(L+1): integers over q * 2^(L+1), for constant p/q.
        p, q = self._integers
        middle = p << (len(node) + 1)
        return middle - q, middle + q, q << (len(node) + 1)

    def value(self, point: Branch) -> Fraction:
        return self.constant


def _bit_sum(bits: Word) -> Fraction:
    """Sum of bits[n] 2^-(n+1), folded as one integer numerator."""
    value = 0
    for b in bits:
        value = 2 * value + b
    return Fraction(value, 1 << len(bits))


def _branch_bit_value(head: Word, cycle: Word) -> Fraction:
    """Sum of bit(n) 2^-(n+1) over an eventually periodic bit stream."""
    cycle_sum = _bit_sum(cycle)
    tail = cycle_sum / (1 - Fraction(1, 2 ** len(cycle)))
    return _bit_sum(head) + tail / 2 ** len(head)


@dataclass(frozen=True)
class AffineImagePresentation:
    """Letters' parities read as binary digits, mapped onto (lo; hi).

    The value at a stream x is lo + (hi - lo) sum of parity(x(n)) 2^-(n+1).
    Cylinder images are closed intervals; the presented open intervals
    widen them by a quarter of the remaining slack, keeping sibling
    values strictly within the parent scale.
    """

    lo_value: Fraction
    hi_value: Fraction
    # (start, span, unit): lo = start/unit and hi - lo = span/unit.
    _integers: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.lo_value < self.hi_value < 1):
            raise ValueError("need 0 < lo < hi < 1")
        lo, hi = self.lo_value, self.hi_value
        start = lo.numerator * hi.denominator
        span = hi.numerator * lo.denominator - start
        object.__setattr__(self, "_integers", (start, span, lo.denominator * hi.denominator))

    @property
    def span(self) -> Fraction:
        return self.hi_value - self.lo_value

    def presented_numerators(self, node: Word) -> tuple[int, int, int]:
        # lo + span * [v, v + 1]/2^L widened by (1 - span)/2^(L+2), for
        # parity bits v: integers over unit * 2^(L+2).
        start, span, unit = self._integers
        value = 0
        for letter in node:
            value = 2 * value + letter % 2
        base = 4 * ((start << len(node)) + span * value)
        return base - unit + span, base + 3 * span + unit, unit << (len(node) + 2)

    def value(self, point: Branch) -> Fraction:
        head = tuple(letter % 2 for letter in point.head)
        cycle = tuple(letter % 2 for letter in point.cycle)
        return self.lo_value + self.span * _branch_bit_value(head, cycle)


@dataclass(frozen=True)
class InjectivePresentation:
    """An injective function through the run encoding of the input.

    The input stream's letters become runs of zeros separated by ones;
    the resulting bit stream, which always carries infinitely many
    ones, is read as a binary value and squeezed into
    (margin; 1 - margin). Run encoding makes the map injective and the
    closed cylinder hulls lose their unreachable left endpoint, so a
    margin-scaled widening keeps the presentation strictly narrower
    than the node scale.
    """

    margin: Fraction
    # (p, q, q - 2p) for the margin p/q.
    _integers: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.margin < Fraction(1, 2)):
            raise ValueError(f"margin must be in (0; 1/2): {self.margin}")
        p, q = self.margin.numerator, self.margin.denominator
        object.__setattr__(self, "_integers", (p, q, q - 2 * p))

    def presented_numerators(self, node: Word) -> tuple[int, int, int]:
        # margin + squeeze * [v, v + 1]/2^L widened by margin/2^(L+1),
        # for margin p/q and image bits v: integers over q * 2^(L+1).
        # Each letter k appends the image bits 0^k 1.
        value = length = 0
        for letter in node:
            if letter < 0:
                raise ValueError("run lengths must be non-negative")
            value = (value << (letter + 1)) + 1
            length += letter + 1
        p, q, squeeze = self._integers
        base = (p << (length + 1)) + 2 * squeeze * value
        return base - p, base + 2 * squeeze + p, q << (length + 1)

    def value(self, point: Branch) -> Fraction:
        head = runs_to_bits(point.head)
        cycle = runs_to_bits(point.cycle)
        squeeze = 1 - 2 * self.margin
        return self.margin + squeeze * _branch_bit_value(head, cycle)


class ReparamPresentation:
    """A presentation precomposed with letter padding until it shrinks.

    Each node is mapped into the base presentation's tree, appending
    zero letters until the presented interval is narrower than the node
    scale. The result presents the base function reparametrized along
    the padded embedding, with intervals narrower than 2^-depth at
    every depth.
    """

    def __init__(self, base: FunctionPresentation, max_pad: int = 64):
        self.base = base
        self.max_pad = max_pad
        self._images: dict[Word, Word] = {}

    def _pad(self, node: Word, depth: int) -> Word:
        """The first padding of a node whose presented interval is
        narrower than 2^-depth."""
        current = node
        for _ in range(self.max_pad):
            lo, hi, scale = self.base.presented_numerators(current)
            if (hi - lo) << depth < scale:
                return current
            current = current + (0,)
        raise ValueError(
            f"presented intervals do not shrink below {Fraction(1, 1 << depth)} behind node {node}"
        )

    def _image(self, node: Word) -> Word:
        cached = self._images.get(node)
        if cached is not None:
            return cached
        if node == ():
            image = self._pad((), 0)
        else:
            parent = self._image(node[:-1])
            image = self._pad(parent + node[-1:], len(node))
        self._images[node] = image
        return image

    def presented_numerators(self, node: Word) -> tuple[int, int, int]:
        return self.base.presented_numerators(self._image(node))

    def value(self, point: Branch) -> Fraction | None:
        return None
