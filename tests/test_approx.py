"""Canonical approximation: containment, sibling control, exact values."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordensity.approx import (
    AffineImagePresentation,
    ConstantPresentation,
    InjectivePresentation,
    ReparamPresentation,
    nudged_parts,
)
from cantordensity.branches import Branch
from cantordensity.dyadics import least_dyadic_parts
from cantordensity.reductions import _adjusted_parts
from oracletools import (
    dyadic_value,
    fold_into_unit,
    least_dyadic_reference,
    presented,
    presented_interval_reference,
    random_preset,
)

F = Fraction

PRESETS = [
    ConstantPresentation(F(1, 2)),
    ConstantPresentation(F(1, 3)),
    AffineImagePresentation(F(1, 3), F(2, 3)),
    AffineImagePresentation(F(1, 10), F(9, 10)),
    InjectivePresentation(F(1, 4)),
    InjectivePresentation(F(1, 100)),
]


def binary_nodes(depth):
    for k in range(depth + 1):
        yield from itertools.product((0, 1), repeat=k)


def canonical_approx(presentation, node):
    return dyadic_value(least_dyadic_parts(*presentation.presented_numerators(node)))


def approx_pair(presentation, node):
    """The canonical value nudged down and up by 2^-(len(node)+2)."""
    middle = least_dyadic_parts(*presentation.presented_numerators(node))
    return tuple(dyadic_value(nudged_parts(*middle, len(node) + 2, up)) for up in (False, True))


def test_canonical_values_frozen():
    assert canonical_approx(ConstantPresentation(F(1, 3)), ()) == F(1, 2)
    assert canonical_approx(ConstantPresentation(F(1, 3)), (0, 0)) == F(1, 4)
    assert canonical_approx(AffineImagePresentation(F(1, 3), F(2, 3)), ()) == F(1, 2)
    assert canonical_approx(InjectivePresentation(F(1, 4)), (0,)) == F(1, 2)


def test_pair_frozen_at_shallow_nodes():
    constant = ConstantPresentation(F(1, 2))
    assert approx_pair(constant, ()) == (F(1, 4), F(3, 4))
    assert approx_pair(constant, (1,)) == (F(3, 8), F(5, 8))


def test_containment_and_sibling_bounds_exhaustively():
    for presentation in PRESETS:
        for node in binary_nodes(7):
            lo, hi = presented(presentation, node)
            middle = canonical_approx(presentation, node)
            assert lo < middle < hi
            scale = F(1, 2 ** len(node))
            left = canonical_approx(presentation, node + (0,))
            right = canonical_approx(presentation, node + (1,))
            assert abs(left - right) < scale
            below, above = approx_pair(presentation, node)
            assert 0 < below < middle < above < 1
            assert above - below < scale


def test_presentations_are_nested():
    for presentation in PRESETS:
        for node in binary_nodes(6):
            lo, hi = presented(presentation, node)
            for letter in (0, 1, 2):
                clo, chi = presented(presentation, node + (letter,))
                assert lo <= clo and chi <= hi


def test_wide_letter_siblings_stay_bounded():
    for presentation in PRESETS:
        for node in [(), (2,), (0, 3), (1, 1, 2)]:
            scale = F(1, 2 ** len(node))
            values = [
                canonical_approx(presentation, node + (letter,)) for letter in range(5)
            ]
            assert max(values) - min(values) < scale


def test_affine_value_frozen():
    presentation = AffineImagePresentation(F(1, 3), F(2, 3))
    point = Branch((1, 0), (1,))
    assert presentation.value(point) == F(7, 12)
    zero = presentation.value(Branch((), (0,)))
    assert zero == F(1, 3)


def test_injective_value_distinguishes_points():
    presentation = InjectivePresentation(F(1, 4))
    a = presentation.value(Branch((0,), (1,)))
    b = presentation.value(Branch((1,), (1,)))
    c = presentation.value(Branch((), (2,)))
    assert len({a, b, c}) == 3
    for v in (a, b, c):
        assert F(1, 4) < v < F(3, 4)


@st.composite
def periodic_points(draw):
    head = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=4))
    cycle = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    return Branch(tuple(head), tuple(cycle))


@given(periodic_points(), st.integers(min_value=0, max_value=8))
@settings(max_examples=80, deadline=None)
def test_values_live_in_presented_intervals(point, depth):
    for presentation in PRESETS:
        value = presentation.value(point)
        lo, hi = presented(presentation, point.prefix(depth))
        assert lo < value < hi
        assert abs(value - canonical_approx(presentation, point.prefix(depth))) < hi - lo


def near_boundary_dyadics(rng, count):
    """Seeded (dyadic, depth, exponent) triples: each dyadic, odd over
    2^exponent, is closer than twice the nudge offset 2^-(depth+2) to 0
    or to 1."""
    for _ in range(count):
        depth = rng.randrange(12)
        exponent = rng.randrange(depth + 2, depth + 8)
        value = F(2 * rng.randrange(1 << (exponent - depth - 2)) + 1, 1 << exponent)
        yield (value if rng.random() < 0.5 else 1 - value), depth, exponent


def test_nudge_rule_matches_the_fraction_fold():
    rng = random.Random(16)
    folds = Counter()
    for middle, depth, exponent in near_boundary_dyadics(rng, 10000):
        offset = F(1, 1 << (depth + 2))
        below, above = middle - offset, middle + offset
        folds["pair", "low"] += below <= 0
        folds["pair", "high"] += above >= 1
        parts = middle.numerator, middle.denominator.bit_length() - 1
        pair = tuple(dyadic_value(nudged_parts(*parts, depth + 2, up)) for up in (False, True))
        assert pair == (fold_into_unit(below, middle), fold_into_unit(above, middle))
        # A node of length depth + 1 nudges by the same offset; middle is
        # the least dyadic of the interval, as nothing coarser is that close.
        node = tuple(rng.randrange(4) for _ in range(depth + 1))
        numerator = middle.numerator << 2
        adjusted = _adjusted_parts((numerator - 1, numerator + 1, 1 << (exponent + 2)), node)
        moved = above if node[-1] % 2 == 0 else below
        folds["adjusted", "low"] += moved <= 0
        folds["adjusted", "high"] += moved >= 1
        assert dyadic_value(adjusted) == fold_into_unit(moved, middle)
    assert len(folds) == 4 and min(folds.values()) >= 1000, folds


class _Slow:
    """Presented widths shrink at half speed; values constant 1/2."""

    def presented_numerators(self, node):
        # 1/2 -+ 2^-(len(node)//2 + 1), over 2^(len(node)//2 + 1).
        scale = 1 << (len(node) // 2 + 1)
        return scale // 2 - 1, scale // 2 + 1, scale

    def value(self, point):
        return F(1, 2)


def test_reparam_restores_the_modulus():
    fast = ReparamPresentation(_Slow())
    for node in binary_nodes(6):
        lo, hi = presented(fast, node)
        assert hi - lo < F(1, 2 ** len(node))
        assert lo < canonical_approx(fast, node) < hi


class _Stuck:
    def presented_numerators(self, node):
        return 1, 3, 4

    def value(self, point):
        return None


def test_reparam_reports_non_shrinking_nodes():
    with pytest.raises(ValueError, match="do not shrink"):
        ReparamPresentation(_Stuck(), max_pad=8).presented_numerators((0,))


def test_preset_validation():
    with pytest.raises(ValueError):
        ConstantPresentation(F(1))
    with pytest.raises(ValueError):
        AffineImagePresentation(F(2, 3), F(1, 3))
    with pytest.raises(ValueError):
        InjectivePresentation(F(1, 2))


def _parts(dyadic):
    """A reduced dyadic Fraction as (numerator, exponent)."""
    return dyadic.numerator, dyadic.denominator.bit_length() - 1


def test_integer_presentations_match_the_fraction_formulas():
    rng = random.Random(17)
    for _ in range(400):
        presentation = random_preset(rng)
        if rng.random() < 0.25:
            presentation = ReparamPresentation(presentation)
        for _ in range(5):
            node = tuple(rng.randrange(5) for _ in range(rng.randrange(11)))
            lo, hi, scale = presentation.presented_numerators(node)
            assert scale > 0
            expected = presented_interval_reference(presentation, node)
            assert (F(lo, scale), F(hi, scale)) == expected, (presentation, node)
            assert least_dyadic_parts(lo, hi, scale) == _parts(least_dyadic_reference(*expected))


def test_least_dyadic_parts_match_the_fraction_rule():
    # Endpoints inside and outside (0;1), unreduced scales, and empty
    # intervals, whose messages must name the same clipped ends.
    rng = random.Random(1705)
    outcomes = Counter()
    for _ in range(5000):
        scale = rng.randrange(1, 1 << rng.randrange(1, 40))
        lo = rng.randrange(-scale, 2 * scale)
        hi = lo + rng.randrange(-2, scale + 3)
        try:
            got = least_dyadic_parts(lo, hi, scale)
        except ValueError as err:
            got = str(err)
        try:
            expected = _parts(least_dyadic_reference(F(lo, scale), F(hi, scale)))
        except ValueError as err:
            expected = str(err)
        assert got == expected, (lo, hi, scale)
        outcomes["empty" if isinstance(got, str) else "dyadic",
                 "outside" if lo < 0 or hi > scale else "inside"] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 100, outcomes
