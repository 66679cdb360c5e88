from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordensity.clopen import (
    ClopenSet,
    canonical_antichain,
    subset_of_measure,
    union_all,
)
from cantordensity.dyadics import RatInterval
from cantordensity.jsonio import oracle_from_spec
from cantordensity.oracles import EMPTY_SEGMENT, FULL_SEGMENT, ClopenOracle
from oracletools import (
    antichain_measure,
    clopen_oracle,
    digit_words,
    normalize_reference,
    piece_of_measure,
    random_word_list,
    reference_complement,
    reference_intersect,
    reference_take_submass,
)

F = Fraction

words = st.lists(st.integers(0, 1), max_size=6).map(tuple)
clopens = st.lists(words, max_size=8).map(ClopenSet.from_words)


def test_normal_form_merges_siblings():
    c = ClopenSet.from_words([(0,), (1, 0), (1, 1)])
    assert c == ClopenSet.full()
    c2 = ClopenSet.from_words([(0, 1), (0, 0)])
    assert c2.words == ((0,),)


def test_normal_form_drops_covered_words():
    c = ClopenSet.from_words([(0,), (0, 1, 1)])
    assert c.words == ((0,),)


def test_constructor_keeps_the_canonical_antichain():
    # Raw words covering one half read as that half, not as 3/4.
    raw = ClopenSet(((0,), (0, 1)))
    assert raw.words == ((0,),)
    assert raw.measure() == F(1, 2)
    assert raw == ClopenSet.cylinder((0,))
    assert ClopenSet(((1,), (0,))) == ClopenSet.full()


def _view_tails(view) -> tuple:
    """The words of a clopen oracle's localization, cut at its depth, as tuples."""
    return tuple(tuple(map(int, w[view.depth:])) for w in view.root.words[view.lo:view.hi])


@given(clopens, clopens)
def test_operations_build_canonical_sets(a, b):
    # The operations skip renormalizing; their words must already be canonical,
    # and so must the tails below either letter of a clopen oracle's view.
    for result in (a.complement(), a.intersect(b), a.union(b), a.difference(b)):
        assert ClopenSet(result.words).words == result.words
    for letter in (0, 1):
        view = clopen_oracle(a).child(letter)
        if isinstance(view, ClopenOracle):
            assert ClopenSet(_view_tails(view)).words == _view_tails(view)


def test_measure_examples():
    assert ClopenSet.empty().measure() == 0
    assert ClopenSet.full().measure() == 1
    assert ClopenSet.from_words([(0,), (1, 0)]).measure() == F(3, 4)


def test_localize():
    c = clopen_oracle(ClopenSet.from_words([(0, 1), (1, 0, 0)]))
    zero, one = c.child(0), c.child(1)
    assert _view_tails(zero) == ((1,),)
    assert zero.child(1) is FULL_SEGMENT
    assert one.child(1) is EMPTY_SEGMENT
    assert c.measure_bounds() == RatInterval.point(F(3, 8))
    assert one.measure_bounds() == RatInterval.point(F(1, 4))


@given(clopens)
def test_complement_partitions_measure(c):
    comp = c.complement()
    assert c.measure() + comp.measure() == 1
    assert c.intersect(comp) == ClopenSet.empty()
    assert c.union(comp) == ClopenSet.full()
    assert comp.complement() == c


@given(clopens, clopens)
def test_inclusion_exclusion(a, b):
    assert a.union(b).measure() + a.intersect(b).measure() == a.measure() + b.measure()


@given(clopens, clopens)
def test_difference(a, b):
    assert a.difference(b).measure() == a.measure() - a.intersect(b).measure()
    assert a.union(b).includes(a)
    assert a.includes(a.intersect(b))


@given(clopens)
def test_halves_average_to_measure(c):
    oracle = clopen_oracle(c)
    left, right = (oracle.child(letter).measure_bounds().lo for letter in (0, 1))
    assert (left + right) / 2 == c.measure() == oracle.measure_bounds().lo


def test_piece_of_measure_examples():
    assert piece_of_measure(F(1, 2)).words == ((0,),)
    assert piece_of_measure(F(3, 4)).words == ((0,), (1, 0))
    assert piece_of_measure(F(1, 4)).words == ((0, 0),)
    assert piece_of_measure(F(0)) == ClopenSet.empty()
    assert piece_of_measure(F(1)) == ClopenSet.full()


@given(st.integers(0, 256))
def test_piece_of_measure_is_exact(k):
    amount = F(k, 256)
    piece = piece_of_measure(amount)
    assert piece.measure() == amount


def test_take_submass_subset_and_exact():
    c = ClopenSet.from_words([(0, 1), (1,)])
    sub = c.take_submass(F(1, 2))
    assert sub.measure() == F(1, 2)
    assert c.includes(sub)
    with pytest.raises(ValueError):
        c.take_submass(F(7, 8))
    with pytest.raises(ValueError):
        c.take_submass(F(1, 3))


@given(clopens, st.integers(0, 64))
def test_take_submass_lex_first(c, k):
    amount = F(k, 64)
    if amount > c.measure():
        return
    sub = c.take_submass(amount)
    assert sub.measure() == amount
    assert c.includes(sub)


def test_union_all():
    parts = [ClopenSet.cylinder((0, 0)), ClopenSet.cylinder((0, 1))]
    assert union_all(parts).words == ((0,),)


def test_piece_of_measure_is_the_greedy_piece():
    assert piece_of_measure(F(3, 4)) == ClopenSet.from_words([(0,), (1, 0)])
    assert piece_of_measure(F(1)) == ClopenSet.full()
    assert piece_of_measure(F(1, 2)).words == ((0,),)


def test_subset_of_measure_strict_range():
    container = ClopenSet.from_words([(0,), (1, 0)])
    sub = subset_of_measure(container, F(1, 2))
    assert sub.words == ((0,),)
    assert container.includes(sub)
    assert subset_of_measure(ClopenSet.full(), F(1, 4)) == piece_of_measure(F(1, 4))
    for out_of_range in (F(0), F(3, 4), F(1)):
        with pytest.raises(ValueError):
            subset_of_measure(container, out_of_range)


@given(clopens, st.integers(1, 63))
def test_subset_of_measure_contained_and_exact(container, k):
    amount = F(k, 64)
    if not amount < container.measure():
        return
    sub = subset_of_measure(container, amount)
    assert sub.measure() == amount
    assert container.includes(sub)


DEEP = (0, 1) * 750


def test_deep_word_complement():
    # Every off-path sibling of the one word, shallowest first on the
    # left of it and deepest first on the right.
    comp = ClopenSet.cylinder(DEEP).complement()
    left = [DEEP[:i] + (0,) for i in range(1, len(DEEP), 2)]
    right = [DEEP[:i] + (1,) for i in range(len(DEEP) - 2, -1, -2)]
    assert comp.words == tuple(left + right)
    assert comp.measure() == 1 - F(1, 2**1500)
    assert comp.complement().words == (DEEP,)


def test_deep_word_intersect():
    deep = ClopenSet.cylinder(DEEP)
    zero = ClopenSet.cylinder((0,))
    assert deep.intersect(zero).words == (DEEP,)
    assert zero.intersect(deep).words == (DEEP,)
    assert zero.intersect(deep).measure() == F(1, 2**1500)
    assert ClopenSet.cylinder((1,)).intersect(deep) == ClopenSet.empty()


def test_deep_word_take_submass():
    deep = ClopenSet.cylinder(DEEP)
    assert deep.take_submass(F(1, 2**1501)).words == (DEEP + (0,),)
    assert deep.take_submass(F(3, 2**1502)).words == (DEEP + (0,), DEEP + (1, 0))
    assert deep.take_submass(F(1, 2**1500)) == deep
    assert ClopenSet.full().take_submass(F(1, 2**1500)).words == ((0,) * 1500,)
    with pytest.raises(ValueError, match="no subset of measure"):
        deep.take_submass(F(1, 2**1499))


def _random_set(rng: Random) -> ClopenSet:
    """Empty, full, or a union of up to nine random words of lengths 1 to 7."""
    shape = rng.randrange(10)
    if shape == 0:
        return ClopenSet.empty()
    if shape == 1:
        return ClopenSet.full()
    words = [tuple(rng.randrange(2) for _ in range(rng.randrange(1, 8)))
             for _ in range(rng.randrange(1, 10))]
    return ClopenSet.from_words(words)


def _random_pair(rng: Random) -> tuple[ClopenSet, ClopenSet]:
    """Independent sets, or a set with a subset or superset of it."""
    a, b = _random_set(rng), _random_set(rng)
    shape = rng.randrange(3)
    if shape == 1:
        b = a.intersect(b)
    elif shape == 2:
        extended = [w + tuple(rng.randrange(2) for _ in range(rng.randrange(3))) for w in a.words]
        a, b = ClopenSet.from_words(extended), a
    return a, b


def _random_amount(rng: Random, c: ClopenSet) -> Fraction:
    """Mostly dyadic amounts up to the measure, and a few outside the
    range or not dyadic, so the error texts are compared too."""
    shape = rng.randrange(10)
    if shape == 0:
        return F(rng.randrange(1, 8), rng.choice((3, 5, 6, 12)))
    if shape == 1:
        return c.measure() + F(1, 1 << rng.randrange(12))
    if shape == 2:
        return -F(1, 1 << rng.randrange(4))
    exponent = rng.randrange(12)
    return c.measure() * F(rng.randrange((1 << exponent) + 1), 1 << exponent)


def _taken_words(operation):
    try:
        return operation().words
    except ValueError as err:
        return f"ValueError: {err}"


def test_one_pass_algebra_matches_the_recursion():
    rng = Random(1705)
    for _ in range(2500):
        a, b = _random_pair(rng)
        note = (a, b)
        assert a.measure() == antichain_measure(a.words), note
        assert a.complement().words == reference_complement(a).words, note
        assert a.intersect(b).words == reference_intersect(a, b).words, note
        assert b.intersect(a).words == reference_intersect(b, a).words, note
        reference_difference = reference_intersect(a, reference_complement(b))
        assert a.difference(b).words == reference_difference.words, note
        assert a.includes(b) == (reference_intersect(a, b) == b), note
        amount = _random_amount(rng, a)
        taken = _taken_words(lambda: a.take_submass(amount))
        assert taken == _taken_words(lambda: reference_take_submass(a, amount)), (note, amount)


def test_one_loop_normalize_matches_the_stack_merge():
    # The same loop canonicalizes tuples and "01" strings, and a set read
    # from strings equals the set read from their tuples.
    rng = Random(2285)
    for _ in range(6000):
        words = random_word_list(rng)
        strings = ["".join(map(str, w)) for w in words]
        expected = normalize_reference(words)
        assert tuple(canonical_antichain(words)) == expected, words
        assert tuple(canonical_antichain(strings)) == tuple("".join(map(str, w)) for w in expected), words
        from_strings = oracle_from_spec({"kind": "clopen", "words": strings})
        assert from_strings.words == digit_words(ClopenSet.from_words(words)), words
        assert all(type(w) is str for w in from_strings.words)
