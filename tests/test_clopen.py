from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordensity.clopen import (
    ClopenSet,
    subset_of_measure,
    union_all,
)
from oracletools import piece_of_measure

F = Fraction

words = st.lists(st.integers(0, 1), max_size=6).map(tuple)
clopens = st.lists(words, max_size=8).map(ClopenSet.from_words)


def test_normal_form_merges_siblings():
    c = ClopenSet.from_words([(0,), (1, 0), (1, 1)])
    assert c.is_full()
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
    assert ClopenSet(((1,), (0,))).is_full()


@given(clopens, clopens)
def test_operations_build_canonical_sets(a, b):
    # The operations skip renormalizing; their words must already be canonical.
    for result in (*a.halves(), a.complement(), a.intersect(b), a.union(b), a.difference(b)):
        assert ClopenSet(result.words).words == result.words


def test_measure_examples():
    assert ClopenSet.empty().measure() == 0
    assert ClopenSet.full().measure() == 1
    assert ClopenSet.from_words([(0,), (1, 0)]).measure() == F(3, 4)


def test_localize():
    c = ClopenSet.from_words([(0, 1), (1, 0, 0)])
    zero, one = c.halves()
    assert zero.words == ((1,),)
    assert zero.halves()[1].is_full()
    assert one.halves()[1].is_empty()
    assert c.measure() == F(3, 8)
    assert one.measure() == F(1, 4)


@given(clopens)
def test_complement_partitions_measure(c):
    comp = c.complement()
    assert c.measure() + comp.measure() == 1
    assert c.intersect(comp).is_empty()
    assert c.union(comp).is_full()
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
    left, right = c.halves()
    assert (left.measure() + right.measure()) / 2 == c.measure()


def test_piece_of_measure_examples():
    assert piece_of_measure(F(1, 2)).words == ((0,),)
    assert piece_of_measure(F(3, 4)).words == ((0,), (1, 0))
    assert piece_of_measure(F(1, 4)).words == ((0, 0),)
    assert piece_of_measure(F(0)).is_empty()
    assert piece_of_measure(F(1)).is_full()


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
    assert piece_of_measure(F(1)).is_full()
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
