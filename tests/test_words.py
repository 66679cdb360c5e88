import itertools

from hypothesis import given
from hypothesis import strategies as st

from cantordensity.branches import Branch, StretchedBranch, interleave_branches
from cantordensity.words import (
    bits_to_runs,
    decode_head,
    deinterleave,
    is_prefix,
    order_at_depth,
    runs_to_bits,
    split_trailing_zeros,
    stretch,
    triangular,
)

from oracletools import mixed_blocks, parse_word, points_at_depth

binary_words = st.lists(st.integers(0, 1), max_size=12).map(tuple)
nat_words = st.lists(st.integers(0, 6), max_size=8).map(tuple)


def test_split_trailing_zeros_examples():
    assert split_trailing_zeros(()) == ((), 0)
    assert split_trailing_zeros((0, 0)) == ((), 2)
    assert split_trailing_zeros((1, 0, 1)) == ((1, 0, 1), 0)
    assert split_trailing_zeros((0, 1, 0, 0)) == ((0, 1), 2)


@given(binary_words)
def test_split_trailing_zeros_reassembles(word):
    head, count = split_trailing_zeros(word)
    assert head + (0,) * count == word
    assert head == () or head[-1] == 1


def test_codec_examples():
    assert runs_to_bits(()) == ()
    assert runs_to_bits((0,)) == (1,)
    assert runs_to_bits((2, 0, 1)) == (0, 0, 1, 1, 0, 1)
    assert bits_to_runs((0, 0, 1, 1, 0, 1)) == (2, 0, 1)


def test_codec_rejects_trailing_zero():
    try:
        bits_to_runs((1, 0))
    except ValueError:
        pass
    else:
        raise AssertionError("decoded a word outside the codec range")


@given(nat_words)
def test_codec_round_trip(runs):
    assert bits_to_runs(runs_to_bits(runs)) == runs


def test_decode_head_ignores_trailing_zeros():
    assert decode_head((0, 1, 0, 0)) == (1,)
    assert decode_head((1, 1)) == (0, 0)
    assert decode_head((0, 0)) == ()


def test_interleave_examples():
    assert deinterleave((1, 0, 0, 1)) == ((1, 0), (0, 1))
    assert deinterleave((1, 0, 0, 1, 1)) == ((1, 0, 1), (0, 1))
    assert deinterleave(()) == ((), ())
    woven = interleave_branches(Branch((1,), (0,)), Branch((), (0, 1)))
    assert woven.prefix(7) == (1, 0, 0, 1, 0, 0, 0)


@given(binary_words)
def test_deinterleave_undoes_interleave(word):
    # The even slots are one letter longer or as long as the odd ones, and
    # alternating them letter by letter gives the word back.
    evens, odds = deinterleave(word)
    assert len(evens) - len(odds) in (0, 1)
    pairs = itertools.zip_longest(evens, odds)
    assert tuple(letter for pair in pairs for letter in pair if letter is not None) == word


def test_triangular_and_order():
    assert [triangular(k) for k in range(5)] == [0, 1, 3, 6, 10]
    assert order_at_depth(0) == 0
    assert order_at_depth(9) == 3
    assert order_at_depth(10) == 4
    assert order_at_depth(14) == 4
    assert order_at_depth(15) == 5


def test_order_at_depth_matches_the_triangular_walk():
    k = 0
    for depth in range(100_000):
        while triangular(k + 1) <= depth:
            k += 1
        assert order_at_depth(depth) == k
    k = order_at_depth(10**30)
    assert triangular(k) <= 10**30 < triangular(k + 1)


def test_stretch_examples():
    assert stretch(()) == ()
    assert stretch((1,)) == (1,)
    assert stretch((1, 0)) == (1, 0, 0)
    assert stretch((0, 1, 1)) == (0, 1, 1, 1, 1, 1)


@given(binary_words)
def test_stretch_length_is_triangular(word):
    assert len(stretch(word)) == triangular(len(word))


def test_stretch_prefix_matches_stretch():
    word = (1, 0, 1, 1)
    full = stretch(word + (0, 0, 0))
    point = StretchedBranch(Branch(word, (0,)))
    for depth in range(len(full) + 1):
        assert point.prefix(depth) == full[:depth]


@given(binary_words, st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple),
       st.booleans())
def test_runs_spell_the_point(head, cycle, stretched):
    base = Branch(head, cycle)
    point = StretchedBranch(base) if stretched else base
    runs = list(itertools.islice(point.runs(), 90))
    letters = []
    for letter, count in runs:
        letters += [letter] * (90 if count is None else count)
    assert tuple(letters[:90]) == point.prefix(90)
    # Maximal runs: no empty one, and neighbours differ.
    assert all(count is None or count > 0 for _, count in runs)
    assert all(a != b for (a, _), (b, _) in zip(runs, runs[1:]))
    # The count is None exactly from where the point is constant for good.
    tail = base.constant_tail()
    assert (runs[-1][1] is None) == (tail is not None)
    if tail is not None:
        constant_from = triangular(tail[1]) if stretched else tail[1]
        assert sum(count for _, count in runs[:-1]) == constant_from


def test_mixed_blocks():
    assert mixed_blocks(0) == ()
    assert mixed_blocks(1) == ((0, 1), (1, 0))
    blocks = mixed_blocks(2)
    assert len(blocks) == 6
    assert (0, 0, 0) not in blocks and (1, 1, 1) not in blocks


@given(st.integers(1, 5))
def test_mixed_blocks_count(order):
    assert len(mixed_blocks(order)) == 2 ** (order + 1) - 2


def test_parse_and_enumerate():
    assert parse_word("0110") == (0, 1, 1, 0)
    assert parse_word("") == ()
    assert len(list(points_at_depth(3))) == 8
    assert is_prefix((0, 1), (0, 1, 1))
    assert not is_prefix((1,), (0, 1))


def test_combinatorial_names_bind_the_right_ops():
    assert split_trailing_zeros((0, 1, 1, 0, 0)) == ((0, 1, 1), 2)
    assert split_trailing_zeros((0, 0)) == ((), 2)
    assert runs_to_bits((2, 0, 1)) == (0, 0, 1, 1, 0, 1)
    assert runs_to_bits(()) == ()
    assert decode_head((0, 0, 1, 1, 0, 1, 0)) == (2, 0, 1)
    assert decode_head((0, 0)) == ()
    assert mixed_blocks(0) == ()
    assert mixed_blocks(1) == ((0, 1), (1, 0))
    assert runs_to_bits((0, 2)) == (1, 0, 0, 1)
    assert runs_to_bits((1,)) == (0, 1)
