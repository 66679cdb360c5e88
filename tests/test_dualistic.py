"""Prescribed-measure constructions against the independent series oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordensity.branches import Branch
from cantordensity.dualistic import (
    SpongyMeasureOracle,
    THIRD,
    dualistic_of_measure,
    first_family_word,
    second_family_words,
    solid_countable_range,
)
from cantordensity.dyadics import RatInterval
from cantordensity.oracles import ClopenOracle, ComplementOracle
from oracletools import antichain_measure, spongy_digit_pieces, spongy_series_measure

F = Fraction


def test_family_measures_are_exact():
    # The second family's union is the first's complement minus the
    # all-zeros point, a null difference.
    first = SpongyMeasureOracle(THIRD)
    assert first.measure_bounds() == RatInterval.point(F(1, 3))
    assert ComplementOracle(first).measure_bounds() == RatInterval.point(F(2, 3))


def test_family_words_partition_up_to_the_spine():
    # Finite check: every word of length 6 extends exactly one family
    # word or is an initial segment of the all-zeros spine.
    from oracletools import points_at_depth

    first = [first_family_word(n) for n in range(1, 7)]
    second = [w for w in second_family_words(6)]
    for w in points_at_depth(6):
        hits = sum(1 for u in first + second if w[: len(u)] == u)
        on_spine = all(letter == 0 for letter in w)
        partial = any(w == u[: len(w)] for u in first + second)
        assert hits == 1 or on_spine or partial


# Frozen piece profiles: rate -> first four piece measures.
PROFILE_GOLDENS = {
    F(1, 4): [F(1), F(0), F(0), F(0)],
    F(1, 8): [F(1, 2), F(0), F(0), F(0)],
    F(1, 3): [F(1), F(1), F(1), F(1)],
    F(5, 24): [F(3, 4), F(1, 4), F(1, 4), F(1, 4)],
    F(1, 6): [F(1, 2), F(1, 2), F(1, 2), F(1, 2)],
}


def test_piece_profiles_match_frozen_values():
    for rate, pieces in PROFILE_GOLDENS.items():
        oracle = SpongyMeasureOracle(rate)
        assert [oracle.piece_measure(n) for n in (1, 2, 3, 4)] == pieces
        assert spongy_digit_pieces(rate, 4) == pieces


def test_spongy_localizations_frozen():
    oracle = SpongyMeasureOracle(F(5, 24))
    assert oracle.local_bounds((), 0) == RatInterval.point(F(5, 24))
    assert oracle.local_bounds((0,), 0) == RatInterval.point(F(5, 12))
    assert oracle.local_bounds((0, 1), 0) == RatInterval.point(F(3, 4))
    assert oracle.local_bounds((0, 1, 0), 0) == RatInterval.point(F(1))
    assert oracle.local_bounds((0, 1, 1), 0) == RatInterval.point(F(1, 2))
    assert oracle.local_bounds((0, 0, 1, 1), 0) == RatInterval.point(F(1, 4))
    assert oracle.local_bounds((0, 0, 0), 0) == RatInterval.point(F(1, 24))
    assert oracle.local_bounds((1,), 0) == RatInterval.point(F(0))
    assert oracle.local_bounds((0, 0, 1, 0), 0) == RatInterval.point(F(0))


@given(
    st.fractions(min_value=0, max_value=F(1, 3), max_denominator=5000),
    st.lists(st.integers(min_value=0, max_value=1), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_spongy_halves_average(rate, word):
    oracle = SpongyMeasureOracle(rate)
    word = tuple(word)
    here = oracle.local_bounds(word, 0).lo
    assert oracle.local_bounds(word, 0).is_point()
    assert 0 <= here <= 1
    left = oracle.local_bounds(word + (0,), 0).lo
    right = oracle.local_bounds(word + (1,), 0).lo
    assert here == (left + right) / 2


@given(st.fractions(min_value=0, max_value=F(1, 3), max_denominator=10**6))
@settings(max_examples=80, deadline=None)
def test_spongy_measure_equals_series(rate):
    oracle = SpongyMeasureOracle(rate)
    assert oracle.measure_bounds() == RatInterval.point(spongy_series_measure(rate))
    assert spongy_series_measure(rate) == rate


def test_spongy_root_bound_is_the_whole_series():
    # The root answers with the measure itself: tail_sum(1) sums the
    # whole series, the leading 1-digits included, so the two agree.
    # Rates with a late first zero digit run long 1-digit heads.
    rng = random.Random(130)
    rates = [THIRD, F(0)]
    while len(rates) < 2000:
        if rng.random() < 0.5:
            q = rng.randrange(1, 10**6)
            rates.append(F(rng.randrange(q // 3 + 1), q))
        else:
            first_zero = rng.randrange(1, 60)
            head = (1 - F(1, 4 ** (first_zero - 1))) / 3
            tail = F(rng.randrange(1 << 20), 1 << 20) / 4**first_zero
            rates.append(head + tail)
    for rate in rates:
        oracle = SpongyMeasureOracle(rate)
        assert oracle.measure_bounds() == RatInterval.point(oracle.tail_sum(1)), rate
        assert oracle.measure_bounds() == RatInterval.point(rate)


def test_spongy_spine_bound():
    oracle = SpongyMeasureOracle(F(5, 24))
    for m in range(1, 20):
        value = oracle.local_bounds((0,) * m, 0)
        assert value.is_point()
        assert value.lo <= F(4, 3) / 2**m


def test_spongy_spine_certificate():
    oracle = SpongyMeasureOracle(F(5, 24))
    cert = oracle.tail_certificate(Branch.zeros(), effort=40)
    assert cert.interval.lo == 0
    assert cert.interval.hi <= F(4, 3) / 2**cert.start
    dead = oracle.tail_certificate(Branch((0, 0, 1, 0), (0,)), effort=40)
    assert dead.interval == RatInterval.point(F(0))
    # Below the root the point would be read as if it started there.
    assert oracle.child(0).tail_certificate(Branch((0, 1), (0,)), effort=40) is None


def test_dualistic_small_rate_is_pure_graft():
    built = dualistic_of_measure(F(1, 5))
    assert built.clopen_part is None
    assert built.spongy_rate == F(1, 5)
    assert built.oracle.measure_bounds() == RatInterval.point(F(1, 5))


def test_dualistic_half_frozen_decomposition():
    built = dualistic_of_measure(F(1, 2))
    assert built.clopen_part is not None
    assert built.clopen_part.measure() == F(1, 4)
    assert built.spongy_rate == F(1, 4)
    assert built.oracle.measure_bounds() == RatInterval.point(F(1, 2))


def test_dualistic_five_eighths_uses_half_chunk():
    built = dualistic_of_measure(F(5, 8))
    assert built.clopen_part.measure() == F(1, 2)
    assert built.spongy_rate == F(1, 8)


@given(st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=10**6))
@settings(max_examples=60, deadline=None)
def test_dualistic_measure_reconstruction(r):
    built = dualistic_of_measure(r)
    independent = spongy_series_measure(built.spongy_rate)
    if built.clopen_part is not None:
        independent += antichain_measure(built.clopen_part.words)
        assert built.clopen_part.measure() == antichain_measure(built.clopen_part.words)
    assert independent == r
    assert built.oracle.measure_bounds() == RatInterval.point(r)


def test_dualistic_rejects_out_of_range():
    for bad in (F(0), F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError):
            dualistic_of_measure(bad)


def test_dualistic_spine_trace_obeys_tail_bound():
    built = dualistic_of_measure(F(7, 10))
    chunk = built.clopen_part
    for m in range(10, 31):
        word = (0,) * m
        value = built.oracle.local_bounds(word, 0)
        assert value.is_point()
        clopen_term = ClopenOracle(chunk).local_bounds(word, 0).lo
        assert value.lo <= clopen_term + F(4, 3) / 2**m
        if m > chunk.depth:
            assert clopen_term == 0


def test_solid_range_designated_points():
    values = [F(1, 3), F(1, 2), F(2, 3)]
    solid = solid_countable_range(values)
    assert solid.audit()
    for point, value in solid.designated_points():
        cert = solid.oracle.tail_certificate(point, effort=30)
        assert cert.interval == RatInterval.point(value)
        trace = list(solid.oracle.trace(point, 12))
        assert trace[-1].contains(value)
    spine = solid.oracle.tail_certificate(Branch.zeros(), effort=30)
    assert spine.interval == RatInterval.point(F(0))


def test_solid_range_empty_is_proper_clopen():
    solid = solid_countable_range([])
    total = solid.oracle.measure_bounds()
    assert total.is_point()
    assert 0 < total.lo < 1
    assert solid.designated_points() == []


def test_solid_range_rejects_duplicates_and_bad_values():
    with pytest.raises(ValueError):
        solid_countable_range([F(1, 3), F(1, 3)])
    with pytest.raises(ValueError):
        solid_countable_range([F(3, 2)])


def test_graft_series_oracle_frozen_measures():
    third = SpongyMeasureOracle(F(1, 3))
    assert third.measure_bounds() == RatInterval.point(F(1, 3))
    assert all(third.piece_measure(n) == 1 for n in range(1, 6))
    assert SpongyMeasureOracle(F(1, 4)).measure_bounds() == RatInterval.point(F(1, 4))
    assert SpongyMeasureOracle(F(1, 8)).measure_bounds() == RatInterval.point(F(1, 8))


def test_graft_series_oracle_range_guard():
    for outside in (F(1, 2), F(2, 5), F(-1, 3)):
        with pytest.raises(ValueError):
            SpongyMeasureOracle(outside)
