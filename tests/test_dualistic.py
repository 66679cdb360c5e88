"""Prescribed-measure constructions against the independent series oracle."""

import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordensity import dualistic
from cantordensity.branches import Branch
from cantordensity.dualistic import (
    SpongyMeasureOracle,
    THIRD,
    _second_family_chunk,
    dualistic_of_measure,
    first_family_word,
    second_family_words,
    solid_countable_range,
)
from cantordensity.dyadics import RatInterval, is_dyadic
from cantordensity.oracles import ComplementOracle, SegmentOracle, SpinePrefixOracle
from oracletools import (
    antichain_measure,
    base4_digit_reference,
    clopen_oracle,
    second_family_chunk_reference,
    spongy_digit_pieces,
    spongy_series_measure,
    spongy_tail_sum_reference,
)

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
        assert [oracle.localize((0,) * n).piece_measure() for n in (1, 2, 3, 4)] == pieces
        assert spongy_digit_pieces(rate, 4) == pieces


def test_spongy_localizations_frozen():
    oracle = SpongyMeasureOracle(F(5, 24))
    assert oracle.measure_bounds() == RatInterval.point(F(5, 24))
    assert oracle.localize((0,)).measure_bounds() == RatInterval.point(F(5, 12))
    assert oracle.localize((0, 1)).measure_bounds() == RatInterval.point(F(3, 4))
    assert oracle.localize((0, 1, 0)).measure_bounds() == RatInterval.point(F(1))
    assert oracle.localize((0, 1, 1)).measure_bounds() == RatInterval.point(F(1, 2))
    assert oracle.localize((0, 0, 1, 1)).measure_bounds() == RatInterval.point(F(1, 4))
    assert oracle.localize((0, 0, 0)).measure_bounds() == RatInterval.point(F(1, 24))
    assert oracle.localize((1,)).measure_bounds() == RatInterval.point(F(0))
    assert oracle.localize((0, 0, 1, 0)).measure_bounds() == RatInterval.point(F(0))


@given(
    st.fractions(min_value=0, max_value=F(1, 3), max_denominator=5000),
    st.lists(st.integers(min_value=0, max_value=1), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_spongy_halves_average(rate, word):
    oracle = SpongyMeasureOracle(rate)
    word = tuple(word)
    here = oracle.localize(word).measure_bounds().lo
    assert oracle.localize(word).measure_bounds().is_point()
    assert 0 <= here <= 1
    left = oracle.localize(word + (0,)).measure_bounds().lo
    right = oracle.localize(word + (1,)).measure_bounds().lo
    assert here == (left + right) / 2


@given(st.fractions(min_value=0, max_value=F(1, 3), max_denominator=10**6))
@settings(max_examples=80, deadline=None)
def test_spongy_measure_equals_series(rate):
    oracle = SpongyMeasureOracle(rate)
    assert oracle.measure_bounds() == RatInterval.point(spongy_series_measure(rate))
    assert spongy_series_measure(rate) == rate


def test_spongy_root_bound_is_the_whole_series():
    # The root answers with the measure itself, and the two halves below
    # it average to that: below 0 the shift state's 1 + frac(4r) counts
    # the leading 1-digits, below 1 nothing is grafted.
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
        halves = [oracle.child(letter).measure_bounds().lo for letter in (0, 1)]
        assert oracle.measure_bounds() == RatInterval.point(sum(halves) / 2), rate
        assert oracle.measure_bounds() == RatInterval.point(rate)


def test_integer_digits_match_fraction_formulas():
    # Below 0^m the base-4 shift state must give the piece f(m) that
    # Fraction scaling of the digits reads, at every depth down to the
    # deepest checked, and 2^m times the series tail at depth 1, at the
    # first zero digit and at a random depth up to 40, for rates with
    # long 1-digit heads and for exact quarters.
    rng = random.Random(1804)
    rates = [F(0), F(1, 4), F(5, 16)]
    while len(rates) < 2000:
        if rng.random() < 0.6:
            q = rng.randrange(1, 10**9)
            rates.append(F(rng.randrange(q // 3 + 1), q))
        else:
            first_zero = rng.randrange(1, 30)
            head = (1 - F(1, 4 ** (first_zero - 1))) / 3
            rates.append(head + F(rng.randrange(1 << 30), 1 << 30) / 4**first_zero)
    for rate in rates:
        if rate == THIRD:
            continue
        oracle = SpongyMeasureOracle(rate)
        first_zero = 1
        while base4_digit_reference(rate, first_zero):
            first_zero += 1
        depths = (1, first_zero, rng.randrange(1, 41))
        # walk[m] is the localization at 0^m.
        walk = [oracle]
        for _ in range(max(8, *depths)):
            walk.append(walk[-1].child(0))
        pieces = spongy_digit_pieces(rate, len(walk) - 1)
        assert [below.piece_measure() for below in walk[1:]] == pieces, rate
        for m in depths:
            tail = spongy_tail_sum_reference(rate, m)
            assert walk[m].measure_bounds() == RatInterval.point(2**m * tail), (rate, m)


def test_spine_bounds_read_the_prescribed_values():
    # Countable-range spines take their point bounds from the values
    # they are built with; reading each piece must give the same.
    values = [F(3, 8), F(1, 16), F(1, 5), F(2, 7), F(1, 3), F(2, 5), F(5, 7), F(99, 100)]
    spines = solid_countable_range(values).oracle.parts
    for value, (_, spine) in zip(values, spines):
        assert spine.bounds == spine.piece.measure_bounds() == RatInterval.point(value)

# Dyadic and non-dyadic values, on both sides of 1/3.
LAZY_VALUES = [F(1, 4), F(2, 7), F(3, 8), F(5, 13), F(1, 2), F(3, 10), F(5, 8), F(7, 9)]


def _countable_range_work(monkeypatch, values, head, cycle, depth) -> collections.Counter:
    """Calls made while building the countable-range set of the values and
    tracing it along head cycle^w: ``dualistic_of_measure`` calls,
    ``SegmentOracle`` constructions and spine ``measure_bounds`` calls."""
    counts = collections.Counter()

    def counting(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(dualistic, "dualistic_of_measure",
                      counting("dualistic", dualistic.dualistic_of_measure))
        patch.setattr(SegmentOracle, "__init__", counting("segment", SegmentOracle.__init__))
        patch.setattr(SpinePrefixOracle, "measure_bounds",
                      counting("spine bounds", SpinePrefixOracle.measure_bounds))
        list(solid_countable_range(values).oracle.bound_runs(Branch(head, cycle), 0, depth + 1))
    return counts


def test_countable_range_builds_only_the_entered_piece(monkeypatch):
    for n, value in enumerate(LAZY_VALUES, start=1):
        # The designated point 0^n 1^n 0^w rides spine n and enters no piece.
        designated = _countable_range_work(monkeypatch, LAZY_VALUES, (0,) * n + (1,) * n, (0,), 60)
        assert designated["dualistic"] == designated["segment"] == 0, (n, designated)
        # 0^n 1^n 1 0^w enters piece n, and only that one is built: a
        # segment for a dyadic value, a dualistic set otherwise.
        entering = _countable_range_work(monkeypatch, LAZY_VALUES, (0,) * n + (1,) * (n + 1), (0,), 60)
        expected = (1, 0) if is_dyadic(value) else (0, 1)
        assert (entering["segment"], entering["dualistic"]) == expected, (n, entering)
    # Along 0^w the views sum the spines' prescribed values without asking
    # the spines, so the work does not grow with the number of values.
    more = LAZY_VALUES + [F(1, 8), F(4, 11), F(3, 16), F(6, 7), F(1, 3), F(7, 16), F(2, 5), F(9, 17)]
    few, many = (_countable_range_work(monkeypatch, values, (), (0,), 40) for values in (LAZY_VALUES[:4], more))
    assert few["spine bounds"] == many["spine bounds"], (few, many)


def test_spongy_spine_bound():
    oracle = SpongyMeasureOracle(F(5, 24))
    for m in range(1, 20):
        value = oracle.localize((0,) * m).measure_bounds()
        assert value.is_point()
        assert value.lo <= F(4, 3) / 2**m


def test_spongy_spine_certificate():
    oracle = SpongyMeasureOracle(F(5, 24))
    cert = oracle.tail_certificate(Branch((), (0,)), effort=40)
    assert cert.interval.lo == 0
    assert cert.interval.hi <= F(4, 3) / 2**cert.start
    dead = oracle.tail_certificate(Branch((0, 0, 1, 0), (0,)), effort=40)
    assert dead.interval == RatInterval.point(F(0))
    # Below the root the point would be read as if it started there.
    assert oracle.child(0).tail_certificate(Branch((0, 1), (0,)), effort=40) is None


@pytest.mark.parametrize("head, cycle, start, value", [
    # n = 0: a first letter 1 leaves every graft.
    ((), (1, 0), 1, F(0)),
    # m < n: 0^3 1 0 leaves the graft at 0^3 1^3 one letter past the 1s.
    ((0, 0, 0, 1), (0,), 5, F(0)),
    # m = n: 0^3 1^3 enters the piece 1/4 at depth 6, and 0^w stays in it.
    ((0, 0, 0, 1, 1, 1), (0,), 8, F(1)),
    # m > n: the fourth 1 is the piece's first letter, which leaves it.
    ((0, 0, 0, 1, 1, 1, 1), (0,), 8, F(0)),
    # A 1^w tail: 0^2 1^w enters the piece 1/4 at depth 4.
    ((0, 0), (1,), 6, F(0)),
])
def test_spongy_certificate_reads_the_first_two_runs(head, cycle, start, value):
    # The point 0^n 1^m ...: pieces are 3/4, then 1/4 from n = 2 on.
    cert = SpongyMeasureOracle(F(5, 24)).tail_certificate(Branch(head, cycle), effort=40)
    assert (cert.start, cert.interval) == (start, RatInterval.point(value))


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


def test_second_family_chunk_matches_the_rebuilding_loop():
    # The integer measure walk picks the rebuilding loop's length, so the
    # chunk is the same set for every dyadic in (0, 2/3) up to 2^-10.
    checked = 0
    for exponent in range(1, 11):
        for numerator in range(1, 1 << exponent, 2):
            d = F(numerator, 1 << exponent)
            if d < F(2, 3):
                assert _second_family_chunk(d) == second_family_chunk_reference(d), d
                checked += 1
    assert checked == 682


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
        value = built.oracle.localize(word).measure_bounds()
        assert value.is_point()
        clopen_term = clopen_oracle(chunk).localize(word).measure_bounds().lo
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
        runs = list(solid.oracle.bound_runs(point, 0, 13))
        assert runs[-1][0].contains(value)
    spine = solid.oracle.tail_certificate(Branch((), (0,)), effort=30)
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
    assert all(third.localize((0,) * n).piece_measure() == 1 for n in range(1, 6))
    assert SpongyMeasureOracle(F(1, 4)).measure_bounds() == RatInterval.point(F(1, 4))
    assert SpongyMeasureOracle(F(1, 8)).measure_bounds() == RatInterval.point(F(1, 8))


def test_graft_series_oracle_range_guard():
    for outside in (F(1, 2), F(2, 5), F(-1, 3)):
        with pytest.raises(ValueError):
            SpongyMeasureOracle(outside)
