"""JSON spec layer: documents to oracles, branches, trees, and back."""

import json
import random
import re
from fractions import Fraction

import pytest

from cantordensity import jsonio
from cantordensity.branches import Branch, StretchedBranch
from cantordensity.clopen import ClopenSet
from cantordensity.dyadics import RatInterval, format_fraction
from cantordensity.jsonio import (
    SpecError,
    binary_word_from_spec,
    branch_from_spec,
    fraction_from_spec,
    interval_record,
    oracle_from_spec,
    trace_lines,
    tree_from_spec,
    tree_to_spec,
    verdict_record,
    word_from_spec,
    word_to_spec,
)
from cantordensity.oracles import Verdict
from oracletools import digit_words

F = Fraction


def test_fraction_and_word_parsing():
    assert fraction_from_spec("5/8") == F(5, 8)
    assert fraction_from_spec("2") == F(2)
    assert fraction_from_spec(" 0.25 ") == F(1, 4)
    for bad in ("0.5x", "1/0"):
        with pytest.raises(SpecError, match=re.escape(f"not a rational: {bad!r}")):
            fraction_from_spec(bad)
    assert word_from_spec("") == ()
    assert word_from_spec("0110") == (0, 1, 1, 0)
    assert word_from_spec([0, 3, 2]) == (0, 3, 2)
    assert word_to_spec((1, 0, 1)) == "101"
    for bad in (5, "a/b", "1/0"):
        with pytest.raises(SpecError):
            fraction_from_spec(bad)
    # Unicode digits other than 0-9 (superscript two, Arabic-Indic one)
    # are no letters.
    for bad in ("1a", [0, -1], [True], "0\u00b2", "\u0661"):
        with pytest.raises(SpecError):
            word_from_spec(bad)


def test_tree_round_trip():
    doc = {
        "nodes": ["", "0", "1", "01"],
        "policies": {"01": {"periodic": "1"}, "1": "full"},
    }
    tree = tree_from_spec(doc)
    assert tree.member((0, 1, 1, 1))
    assert tree.member((1, 0, 0, 1))
    assert not tree.member((0, 0))
    assert not tree.member((0, 1, 0))
    again = tree_from_spec(tree_to_spec(tree))
    assert again.nodes == tree.nodes
    assert again.policies == tree.policies


def test_tree_spec_rejects_structural_defects():
    with pytest.raises(SpecError):
        tree_from_spec({"nodes": ["", "00"], "policies": {"00": "full"}})
    with pytest.raises(SpecError):
        tree_from_spec({"nodes": ["", "0"], "policies": {}})
    with pytest.raises(SpecError):
        tree_from_spec({"nodes": [""], "policies": {"": "sideways"}})
    with pytest.raises(SpecError):
        tree_from_spec({"nodes": [""], "policies": {"": "full"}, "arity": 1})


def test_branch_kinds():
    zeros = branch_from_spec({"kind": "ev_periodic", "head": "", "period": "0"})
    assert zeros == Branch((), (0,))
    baire = branch_from_spec({"kind": "baire", "head": [0, 2], "period": [1]})
    assert baire.prefix(6) == (1, 0, 0, 1, 0, 1)
    stretched = branch_from_spec(
        {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "10"}}
    )
    assert isinstance(stretched, StretchedBranch)
    assert stretched.prefix(6) == (1, 0, 0, 1, 1, 1)
    woven = branch_from_spec(
        {
            "kind": "interleave",
            "x": {"kind": "ev_periodic", "period": "0"},
            "y": {"kind": "ev_periodic", "period": "1"},
        }
    )
    assert woven.prefix(4) == (0, 1, 0, 1)


def test_branch_domain_limits():
    stretch_doc = {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "1"}}
    with pytest.raises(ValueError, match="stretched"):
        branch_from_spec({"kind": "stretch", "of": stretch_doc})
    with pytest.raises(ValueError, match="interleaved"):
        branch_from_spec(
            {"kind": "interleave", "x": stretch_doc, "y": stretch_doc}
        )
    with pytest.raises(SpecError):
        branch_from_spec({"kind": "ev_periodic", "period": ""})
    with pytest.raises(SpecError):
        branch_from_spec({"kind": "ev_periodic", "period": "2"})


def test_set_spec_kinds_evaluate():
    clopen = oracle_from_spec({"kind": "clopen", "words": ["01", "110"]})
    assert clopen.measure_bounds() == RatInterval.point(F(3, 8))
    dualistic = oracle_from_spec({"kind": "dualistic", "measure": "5/8"})
    assert dualistic.measure_bounds() == RatInterval.point(F(5, 8))
    solid = oracle_from_spec({"kind": "countable-range", "values": ["1/3", "1/2"]})
    assert solid.measure_bounds().is_point()
    offspring = oracle_from_spec(
        {
            "kind": "offspring",
            "tree": {"nodes": [""], "policies": {"": "full"}},
            "labels": {"": "1/2"},
            "default_label": "1/2",
            "variant": "closed",
        }
    )
    box = offspring.measure_bounds(20)
    assert box.contains(F(1, 2)) and box.width <= F(1, 512)
    composed = oracle_from_spec(
        {
            "kind": "compose",
            "parts": [
                {"prefix": "0", "set": {"kind": "clopen", "words": [""]}},
                {"prefix": "1", "set": {"kind": "clopen", "words": []}},
            ],
        }
    )
    assert composed.measure_bounds() == RatInterval.point(F(1, 2))
    flipped = oracle_from_spec(
        {"kind": "complement", "of": {"kind": "clopen", "words": ["0"]}}
    )
    assert flipped.measure_bounds() == RatInterval.point(F(1, 2))
    assert flipped.localize((0,)).measure_bounds() == RatInterval.point(F(0))


def test_reduction_specs_evaluate():
    second = oracle_from_spec({"kind": "reduction", "which": "second"})
    assert second.measure_bounds(10).contains(F(1, 2))
    first = oracle_from_spec(
        {
            "kind": "reduction",
            "which": "first",
            "function": {"preset": "constant", "value": "1/2"},
            "tree": {"nodes": [""], "policies": {"": "zeros"}},
        }
    )
    assert first.measure_bounds(10).width < 1
    third = oracle_from_spec(
        {
            "kind": "reduction",
            "which": "third",
            "function": {"preset": "injective", "eps": "1/4"},
        }
    )
    assert third.measure_bounds(8).width < 1
    with pytest.raises(SpecError):
        oracle_from_spec({"kind": "reduction", "which": "fourth"})
    with pytest.raises(SpecError):
        oracle_from_spec({"kind": "reduction", "which": "first"})


def test_spec_errors_vs_domain_errors():
    # Malformed documents are spec errors.
    with pytest.raises(SpecError):
        oracle_from_spec({"kind": "dualistic"})
    with pytest.raises(SpecError):
        oracle_from_spec({"kind": "clopen", "words": "01"})
    with pytest.raises(SpecError):
        oracle_from_spec({"kind": "compose", "parts": []})
    # Well-formed documents with out-of-range values keep the module's
    # own error type and message.
    with pytest.raises(ValueError, match="measure must be in"):
        oracle_from_spec({"kind": "dualistic", "measure": "3/2"})
    with pytest.raises(ValueError, match="pairwise distinct"):
        oracle_from_spec({"kind": "countable-range", "values": ["1/3", "1/3"]})
    with pytest.raises(ValueError, match="comparable"):
        oracle_from_spec(
            {
                "kind": "compose",
                "parts": [
                    {"prefix": "0", "set": {"kind": "clopen", "words": [""]}},
                    {"prefix": "01", "set": {"kind": "clopen", "words": [""]}},
                ],
            }
        )
    # Prefixes out of sorted order: the message names the first comparable
    # pair in the given order, whatever order the check itself walks in.
    for prefixes, message in [
        (["1", "00", "0"], "graft words (0, 0) and (0,) are comparable"),
        (["01", "1", "0"], "graft words (0, 1) and (0,) are comparable"),
    ]:
        parts = [{"prefix": prefix, "set": {"kind": "clopen", "words": [""]}} for prefix in prefixes]
        with pytest.raises(ValueError) as raised:
            oracle_from_spec({"kind": "compose", "parts": parts})
        assert str(raised.value) == message


def test_countable_range_values_are_distinct_as_rationals():
    # Values are compared as reduced rationals: two spellings of one value
    # repeat it, while values that share only a numerator or only a
    # denominator are distinct.
    with pytest.raises(ValueError, match="pairwise distinct"):
        oracle_from_spec({"kind": "countable-range", "values": ["1/3", "2/6"]})
    oracle = oracle_from_spec({"kind": "countable-range", "values": ["1/3", "1/4", "2/3"]})
    total = oracle.measure_bounds()
    assert total.is_point() and 0 < total.lo < 1


def _per_word_decode(raw: list) -> ClopenSet:
    """A clopen "words" array read word by word, raising the first bad
    word's SpecError."""
    return ClopenSet.from_words([binary_word_from_spec(w, "clopen word") for w in raw])


def _digit_strings(rng: random.Random, count: int) -> list[str]:
    return ["".join(rng.choice("01") for _ in range(rng.randrange(9))) for _ in range(count)]


BAD_CLOPEN_ENTRIES = (None, True, 3, "2", "\u0663", "0a", [0, 2], [True], [-1], [[0]])


@pytest.mark.parametrize("bad", BAD_CLOPEN_ENTRIES, ids=repr)
def test_clopen_words_raise_the_first_bad_words_error(bad):
    rng = random.Random(repr(bad))
    for _ in range(20):
        raw = _digit_strings(rng, rng.randrange(1, 30))
        if rng.randrange(2):
            raw = [[int(d) for d in w] if rng.randrange(2) else w for w in raw]
        raw.insert(rng.randrange(len(raw) + 1), bad)
        with pytest.raises(SpecError) as expected:
            _per_word_decode(raw)
        with pytest.raises(SpecError) as raised:
            oracle_from_spec({"kind": "clopen", "words": raw})
        assert str(raised.value) == str(expected.value)


def test_clopen_words_decode_alike_as_strings_arrays_and_mixed():
    rng = random.Random(5)
    for _ in range(300):
        strings = _digit_strings(rng, rng.randrange(40))
        arrays = [[int(d) for d in w] for w in strings]
        mixed = [a if rng.randrange(2) else w for w, a in zip(strings, arrays)]
        expected = digit_words(_per_word_decode(strings))
        for raw in (strings, arrays, mixed):
            assert oracle_from_spec({"kind": "clopen", "words": raw}).words == expected, raw


def test_digit_string_clopen_words_skip_the_per_word_decoder(monkeypatch):
    calls = []

    def counted(value, what="word"):
        calls.append(value)
        return binary_word_from_spec(value, what)

    monkeypatch.setattr(jsonio, "binary_word_from_spec", counted)
    raw = _digit_strings(random.Random(200), 200)
    assert oracle_from_spec({"kind": "clopen", "words": raw}).words == digit_words(_per_word_decode(raw))
    assert calls == []
    oracle_from_spec({"kind": "clopen", "words": raw + [[1, 0]]})
    assert len(calls) == 201


def test_output_records():
    assert interval_record(RatInterval(F(1, 3), F(1, 2))) == {"lo": "1/3", "hi": "1/2"}
    box = RatInterval(F(3, 8), F(13, 32))
    assert list(trace_lines([(box, 1), (box, 1)])) == ['{"n": 0, "lo": "3/8", "hi": "13/32"}',
                                                       '{"n": 1, "lo": "3/8", "hi": "13/32"}']
    verdict = Verdict(kind="blurry", interval=RatInterval(F(0), F(1)), delta=F(1, 4), depth=30)
    record = verdict_record(verdict)
    assert record["verdict"] == "blurry"
    assert record["delta"] == "1/4"
    assert record["lo"] == "0" and record["hi"] == "1"
    plain = verdict_record(Verdict(kind="undetermined", depth=5))
    assert plain == {"verdict": "undetermined", "depth": 5}


def test_trace_lines_are_the_json_of_their_records():
    # Runs of one interval object, equal intervals that are distinct
    # objects, and fresh intervals, mixed.
    rng = random.Random(13)
    ends = [F(0), F(1)]
    bounds = []
    for _ in range(2000):
        if bounds and rng.random() < 0.4:
            last = bounds[-1]
            bounds.append(last if rng.random() < 0.7 else RatInterval(last.lo, last.hi))
            continue
        if rng.random() < 0.2:
            lo, hi = sorted(rng.choice(ends) for _ in range(2))
        else:
            q = rng.choice((1, 3, 1 << rng.randrange(1, 40), rng.randrange(1, 10**30)))
            lo, hi = sorted(F(rng.randrange(-q, 2 * q + 1), q) for _ in range(2))
        bounds.append(RatInterval(lo, hi))
    lines = list(trace_lines([(interval, 1) for interval in bounds]))
    assert len(lines) == len(bounds)
    for n, (line, interval) in enumerate(zip(lines, bounds)):
        record = {"n": n, "lo": format_fraction(interval.lo), "hi": format_fraction(interval.hi)}
        assert line == json.dumps(record)


@pytest.mark.parametrize("spec, point, settled_by", [
    # A clopen set of depth 5 is a settled segment from depth 5 on.
    ({"kind": "clopen", "words": ["01101", "1"]}, Branch((0, 1, 1), (0, 1)), 5),
    # The designated point 0^3 1^3 0^w enters a spine at depth 6, and
    # the spine is its own child from there on.
    ({"kind": "countable-range", "values": ["1/4", "2/7", "3/5"]}, Branch((0, 0, 0, 1, 1, 1), (0,)), 6),
])
def test_trace_lines_format_each_repeated_interval_once(monkeypatch, spec, point, settled_by):
    calls = []

    def counted(value):
        calls.append(value)
        return format_fraction(value)

    monkeypatch.setattr(jsonio, "format_fraction", counted)
    lines = "\n".join(trace_lines(oracle_from_spec(spec).bound_runs(point, 0, 200))).split("\n")
    assert len(lines) == 200
    assert len(calls) <= 2 * (settled_by + 1)
