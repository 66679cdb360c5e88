"""Oracle framework: exact clopen oracles, combinators, classification."""

import collections
import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

from cantordensity import oracles
from cantordensity.branches import Branch, StretchedBranch, interleave_branches
from cantordensity.clopen import ClopenSet
from cantordensity.dualistic import dualistic_of_measure, solid_countable_range
from cantordensity.dyadics import EMPTY_MASS, FULL_MASS, RatInterval, is_dyadic
from cantordensity.jsonio import branch_from_spec, oracle_from_spec
from cantordensity.offspring import ExplicitLabels, OffspringOracle
from cantordensity.oracles import (
    EMPTY_SEGMENT,
    FULL_SEGMENT,
    ClopenOracle,
    ComplementOracle,
    DisjointSumOracle,
    GraftedUnionOracle,
    MeasureOracle,
    SegmentOracle,
    SpinePrefixOracle,
    TailCertificate,
    certified_oscillation,
)
from cantordensity.reductions import second_reduction
from cantordensity.trees import ExplicitTree
from cli_differential import random_branch, random_set
from clirunner import invoke
from oracletools import (
    antichain_measure,
    bound_runs_by_depths,
    bounds_along_by_depths,
    certified_oscillation_reference,
    clopen_oracle,
    cylinder_local_measure,
    grafted_union_bounds_reference,
    normalize_reference,
    piece_of_measure,
    random_word_list,
    spongy_local_measure,
    trace_output_by_depths,
)

F = Fraction


def test_clopen_oracle_is_exact_everywhere():
    oracle = ClopenOracle(["00", "1"])
    assert oracle.measure_bounds() == RatInterval.point(F(3, 4))
    assert oracle.localize((0,)).measure_bounds() == RatInterval.point(F(1, 2))
    assert oracle.localize((0, 1)).measure_bounds(48) == RatInterval.point(F(0))
    assert oracle.localize((1, 1, 0)).measure_bounds() == RatInterval.point(F(1))


def test_clopen_oracle_certificate_settles_at_depth():
    oracle = ClopenOracle(["00", "1"])
    inside = oracle.tail_certificate(Branch((0, 0), (1,)), effort=10)
    assert inside.interval == RatInterval.point(F(1))
    assert inside.start <= 2
    outside = oracle.tail_certificate(Branch((0, 1), (0,)), effort=10)
    assert outside.interval == RatInterval.point(F(0))


def test_clopen_trace_matches_localization():
    body = ClopenSet.from_words([(0, 1), (1, 0, 0)])
    oracle = clopen_oracle(body)
    point = Branch((0, 1, 1), (0,))
    runs = oracle.bound_runs(point, 0, 7)
    for depth, bounds in enumerate(b for b, count in runs for _ in range(count)):
        expected = cylinder_local_measure(body.words, point.prefix(depth), 6)
        assert bounds == RatInterval.point(expected)


def test_clopen_trace_takes_one_half_per_depth(monkeypatch):
    child = ClopenOracle.child
    calls = []

    def counted(self, letter):
        calls.append(letter)
        return child(self, letter)

    monkeypatch.setattr(ClopenOracle, "child", counted)
    runs = list(ClopenOracle(["01" * 100 + "1", "110"]).bound_runs(Branch((), (0, 1)), 0, 201))
    assert sum(count for _, count in runs) == 201
    assert runs[-1][0] == RatInterval.point(F(1, 2))
    assert len(calls) <= 201


def _views(oracle, word, stop):
    """(word, localization) for every binary word from ``word`` on, up to length ``stop``."""
    yield word, oracle
    if len(word) < stop:
        for letter in (0, 1):
            yield from _views(oracle.child(letter), word + (letter,), stop)


def test_clopen_views_match_the_cell_count_reference():
    # Views of one sorted table answer what counting cells answers, settle
    # into the shared segments exactly where the set turns full or empty,
    # and certify from the longest word below them, on plain and stretched points.
    rng = random.Random(3301)
    lists = [[], [()], [(), (0, 1)]] + [random_word_list(rng) for _ in range(25)]
    for words in lists:
        root = oracle_from_spec({"kind": "clopen", "words": ["".join(map(str, w)) for w in words]})
        canonical = normalize_reference(words)
        longest = max(map(len, words), default=0)
        for word, view in _views(root, (), longest + 2):
            expected = cylinder_local_measure(words, word, max(longest, len(word)))
            assert view.measure_bounds() == RatInterval.point(expected), (words, word)
            settled = {F(0): EMPTY_SEGMENT, F(1): FULL_SEGMENT}.get(expected)
            if word and settled is not None:
                assert view is settled, (words, word)
                continue
            assert type(view) is ClopenOracle and view.root is root and view.depth == len(word)
            if word:  # a child view holds only its place in the root's table
                assert vars(view).keys() == {"root", "depth", "lo", "hi"}
            below = [len(w) for w in canonical if w[: len(word)] == word]
            start = max(below, default=len(word)) - len(word)
            for point in (Branch(word[:1], (1, 0)), Branch(word, (0, 0, 1)),
                          StretchedBranch(Branch((), (1, 0))), StretchedBranch(Branch(word, (0,)))):
                reached = word + point.prefix(start)
                cert = view.tail_certificate(point, 0)
                assert cert == TailCertificate(RatInterval.point(
                    cylinder_local_measure(words, reached, max(longest, len(reached)))), start)


def test_clopen_views_past_the_sum_cap_add_up_their_words(monkeypatch):
    # Every prefix sum holds up to the longest word's length in bits, so
    # half the 16-letter words beside one of 12 000 letters build none.
    words = [format(k, "016b") for k in range(0, 1 << 16, 2)] + ["1" * 12000]
    wide = ClopenOracle(words)
    assert wide.measure_bounds() == RatInterval.point(F(1, 2) + F(1, 2**12000))
    assert wide.sums[1] is None
    assert wide.localize((1,) * 15).measure_bounds() == RatInterval.point(F(1, 2) + F(1, 2**11985))
    # Without sums each bound is its view's own sum, the same as with them.
    rng = random.Random(3302)
    lists = [["".join(map(str, w)) for w in random_word_list(rng)] for _ in range(20)]

    def bounds(raw):
        root = oracle_from_spec({"kind": "clopen", "words": raw})
        stop = max(map(len, raw), default=0) + 2
        return root, [view.measure_bounds() for _, view in _views(root, (), stop)]

    summed = [bounds(raw)[1] for raw in lists]
    monkeypatch.setattr(oracles, "MAX_SUM_BITS", 0)
    for raw, expected in zip(lists, summed):
        root, fresh = bounds(raw)
        assert fresh == expected, raw
        assert root.sums[1] is None or len(root.words) * root.sums[0] == 0


def test_complement_oracle_reflects():
    oracle = ComplementOracle(clopen_oracle(piece_of_measure(F(1, 4))))
    assert oracle.measure_bounds() == RatInterval.point(F(3, 4))
    assert oracle.localize((0, 0)).measure_bounds() == RatInterval.point(F(0))
    cert = oracle.tail_certificate(Branch((), (0,)), effort=8)
    assert cert.interval == RatInterval.point(F(0))


def test_disjoint_sum_adds_bounds_and_certificates():
    left = ClopenOracle(["00"])
    right = ClopenOracle(["11"])
    both = DisjointSumOracle([left, right])
    assert both.measure_bounds() == RatInterval.point(F(1, 2))
    assert both.localize((0,)).measure_bounds() == RatInterval.point(F(1, 2))
    cert = both.tail_certificate(Branch((1,), (1,)), effort=10)
    assert cert.interval == RatInterval.point(F(1))


def test_grafted_union_requires_incomparable_sites():
    inner = ClopenOracle([""])
    with pytest.raises(ValueError):
        GraftedUnionOracle([((0,), inner), ((0, 1), inner)])


def _grafted_example() -> GraftedUnionOracle:
    return GraftedUnionOracle(
        [
            ((0, 1), clopen_oracle(piece_of_measure(F(1, 2)))),
            ((1, 0, 0), ClopenOracle([""])),
        ]
    )


def test_grafted_union_bounds_by_case():
    oracle = _grafted_example()
    # Inside the first graft site: delegate to the inner piece.
    assert oracle.localize((0, 1, 0)).measure_bounds() == RatInterval.point(F(1))
    assert oracle.localize((0, 1, 1)).measure_bounds() == RatInterval.point(F(0))
    # Above the sites: scaled sum, exactly.
    assert oracle.measure_bounds() == RatInterval.point(F(1, 8) + F(1, 8))
    assert oracle.localize((1,)).measure_bounds() == RatInterval.point(F(1, 4))
    # Off every site: empty.
    assert oracle.localize((1, 1)).measure_bounds() == RatInterval.point(F(0))


def _random_graft_part(rng, nesting):
    """A random set spec for a graft: exact or inexact, dyadic or not."""
    kind = rng.choice(("clopen", "dualistic", "offspring", "reduction", "graft")
                      if nesting < 2 else ("clopen", "dualistic", "offspring"))
    if kind == "clopen":
        words = ["".join(rng.choice("01") for _ in range(rng.randrange(0, 6)))
                 for _ in range(rng.randrange(1, 4))]
        return {"kind": "clopen", "words": words}
    if kind == "dualistic":
        q = rng.choice((64, 99, 100))
        return {"kind": "dualistic", "measure": f"{rng.randrange(1, q)}/{q}"}
    if kind == "offspring":
        nodes = ["", "0", "1", "01"][: rng.randrange(1, 5)]
        leaves = [n for n in nodes if n + "0" not in nodes and n + "1" not in nodes]
        endings = ["zeros", "full", {"periodic": "1"}, {"periodic": "10"}]
        return {"kind": "offspring",
                "tree": {"nodes": nodes, "policies": {n: rng.choice(endings) for n in leaves}},
                "labels": {n: f"{rng.randrange(1, 7)}/7" for n in nodes if rng.random() < 0.5},
                "default_label": rng.choice(("1/2", "3/8", "2/5"))}
    if kind == "reduction":
        return {"kind": "reduction", "which": "second"}
    return _random_graft_spec(rng, nesting + 1)


def _random_graft_spec(rng, nesting=0):
    """A random compose or countable-range spec."""
    if rng.random() < 0.3:
        values = {str(F(rng.randrange(1, q), q)) for q in rng.sample((4, 7, 16, 30, 99), 3)}
        return {"kind": "countable-range", "values": sorted(values)}
    prefixes = rng.choice((("0", "10", "11"), ("00", "01", "1"), ("",), ("1",), ("000", "001", "01")))
    chosen = rng.sample(prefixes, rng.randrange(1, len(prefixes) + 1))
    return {"kind": "compose", "complemented": rng.random() < 0.3,
            "parts": [{"prefix": p, "set": _random_graft_part(rng, nesting)} for p in chosen]}


def test_grafted_union_bounds_match_fraction_sums():
    # Integer sums over one common denominator must give the bounds that
    # per-part Fraction sums give: at the root of each spec and at the
    # grafted unions reached by localizing, at random budgets.
    rng = random.Random(18)
    compared = inexact = non_dyadic = 0
    for _ in range(1000):
        oracle = oracle_from_spec(_random_graft_spec(rng))
        views = [oracle.inner if isinstance(oracle, ComplementOracle) else oracle]
        for _ in range(3):
            view = views[0].localize(tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6))))
            if isinstance(view, GraftedUnionOracle):
                views.append(view)
        for view in views:
            budget = rng.randrange(0, 12)
            bounds = view.measure_bounds(budget)
            assert bounds == grafted_union_bounds_reference(view, budget)
            compared += 1
            inexact += bounds.lo != bounds.hi
            non_dyadic += not is_dyadic(bounds.lo)
    assert compared >= 1000 and inexact >= 100 and non_dyadic >= 100, (compared, inexact, non_dyadic)

def test_grafted_union_certificates():
    oracle = _grafted_example()
    entering = oracle.tail_certificate(Branch((0, 1, 0), (0,)), effort=12)
    assert entering.interval == RatInterval.point(F(1))
    missing = oracle.tail_certificate(Branch((1, 1), (0,)), effort=12)
    assert missing.interval == RatInterval.point(F(0))
    assert missing.start <= 3


def test_spine_prefix_constant_rate_on_spine():
    piece = clopen_oracle(piece_of_measure(F(1, 4)))
    oracle = SpinePrefixOracle(lambda _: piece, F(1, 4))
    for m in range(8):
        assert oracle.localize((0,) * m).measure_bounds() == RatInterval.point(F(1, 4))
    # Beyond the first 1 the piece takes over.
    assert oracle.localize((0, 0, 1, 0, 0)).measure_bounds() == RatInterval.point(F(1))
    assert oracle.localize((0, 1, 1)).measure_bounds() == RatInterval.point(F(0))


def test_spine_prefix_certificates():
    piece = clopen_oracle(piece_of_measure(F(1, 4)))
    oracle = SpinePrefixOracle(lambda _: piece, F(1, 4))
    spine = oracle.tail_certificate(Branch((), (0,)), effort=10)
    assert spine.interval == RatInterval.point(F(1, 4))
    assert spine.start == 0
    leaver = oracle.tail_certificate(Branch((0, 0, 1), (0,)), effort=10)
    assert leaver.interval == RatInterval.point(F(1))


def test_classify_converges_on_exact_point():
    piece = clopen_oracle(piece_of_measure(F(1, 4)))
    oracle = SpinePrefixOracle(lambda _: piece, F(1, 4))
    verdict = oracle.classify(Branch((), (0,)))
    assert verdict.kind == "converges"
    assert verdict.interval.contains(F(1, 4))
    assert verdict.interval.width <= F(1, 256)


def test_classify_cross_check_rejects_inconsistent_certificate():
    class Lying(MeasureOracle):
        def child(self, letter):
            return self

        def measure_bounds(self, budget=0):
            return RatInterval.point(F(0))

        def tail_certificate(self, point, effort):
            from cantordensity.oracles import TailCertificate

            return TailCertificate(RatInterval.point(F(1)), 0)

    with pytest.raises(RuntimeError):
        Lying().classify(Branch((), (0,)))


def test_certified_oscillation_detects_alternation():
    low = RatInterval.point(F(0))
    high = RatInterval.point(F(1))
    bounds = [low, high] * 6
    found = certified_oscillation(bounds)
    assert found is not None
    delta, lo_val, hi_val = found
    assert delta == F(1)
    assert lo_val == F(0) and hi_val == F(1)


def test_certified_oscillation_rejects_monotone_runs():
    ramp = [RatInterval.point(F(n, 40)) for n in range(24)]
    assert certified_oscillation(ramp) is None
    # Two swings are not enough for a certificate.
    two = [RatInterval.point(F(0)), RatInterval.point(F(1))] * 2
    assert certified_oscillation(two) is None


def _random_trace(rng):
    # A few levels on a coarse grid, so that thresholds tie and swing.
    grid = rng.choice((4, 8, 16, 64))
    bounds = []
    for _ in range(rng.randrange(1, 60)):
        lo, hi = sorted((rng.randrange(grid + 1), rng.randrange(grid + 1)))
        if rng.random() < 0.3:
            hi = lo
        bounds.append(RatInterval(F(lo, grid), F(hi, grid)))
    return bounds


def _mixed_trace(rng):
    # Each interval on its own grid, so the endpoints share no denominator.
    bounds = []
    for _ in range(rng.randrange(1, 60)):
        grid = rng.choice((3, 5, 7, 12))
        lo, hi = sorted((rng.randrange(grid + 1), rng.randrange(grid + 1)))
        if rng.random() < 0.3:
            hi = lo
        bounds.append(RatInterval(F(lo, grid), F(hi, grid)))
    return bounds


def test_certified_oscillation_matches_pairwise_search():
    # The pointer walk gives the pairwise search's (delta, low, high),
    # ties included, on random traces on one grid and on mixed grids, on
    # second-reduction traces, and on offspring traces whose stand-in
    # copies carry labels 1/7, 5/6 and 1/3.
    rng = random.Random(1705)
    traces = [_random_trace(rng) for _ in range(1000)]
    traces += [_mixed_trace(rng) for _ in range(500)]
    oracle = second_reduction(ExplicitTree.full_binary())
    for base in (Branch((), (1,)), Branch((), (1, 0)), Branch((), (1, 1, 0))):
        traces.append(list(bounds_along_by_depths(oracle, StretchedBranch(base), 0, 79, 16)))
    table = {
        word: F(1, 7) if word.count(1) % 2 else F(5, 6)
        for length in range(1, 7)
        for word in itertools.product((0, 1), repeat=length)
    }
    oracle = OffspringOracle(ExplicitTree.full_binary(), ExplicitLabels(table, default=F(1, 3)))
    for base in (Branch((), (1,)), Branch((), (1, 0))):
        bounds = list(bounds_along_by_depths(oracle, StretchedBranch(base), 0, 61, 16))
        assert not all(is_dyadic(end) for b in bounds for end in (b.lo, b.hi))
        traces.append(bounds)
    found = 0
    for bounds in traces:
        got = certified_oscillation(bounds)
        assert got == certified_oscillation_reference(bounds), bounds
        found += got is not None
    assert 0 < found < len(traces)


def test_at_reads_both_presentations():
    assert Branch((), (1,)).at(5) == 1
    assert interleave_branches(Branch((), (0,)), Branch((), (1,))).at(3) == 1
    stretched = StretchedBranch(Branch((), (1, 0)))
    assert stretched.prefix(6) == (1, 0, 0, 1, 1, 1)


def test_interleave_branches_alternates_the_streams():
    x = Branch((1, 0), (1, 1, 0))
    y = Branch((0,), (0, 1))
    woven = interleave_branches(x, y)
    for n in range(40):
        source = x if n % 2 == 0 else y
        assert woven.at(n) == source.at(n // 2)


def test_compose_grafts_and_complements():
    plain = GraftedUnionOracle(
        [((0,), ClopenOracle([""])), ((1,), ClopenOracle([]))]
    )
    assert plain.measure_bounds() == RatInterval.point(F(1, 2))
    assert plain.localize((0,)).measure_bounds() == RatInterval.point(F(1))
    flipped = ComplementOracle(GraftedUnionOracle([((0,), ClopenOracle([""]))]))
    assert flipped.measure_bounds() == RatInterval.point(F(1, 2))
    assert flipped.localize((0, 1)).measure_bounds() == RatInterval.point(F(0))
    with pytest.raises(ValueError):
        GraftedUnionOracle([((0,), plain), ((0, 1), plain)])


def test_segment_oracle_reads_the_lex_first_piece():
    # [0, m) is the lexicographically first clopen set of measure m, so
    # the doubling map must answer what localizing that set answers.
    rng = random.Random(20261018)
    for _ in range(3000):
        k = rng.randrange(0, 15)
        m = F(rng.randrange(0, (1 << k) + 1), 1 << k)
        segment = SegmentOracle(m)
        piece = clopen_oracle(piece_of_measure(m))
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 17)))
        assert (segment.localize(word).measure_bounds()
                == piece.localize(word).measure_bounds()), (m, word)
        head = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 17)))
        cycle = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        point = Branch(head, cycle)
        if rng.random() < 0.25:
            point = StretchedBranch(point)
        assert segment.tail_certificate(point, 0) == piece.tail_certificate(point, 0), (m, point)


def test_segment_oracle_rejects_non_dyadic_and_out_of_range():
    for bad in (F(1, 3), F(5, 4), F(-1, 2)):
        with pytest.raises(ValueError):
            SegmentOracle(bad)


def test_settled_localizations_are_fixed_points():
    composed = oracle_from_spec({
        "kind": "compose",
        "complemented": True,
        "parts": [
            {"prefix": "0", "set": {"kind": "dualistic", "measure": "1/5"}},
            {"prefix": "10", "set": {"kind": "clopen", "words": ["1", "01"]}},
        ],
    })
    countable = solid_countable_range([F(1, 3), F(3, 8), F(1, 5)]).oracle
    walks = [
        (EMPTY_SEGMENT, (), EMPTY_SEGMENT),
        (FULL_SEGMENT, (), FULL_SEGMENT),
        (SegmentOracle(F(0)), (1,), EMPTY_SEGMENT),
        (SegmentOracle(F(5, 8)), (1, 0, 1), EMPTY_SEGMENT),
        (SegmentOracle(F(5, 8)), (1, 0, 0), FULL_SEGMENT),
        (ClopenOracle(["00", "1"]), (1,), FULL_SEGMENT),
        (ClopenOracle(["00", "1"]), (0, 1, 1), EMPTY_SEGMENT),
        # 11100 is a word of the clopen chunk; past its first letter the
        # spongy remainder is empty and drops out of the sum.
        (dualistic_of_measure(F(3, 5)).oracle, (1, 1, 1, 0, 0), FULL_SEGMENT),
        (dualistic_of_measure(F(1, 5)).oracle, (1,), EMPTY_SEGMENT),
        (composed, (1, 0, 1), EMPTY_SEGMENT),
        (composed, (1, 1), FULL_SEGMENT),
        (ComplementOracle(ClopenOracle(["0"])), (1, 0), FULL_SEGMENT),
        (countable, (1,), EMPTY_SEGMENT),
        # Through the spine of the designated point 0011 0^w into the
        # segment [0, 3/8), then past its three letters.
        (countable, (0, 0, 1, 1, 1, 0, 1, 1), EMPTY_SEGMENT),
        (countable, (0, 0, 1, 1, 1, 0, 0), FULL_SEGMENT),
    ]
    for oracle, word, settled in walks:
        reached = oracle.localize(word)
        assert reached is settled, (oracle, word)
        for letter in (0, 1):
            assert reached.child(letter) is reached
        assert reached.measure_bounds(5) == (FULL_MASS if settled is FULL_SEGMENT else EMPTY_MASS)


def _random_exact_spec(rng, nesting=0):
    """A random exact set spec and an independent reference for its
    localized measure at a word."""
    doc, reference = _random_exact_parts(rng, nesting)
    return doc, functools.cache(reference)


def _random_exact_parts(rng, nesting):
    kinds = ("clopen", "spongy", "dualistic", "complement", "compose")
    kind = rng.choice(kinds if nesting < 2 else kinds[:3])
    if kind == "clopen":
        words = [tuple(rng.randrange(2) for _ in range(rng.randrange(0, 7)))
                 for _ in range(rng.randrange(1, 5))]
        longest = max(len(w) for w in words)
        doc = {"kind": "clopen", "words": ["".join(map(str, w)) for w in words]}
        return doc, lambda at: cylinder_local_measure(words, at, max(len(at), longest))
    if kind == "spongy":
        rate = F(1, 3) if rng.random() < 0.1 else F(rng.randrange(1, 334), 1000)
        return ({"kind": "dualistic", "measure": str(rate)},
                lambda at: spongy_local_measure(rate, at))
    if kind == "dualistic":
        built = dualistic_of_measure(F(rng.randrange(334, 1000), 1000))
        chunk = built.clopen_part.words

        def chunk_measure(at):
            # The chunk is an antichain: the cylinder of at is inside one
            # of its words or holds the tails of those extending it.
            if any(at[: len(w)] == w for w in chunk):
                return F(1)
            return antichain_measure([w[len(at):] for w in chunk if w[: len(at)] == at])

        return ({"kind": "dualistic", "measure": str(built.measure)},
                lambda at: chunk_measure(at) + spongy_local_measure(built.spongy_rate, at))
    if kind == "complement":
        doc, inner = _random_exact_spec(rng, nesting + 1)
        return {"kind": "complement", "of": doc}, lambda at: 1 - inner(at)
    prefixes = rng.choice((("0", "10", "11"), ("00", "01", "1"), ("",), ("1",)))
    chosen = rng.sample(prefixes, rng.randrange(1, len(prefixes) + 1))
    parts = [(p, *_random_exact_spec(rng, nesting + 1)) for p in chosen]
    complemented = rng.random() < 0.5

    def reference(at):
        total = F(0)
        for prefix, _, inner in parts:
            graft = tuple(map(int, prefix))
            if at[: len(graft)] == graft:
                total += inner(at[len(graft):])
            elif graft[: len(at)] == at:
                total += inner(()) / 2 ** (len(graft) - len(at))
        return 1 - total if complemented else total

    doc = {"kind": "compose", "complemented": complemented,
           "parts": [{"prefix": p, "set": d} for p, d, _ in parts]}
    return doc, reference


def test_exact_traces_match_independent_references():
    # Deep traces cross into settled pieces at every layer; each depth
    # must still read the measure the construction defines.
    rng = random.Random(1705)
    for _ in range(500):
        doc, reference = _random_exact_spec(rng)
        if rng.random() < 0.5:
            n = rng.randrange(1, 5)
            head = (0,) * n + (1,) * n
        else:
            head = ()
        head += tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
        point = Branch(head, tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4))))
        if rng.random() < 0.2:
            point = StretchedBranch(point)
        word = point.prefix(119)
        runs = oracle_from_spec(doc).bound_runs(point, 0, 120)
        trace = [bounds for bounds, count in runs for _ in range(count)]
        expected = [RatInterval.point(reference(word[:n])) for n in range(120)]
        assert trace == expected, (doc, point)


def _outcome(call):
    """A call's value, or the type and text of the error it raised."""
    try:
        return "value", call()
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, str(err)


def _drawn_starts(oracle, point, stop, rng):
    """Starts of walks to ``stop`` by case: inside a run of the point, on
    a run boundary (the first letter of a run), past the depth at which
    the oracle settles to a shared segment, and ``stop - 1``. A case with
    no depth in (0; stop) is left out."""
    letters = point.prefix(stop)
    depths = {"inside": [d for d in range(1, stop) if letters[d] == letters[d - 1]],
              "boundary": [d for d in range(1, stop) if letters[d] != letters[d - 1]],
              "last": [stop - 1] if stop > 1 else []}
    local = oracle
    for depth, letter in enumerate(letters[:stop - 2]):
        if local is EMPTY_SEGMENT or local is FULL_SEGMENT:
            depths["settled"] = list(range(depth + 1, stop))
            break
        local = local.child(letter)
    return {case: rng.choice(found) for case, found in depths.items() if found}


def test_bound_runs_match_the_per_depth_walk(tmp_path, monkeypatch):
    # Reading a run in one pair once the oracle is its own child on its
    # letter changes no trace byte, verdict or cross-check message against
    # the walk that steps and evaluates every depth (oracletools), and a
    # walk from a later start gives the reference's bounds too, whether it
    # starts inside a run, on a run boundary, past settling or one depth
    # before its stop. Caught mutant: a walk that collapses every run at a
    # SpinePrefixOracle, so a run of 1s keeps the spine's bounds instead
    # of entering the piece.
    rng, start_rng = random.Random(2305), random.Random(2906)
    seen = collections.Counter()
    spec, branch = tmp_path / "set.json", tmp_path / "branch.json"
    for _ in range(150):
        doc = random_set(rng)
        branch_doc = random_branch(rng, doc)
        try:
            oracle, point = oracle_from_spec(doc), branch_from_spec(branch_doc)
        except ValueError:  # a malformed document or a rejected value
            continue
        seen[doc["kind"]] += 1
        seen[branch_doc["kind"]] += 1
        spec.write_text(json.dumps(doc), encoding="utf-8")
        branch.write_text(json.dumps(branch_doc), encoding="utf-8")
        steps = rng.randrange(1, 81)
        starts = _drawn_starts(oracle, point, steps, start_rng)
        seen.update(starts.keys())
        for window in (0, -3, 16):
            for start in (*starts.values(), 0):
                runs = _outcome(lambda: list(oracle.bound_runs(point, start, steps, window)))
                reference = _outcome(lambda: list(bound_runs_by_depths(oracle, point, start, steps, window)))
                if runs[0] != "value":
                    assert runs == reference, (doc, branch_doc, start, window)
                    continue
                expanded = [bounds for bounds, count in runs[1] for _ in range(count)]
                assert expanded == [bounds for bounds, _ in reference[1]], (doc, branch_doc, start, window)
            # The whole trace, from start 0: its oscillation and its printed bytes.
            if runs[0] != "value":
                continue
            seen["collapsed"] += sum(count > 1 for _, count in runs[1])
            heads = [bounds for bounds, _ in runs[1]]
            assert certified_oscillation(heads) == certified_oscillation(expanded)
            if window < 0:
                continue
            printed = invoke("trace", "--set", str(spec), "--branch", str(branch),
                             "--steps", str(steps), "--budget", str(window))
            text, error = trace_output_by_depths(oracle, point, steps, window)
            assert printed.stdout == text, (doc, branch_doc, window)
            assert printed.stderr == ("" if error is None else error + "\n")
        eps = rng.choice((F(1, 16), F(1, 256)))
        max_depth = rng.randrange(20, 81)
        forged = [TailCertificate(RatInterval.point(F(rng.randrange(9), 8)), rng.randrange(40))
                  for _ in range(3)]
        verdict = _outcome(lambda: oracle.classify(point, eps, max_depth))
        checks = [_outcome(lambda: oracle._cross_check(point, cert)) for cert in forged]
        with monkeypatch.context() as patched:
            patched.setattr(MeasureOracle, "bound_runs", bound_runs_by_depths)
            assert verdict == _outcome(lambda: oracle.classify(point, eps, max_depth))
            assert checks == [_outcome(lambda: oracle._cross_check(point, cert)) for cert in forged]
        seen["contradicted"] += sum(kind == "RuntimeError" for kind, _ in checks)
    kinds = {"clopen", "dualistic", "countable-range", "offspring", "reduction", "compose",
             "complement", "ev_periodic", "stretch", "interleave", "baire"}
    assert kinds <= set(seen), seen
    assert seen["collapsed"] > 100 and seen["contradicted"] > 100, seen
    assert min(seen[case] for case in ("inside", "boundary", "settled", "last")) > 50, seen


def test_bound_runs_build_no_prefix(monkeypatch):
    # The walk reads the point's runs from the root: with ``prefix`` of
    # both presentations patched to raise, every document kind still
    # walks from a drawn start to the bounds that the per-depth reference
    # reads off ``prefix``.
    def no_prefix(self, n):
        raise AssertionError(f"bound_runs built a prefix of length {n}")

    rng = random.Random(2907)
    walked = collections.Counter()
    for _ in range(120):
        doc = random_set(rng)
        try:
            oracle, point = oracle_from_spec(doc), branch_from_spec(random_branch(rng, doc))
        except ValueError:
            continue
        stop = rng.randrange(1, 121)
        start = rng.randrange(stop)
        reference = _outcome(lambda: list(bound_runs_by_depths(oracle, point, start, stop)))
        with monkeypatch.context() as patched:
            patched.setattr(Branch, "prefix", no_prefix)
            patched.setattr(StretchedBranch, "prefix", no_prefix)
            runs = _outcome(lambda: list(oracle.bound_runs(point, start, stop)))
        if runs[0] != "value":
            assert runs == reference, doc
            continue
        assert [b for b, count in runs[1] for _ in range(count)] == [b for b, _ in reference[1]], doc
        walked[doc["kind"]] += 1
    kinds = {"clopen", "dualistic", "countable-range", "offspring", "reduction", "compose", "complement"}
    assert set(walked) == kinds, walked
