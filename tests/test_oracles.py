"""Oracle framework: exact clopen oracles, combinators, classification."""

import collections
import functools
import itertools
import json
import random
from fractions import Fraction

import pytest

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
    certified_oscillation_reference,
    cylinder_local_measure,
    grafted_union_bounds_reference,
    piece_of_measure,
    spongy_local_measure,
    trace_output_by_depths,
)

F = Fraction


def test_clopen_oracle_is_exact_everywhere():
    oracle = ClopenOracle(ClopenSet.from_words([(0, 0), (1,)]))
    assert oracle.measure_bounds() == RatInterval.point(F(3, 4))
    assert oracle.local_bounds((0,), 0) == RatInterval.point(F(1, 2))
    assert oracle.local_bounds((0, 1), 50) == RatInterval.point(F(0))
    assert oracle.local_bounds((1, 1, 0), 0) == RatInterval.point(F(1))


def test_clopen_oracle_certificate_settles_at_depth():
    oracle = ClopenOracle(ClopenSet.from_words([(0, 0), (1,)]))
    inside = oracle.tail_certificate(Branch((0, 0), (1,)), effort=10)
    assert inside.interval == RatInterval.point(F(1))
    assert inside.start <= 2
    outside = oracle.tail_certificate(Branch((0, 1), (0,)), effort=10)
    assert outside.interval == RatInterval.point(F(0))


def test_clopen_trace_matches_localization():
    body = ClopenSet.from_words([(0, 1), (1, 0, 0)])
    oracle = ClopenOracle(body)
    point = Branch((0, 1, 1), (0,))
    for depth, bounds in enumerate(oracle.trace(point, 6)):
        expected = cylinder_local_measure(body.words, point.prefix(depth), 6)
        assert bounds == RatInterval.point(expected)


def test_clopen_trace_takes_one_half_per_depth(monkeypatch):
    half = ClopenSet.half
    calls = []

    def counted(self, letter):
        calls.append(letter)
        return half(self, letter)

    monkeypatch.setattr(ClopenSet, "half", counted)
    body = ClopenSet.from_words([(0, 1) * 100 + (1,), (1, 1, 0)])
    bounds = list(ClopenOracle(body).trace(Branch((), (0, 1)), 200))
    assert len(bounds) == 201
    assert bounds[-1] == RatInterval.point(F(1, 2))
    assert len(calls) <= 201


def test_complement_oracle_reflects():
    oracle = ComplementOracle(ClopenOracle(piece_of_measure(F(1, 4))))
    assert oracle.measure_bounds() == RatInterval.point(F(3, 4))
    assert oracle.local_bounds((0, 0), 0) == RatInterval.point(F(0))
    cert = oracle.tail_certificate(Branch((), (0,)), effort=8)
    assert cert.interval == RatInterval.point(F(0))


def test_disjoint_sum_adds_bounds_and_certificates():
    left = ClopenOracle(ClopenSet.from_words([(0, 0)]))
    right = ClopenOracle(ClopenSet.from_words([(1, 1)]))
    both = DisjointSumOracle([left, right])
    assert both.measure_bounds() == RatInterval.point(F(1, 2))
    assert both.local_bounds((0,), 0) == RatInterval.point(F(1, 2))
    cert = both.tail_certificate(Branch((1,), (1,)), effort=10)
    assert cert.interval == RatInterval.point(F(1))


def test_grafted_union_requires_incomparable_sites():
    inner = ClopenOracle(ClopenSet.full())
    with pytest.raises(ValueError):
        GraftedUnionOracle([((0,), inner), ((0, 1), inner)])


def _grafted_example() -> GraftedUnionOracle:
    return GraftedUnionOracle(
        [
            ((0, 1), ClopenOracle(piece_of_measure(F(1, 2)))),
            ((1, 0, 0), ClopenOracle(ClopenSet.full())),
        ]
    )


def test_grafted_union_bounds_by_case():
    oracle = _grafted_example()
    # Inside the first graft site: delegate to the inner piece.
    assert oracle.local_bounds((0, 1, 0), 0) == RatInterval.point(F(1))
    assert oracle.local_bounds((0, 1, 1), 0) == RatInterval.point(F(0))
    # Above the sites: scaled sum, exactly.
    assert oracle.local_bounds((), 0) == RatInterval.point(F(1, 8) + F(1, 8))
    assert oracle.local_bounds((1,), 0) == RatInterval.point(F(1, 4))
    # Off every site: empty.
    assert oracle.local_bounds((1, 1), 0) == RatInterval.point(F(0))


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
    piece = ClopenOracle(piece_of_measure(F(1, 4)))
    oracle = SpinePrefixOracle(lambda _: piece, F(1, 4))
    for m in range(8):
        assert oracle.local_bounds((0,) * m, 0) == RatInterval.point(F(1, 4))
    # Beyond the first 1 the piece takes over.
    assert oracle.local_bounds((0, 0, 1, 0, 0), 0) == RatInterval.point(F(1))
    assert oracle.local_bounds((0, 1, 1), 0) == RatInterval.point(F(0))


def test_spine_prefix_certificates():
    piece = ClopenOracle(piece_of_measure(F(1, 4)))
    oracle = SpinePrefixOracle(lambda _: piece, F(1, 4))
    spine = oracle.tail_certificate(Branch((), (0,)), effort=10)
    assert spine.interval == RatInterval.point(F(1, 4))
    assert spine.start == 0
    leaver = oracle.tail_certificate(Branch((0, 0, 1), (0,)), effort=10)
    assert leaver.interval == RatInterval.point(F(1))


def test_classify_converges_on_exact_point():
    piece = ClopenOracle(piece_of_measure(F(1, 4)))
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
        traces.append(list(oracle.trace(StretchedBranch(base), 78)))
    table = {
        word: F(1, 7) if word.count(1) % 2 else F(5, 6)
        for length in range(1, 7)
        for word in itertools.product((0, 1), repeat=length)
    }
    oracle = OffspringOracle(ExplicitTree.full_binary(), ExplicitLabels(table, default=F(1, 3)))
    for base in (Branch((), (1,)), Branch((), (1, 0))):
        bounds = list(oracle.trace(StretchedBranch(base), 60))
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
        [((0,), ClopenOracle(ClopenSet.full())), ((1,), ClopenOracle(ClopenSet.empty()))]
    )
    assert plain.measure_bounds() == RatInterval.point(F(1, 2))
    assert plain.local_bounds((0,), 0) == RatInterval.point(F(1))
    flipped = ComplementOracle(GraftedUnionOracle([((0,), ClopenOracle(ClopenSet.full()))]))
    assert flipped.measure_bounds() == RatInterval.point(F(1, 2))
    assert flipped.local_bounds((0, 1), 0) == RatInterval.point(F(0))
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
        piece = ClopenOracle(piece_of_measure(m))
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 17)))
        assert segment.local_bounds(word, 0) == piece.local_bounds(word, 0), (m, word)
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
        (ClopenOracle(ClopenSet.from_words([(0, 0), (1,)])), (1,), FULL_SEGMENT),
        (ClopenOracle(ClopenSet.from_words([(0, 0), (1,)])), (0, 1, 1), EMPTY_SEGMENT),
        # 11100 is a word of the clopen chunk; past its first letter the
        # spongy remainder is empty and drops out of the sum.
        (dualistic_of_measure(F(3, 5)).oracle, (1, 1, 1, 0, 0), FULL_SEGMENT),
        (dualistic_of_measure(F(1, 5)).oracle, (1,), EMPTY_SEGMENT),
        (composed, (1, 0, 1), EMPTY_SEGMENT),
        (composed, (1, 1), FULL_SEGMENT),
        (ComplementOracle(ClopenOracle(ClopenSet.from_words([(0,)]))), (1, 0), FULL_SEGMENT),
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
        trace = list(oracle_from_spec(doc).trace(point, 119))
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
