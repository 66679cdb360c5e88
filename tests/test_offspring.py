"""Offspring oracles checked against independent cell enumeration."""

import copy
import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from cantordensity.approx import AffineImagePresentation, ConstantPresentation, InjectivePresentation
from cantordensity.branches import Branch, StretchedBranch, as_stretched, interleave_branches
from cantordensity.dualistic import SpongyMeasureOracle, dualistic_of_measure
from cantordensity.dyadics import EMPTY_MASS, FULL_MASS, UNIT, RatInterval
from cantordensity.jsonio import oracle_from_spec
from cantordensity.offspring import ExplicitLabels, OffspringOracle, offspring_prune
from cantordensity.oracles import TailCertificate
from cantordensity.reductions import first_reduction, second_reduction, third_reduction
from cantordensity.trees import ExplicitTree, InterleaveTree, periodic
from cantordensity.words import stretch, triangular
from oracletools import (letterwise_offspring_bounds, offspring_cell_bounds,
                         spongy_local_measure)

HALF_TABLE = ExplicitLabels({}, F(1, 2))
EIGHTHS = tuple(F(k, 8) for k in range(9))
# Non-dyadic labels hang measured stand-in sets, whose values enter the
# evaluator as Fraction numerators.
WITH_THIRDS = EIGHTHS + (F(1, 3), F(2, 5), F(5, 7))


def full_half() -> OffspringOracle:
    return OffspringOracle(ExplicitTree.full_binary(), HALF_TABLE)


def _binary_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product((0, 1), repeat=n)


def _random_tree(rng: random.Random) -> ExplicitTree:
    nodes = [()]
    frontier = [()]
    for _ in range(3):
        grown = []
        for parent in frontier:
            for letter in (0, 1):
                if rng.random() < 0.7:
                    child = parent + (letter,)
                    nodes.append(child)
                    grown.append(child)
        frontier = grown
    node_set = set(nodes)
    endings = ["zeros", "full", periodic((0, 1)), periodic((1,))]
    policies = {}
    for word in node_set:
        if not any(word + (letter,) in node_set for letter in (0, 1)):
            policies[word] = endings[rng.randrange(len(endings))]
    return ExplicitTree(node_set, policies)


def _random_labels(rng: random.Random, values: tuple = EIGHTHS) -> ExplicitLabels:
    mapping = {}
    for depth in range(3):
        for bits in itertools.product((0, 1), repeat=depth):
            if rng.random() < 0.5:
                mapping[bits] = rng.choice(values)
    return ExplicitLabels(mapping, rng.choice(values))


# ----- hand-checked small values -----------------------------------------


def test_root_bounds_by_hand():
    # Depth-4 cells: a mixed second block flags into the half piece and
    # the next letter decides membership (4 cells in, 4 out); a pure
    # second block leaves the third block unfinished (8 cells open).
    oracle = full_half()
    assert oracle.local_bounds((), 4) == RatInterval(F(1, 4), F(3, 4))


def test_flagged_word_settles():
    oracle = full_half()
    assert oracle.local_bounds((0, 1, 0), 4) == RatInterval.point(F(1, 2))


def test_off_tree_words_are_empty():
    tree = ExplicitTree([()], {(): "zeros"})
    oracle = OffspringOracle(tree, HALF_TABLE)
    assert oracle.local_bounds((1,), 6) == EMPTY_MASS
    assert oracle.local_bounds((0, 1, 1), 8) == EMPTY_MASS


def test_zero_budget_is_unit():
    assert full_half().measure_bounds(0) == UNIT


# ----- agreement with exhaustive enumeration -----------------------------


def test_bounds_equal_cell_enumeration():
    rng = random.Random(20260815)
    for _ in range(10):
        tree = _random_tree(rng)
        labels = _random_labels(rng)
        oracle = OffspringOracle(tree, labels)
        for word in _binary_words(3):
            lo, hi = offspring_cell_bounds(tree.member, labels.label, word, 11)
            got = oracle.local_bounds(word, 11)
            assert (got.lo, got.hi) == (lo, hi), (word, sorted(tree.nodes))


def test_fine_labels_equal_cell_enumeration():
    # Label exponents 12-14 exceed every lookahead left at horizon 11, so
    # each copy answers by its inexact closed form: the cells wholly
    # below the label plus one partial cell.
    rng = random.Random(4096)
    fine = tuple(F(rng.randrange(1, 1 << k, 2), 1 << k) for k in (12, 13, 14) for _ in range(4))
    for _ in range(4):
        tree = _random_tree(rng)
        labels = _random_labels(rng, fine)
        oracle = OffspringOracle(tree, labels)
        for word in _binary_words(3):
            lo, hi = offspring_cell_bounds(tree.member, labels.label, word, 11)
            got = oracle.local_bounds(word, 11)
            assert (got.lo, got.hi) == (lo, hi), (word, sorted(tree.nodes))


def test_interleave_tree_matches_enumeration():
    zeros = ExplicitTree([()], {(): "zeros"})
    tree = InterleaveTree(ExplicitTree.full_binary(), zeros)
    labels = ExplicitLabels({(1,): F(1, 4)}, F(1, 2))
    oracle = OffspringOracle(tree, labels)
    for word in _binary_words(3):
        lo, hi = offspring_cell_bounds(tree.member, labels.label, word, 11)
        got = oracle.local_bounds(word, 11)
        assert (got.lo, got.hi) == (lo, hi), word


def test_stand_ins_answer_inside_cell_enumeration():
    # Enumeration reads a copy as the cells below its label at the
    # horizon; a stand-in copy answers its exact mass, inside that slack.
    rng = random.Random(1913)
    tighter = 0
    for _ in range(4):
        tree = _random_tree(rng)
        labels = _random_labels(rng, WITH_THIRDS)
        oracle = OffspringOracle(tree, labels)
        for word in _binary_words(3):
            lo, hi = offspring_cell_bounds(tree.member, labels.label, word, 11)
            got = oracle.local_bounds(word, 11)
            assert lo <= got.lo <= got.hi <= hi, (word, sorted(tree.nodes))
            tighter += (got.lo, got.hi) != (lo, hi)
    assert tighter > 0


def test_reuse_respects_horizon():
    # Deep calls settle regions exactly; later shallow calls must still
    # answer as a fresh oracle would at the shallow horizon. Stand-in
    # values settle as Fractions and are rescaled on reuse.
    rng = random.Random(77)
    for values in (EIGHTHS, WITH_THIRDS):
        for _ in range(6):
            _check_reuse(_random_tree(rng), _random_labels(rng, values))


def _check_reuse(tree, labels):
    warm = OffspringOracle(tree, labels)
    for word in _binary_words(3):
        warm.local_bounds(word, 12)
    for word in _binary_words(3):
        for budget in (0, 3, 6):
            cold = OffspringOracle(tree, labels)
            assert warm.local_bounds(word, budget) == cold.local_bounds(word, budget)


def test_bounds_tighten_with_budget():
    rng = random.Random(11)
    tree = _random_tree(rng)
    labels = _random_labels(rng)
    oracle = OffspringOracle(tree, labels)
    previous = UNIT
    for budget in range(0, 14, 2):
        current = oracle.measure_bounds(budget)
        assert previous.lo <= current.lo and current.hi <= previous.hi
        previous = current


# ----- behaviour along branches -------------------------------------------


def test_boundary_bounds_track_labels():
    rng = random.Random(5)
    tree = ExplicitTree.full_binary()
    for _ in range(5):
        labels = _random_labels(rng)
        oracle = OffspringOracle(tree, labels)
        for base in (Branch((), (0,)), Branch((), (1,)), Branch((1, 0), (0,))):
            point = StretchedBranch(base)
            for order in range(2, 7):
                target = labels.label(base.prefix(order))
                margin = F(1, 1 << order)
                nearby = RatInterval(max(F(0), target - margin), min(F(1), target + margin))
                bounds = oracle.local_bounds(point.prefix(triangular(order)), triangular(order) + 12)
                assert bounds.intersects(nearby)


def test_certificate_dead_walk():
    tree = ExplicitTree([()], {(): "zeros"})
    oracle = OffspringOracle(tree, HALF_TABLE)
    cert = oracle.tail_certificate(Branch((1,), (1,)), 40)
    assert cert.interval == EMPTY_MASS
    assert cert.start == 1
    stretched = oracle.tail_certificate(StretchedBranch(Branch((), (1,))), 40)
    assert stretched.interval == EMPTY_MASS


def test_certificate_flag_entry():
    oracle = full_half()
    point = Branch((0, 0, 1), (0,))
    cert = oracle.tail_certificate(point, 40)
    assert cert.interval == FULL_MASS
    assert cert.start == 4
    verdict = oracle.classify(point)
    assert verdict.kind == "converges"
    assert verdict.interval.contains(F(1))


def test_no_certificate_along_an_unstretched_walk():
    # Three letters never flag, and the point is no stretched branch.
    assert full_half().tail_certificate(Branch((1, 0, 0), (1, 0)), 8) is None


def test_certificate_hull_constant_labels():
    tree = ExplicitTree.full_binary()
    labels = ExplicitLabels({(1,): F(3, 4)}, F(3, 4))
    oracle = OffspringOracle(tree, labels)
    cert = oracle.tail_certificate(Branch((1,), (0,)), 48)
    assert cert is not None
    assert cert.start == triangular(12)
    assert cert.interval.contains(F(3, 4))
    assert cert.interval.width <= F(2, 1 << 12)


def test_certificate_hull_spans_table_labels():
    tree = ExplicitTree.full_binary()
    labels = ExplicitLabels({(0, 0): F(1, 4), (0, 0, 0): F(7, 8)}, F(1, 2))
    oracle = OffspringOracle(tree, labels)
    cert = oracle.tail_certificate(StretchedBranch(Branch((), (0,))), 12)
    assert cert.start == triangular(3)
    assert cert.interval.contains(F(7, 8))
    assert cert.interval.contains(F(1, 2))


def test_classify_converges_on_stretched_branches():
    oracle = full_half()
    for base in (Branch((), (0, 1)), Branch((), (0,))):
        verdict = oracle.classify(StretchedBranch(base), max_depth=48)
        assert verdict.kind == "converges"
        assert verdict.interval.contains(F(1, 2))
        assert verdict.interval.width <= F(2, 1 << 12)


def _hull_or_death(oracle, base: Branch, start_order: int):
    """The certificate of the stretched image of ``base`` past the walk:
    the labels' padded hull, or empty from where the branch leaves the tree."""
    death = oracle.tree.death_depth(base)
    if death is None:
        hull = oracle.labels.branch_label_hull(base, start_order)
        pad = F(1, 1 << start_order)
        interval = RatInterval(max(F(0), hull.lo - pad), min(F(1), hull.hi + pad))
        return TailCertificate(interval, triangular(start_order))
    if death > 4 * (start_order + len(base.head) + len(base.cycle)) + 64:
        return None
    return TailCertificate(EMPTY_MASS, triangular(death))


def test_stretched_images_skip_the_walk(monkeypatch):
    # Each block of a stretched image repeats one letter, so its walk never
    # flags and can only leave the tree where Tree.death_depth finds it:
    # the certificate equals the walk, then the hull or the death.
    walk = OffspringOracle._walking_certificate

    def refuse(*_):
        raise AssertionError("walked a stretched image")

    monkeypatch.setattr(OffspringOracle, "_walking_certificate", refuse)
    rng = random.Random(28)
    presentation = InjectivePresentation(F(1, 8))
    outcomes = {"walk": 0, "hull": 0, "death": 0}
    for case in range(240):
        tree = _random_tree(rng)
        oracle = (OffspringOracle(tree, _random_labels(rng, WITH_THIRDS)), second_reduction(tree),
                  first_reduction(presentation, tree), third_reduction(presentation, tree))[case % 4]
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(7)))
        point, effort = Branch(stretch(word), (rng.randrange(2),)), rng.randrange(8, 41)
        start_order = max(2, effort // 4)
        walked = walk(oracle, point, triangular(start_order), effort)
        expected = walked or _hull_or_death(oracle, as_stretched(point), start_order)
        cert = oracle.tail_certificate(point, effort)
        assert cert == expected, (case, point)
        if walked is not None:
            assert cert.interval == EMPTY_MASS
            outcomes["walk"] += 1
        else:
            outcomes["hull" if cert.interval != EMPTY_MASS else "death"] += 1
    # Deaths inside the guard, past it, and hulls all occur.
    assert min(outcomes.values()) >= 10, outcomes


def test_stretched_branch_points_skip_the_walk(monkeypatch):
    # A StretchedBranch hands over its base even when the base is not
    # eventually constant, so no plain point spells it; its certificate
    # is the hull or the death all the same, without a walk.
    def refuse(*_):
        raise AssertionError("walked a stretched image")

    monkeypatch.setattr(OffspringOracle, "_walking_certificate", refuse)
    rng = random.Random(29)
    presentation = InjectivePresentation(F(1, 8))
    outcomes = {"hull": 0, "death": 0}
    for case in range(160):
        tree = _random_tree(rng)
        oracle = (OffspringOracle(tree, _random_labels(rng, WITH_THIRDS)), second_reduction(tree),
                  first_reduction(presentation, tree), third_reduction(presentation, tree))[case % 4]
        base = Branch(tuple(rng.randrange(2) for _ in range(rng.randrange(5))),
                      ((0, 1), (1, 0), (0,), (1,))[rng.randrange(4)])
        effort = rng.randrange(8, 41)
        cert = oracle.tail_certificate(StretchedBranch(base), effort)
        assert cert == _hull_or_death(oracle, base, max(2, effort // 4)), (case, base)
        outcomes["hull" if cert.interval != EMPTY_MASS else "death"] += 1
    assert min(outcomes.values()) >= 10, outcomes


# ----- label tables --------------------------------------------------------


def test_labels_validation():
    with pytest.raises(ValueError):
        ExplicitLabels({(0,): F(-1, 3)})
    with pytest.raises(ValueError):
        ExplicitLabels({}, F(9, 8))
    # Non-dyadic rationals are fine at the label-map level.
    assert ExplicitLabels({(0,): F(1, 3)}).label((0,)) == F(1, 3)


def test_build_rejects_degenerate_labels():
    # A document's labels lie in (0;1); a label table takes [0, 1], where
    # 0 and 1 copy as the empty and the full segment. A table's own check
    # comes first, then the document's labels, then its default.
    def message(labels: dict, default: str) -> str:
        doc = {"kind": "offspring", "tree": {"nodes": [""], "policies": {"": "full"}},
               "labels": labels, "default_label": default}
        with pytest.raises(ValueError) as raised:
            oracle_from_spec(doc)
        return str(raised.value)

    assert message({"0": "0"}, "1") == "label at (0,) must lie in (0;1): 0"
    assert message({"0": "1/3"}, "1") == "default label must lie in (0;1): 1"
    assert message({"0": "0"}, "3/2") == "default label must lie in [0, 1]: 3/2"
    built = oracle_from_spec({"kind": "offspring", "tree": {"nodes": [""], "policies": {"": "full"}},
                              "labels": {"0": "1/3"}})
    assert built.labels.label((0,)) == F(1, 3)
    assert ExplicitLabels({(0,): F(0)}, F(1)).label((0,)) == F(0)


def test_non_dyadic_copies_answer_exactly():
    # Flagging into a copy of mass 1/3 settles the localized measure to
    # the exact point 1/3, and tail certificates pin the branch there.
    third = OffspringOracle(ExplicitTree.full_binary(), ExplicitLabels({}, F(1, 3)))
    flagged = (0, 1, 0)  # root block 0, then the mixed block (1, 0)
    assert third.local_bounds(flagged, 10) == RatInterval.point(F(1, 3))
    deeper = third.local_bounds(flagged + (0,), 12)
    assert deeper == RatInterval.point(F(2, 3))
    cert = third.tail_certificate(Branch(flagged, (0,)), 40)
    assert cert is not None
    assert cert.interval.contains(F(0)) or cert.interval.is_point()
    verdict = third.classify(Branch(flagged + (0, 1, 1), (0,)), max_depth=60)
    assert verdict.kind == "converges"


def test_labels_keys_and_hull():
    labels = ExplicitLabels({(0, 1): F(1, 4)}, F(1, 2))
    assert labels.label((0, 1)) == F(1, 4)
    assert labels.label((1, 1)) == F(1, 2)
    assert labels.node_key((0,)) == ("table", (0,))
    assert labels.node_key((1,)) == ("default",)
    hull = labels.branch_label_hull(Branch((0, 1), (1,)), 0)
    assert (hull.lo, hull.hi) == (F(1, 4), F(1, 2))


def test_trace_steps_once_per_depth(monkeypatch):
    # At window 0 every bound is read off the state itself, so a trace
    # to depth n steps the block state machine n times, not n^2 / 2.
    step = OffspringOracle._step
    calls = []

    def counted(self, state, letter):
        calls.append(letter)
        return step(self, state, letter)

    monkeypatch.setattr(OffspringOracle, "_step", counted)
    depth = 150
    point = StretchedBranch(Branch((), (1, 0)))
    oracle = OffspringOracle(ExplicitTree.full_binary(), ExplicitLabels({}, F(3, 8)))
    bounds = list(oracle.trace(point, depth, window=0))
    assert len(bounds) == depth + 1
    assert len(calls) <= depth


def test_stand_in_trace_steps_once_per_depth(monkeypatch):
    # A stand-in state carries its stand-in set as seen from where it
    # is, so a trace inside a non-dyadic copy steps that set once per
    # letter instead of localizing it afresh at every depth.
    child = SpongyMeasureOracle.child
    calls = []

    def counted(self, letter):
        calls.append(letter)
        return child(self, letter)

    monkeypatch.setattr(SpongyMeasureOracle, "child", counted)
    tree = ExplicitTree([(), (0,), (1,), (1, 0)], {(0,): "full", (1, 0): periodic((1,))})
    # 0 enters node 0, whose mixed block 01 flags into the 2/7 stand-in.
    oracle = OffspringOracle(tree, ExplicitLabels({(): F(1, 3)}, F(2, 7)))
    depth = 200
    bounds = list(oracle.trace(Branch((0, 0, 1), (0,)), depth, window=0))
    assert all(b.is_point() for b in bounds[3:])
    assert 0 < len(calls) <= depth


def test_stand_in_states_stay_out_of_the_memo(monkeypatch):
    # A stand-in state answers exactly as a leaf, so it settles where it
    # is reached and is never jumped; its key names the value only, not
    # the word read since the flag.
    jump = OffspringOracle._jump
    jumped = []

    def counted(self, state):
        jumped.append(state[0][0])
        return jump(self, state)

    monkeypatch.setattr(OffspringOracle, "_jump", counted)
    tree = ExplicitTree([(), (0,), (1,), (1, 0)], {(0,): "full", (1, 0): periodic((1,))})
    oracle = OffspringOracle(tree, ExplicitLabels({(): F(1, 3)}, F(2, 7)))
    bounds = list(oracle.trace(Branch((0, 0, 1), (1, 0)), 2000, window=16))
    assert all(b.is_point() for b in bounds[3:])
    assert jumped and set(jumped) <= {"block"}
    # The step that flags hands the view over to the shared stand-in.
    stand_in = oracle._nodes.stand_ins[F(2, 7)]
    assert oracle.localize((0, 0, 1)) is stand_in
    assert oracle.localize((0, 0, 1, 1)) is stand_in.child(1)


def _window_sets(rng):
    for _ in range(4):
        tree = _random_tree(rng)
        yield OffspringOracle(tree, _random_labels(rng))
        yield OffspringOracle(tree, _random_labels(rng, WITH_THIRDS))
    full = ExplicitTree.full_binary()
    yield second_reduction(full)
    yield second_reduction(_random_tree(rng))
    for presentation in (ConstantPresentation(F(2, 7)), AffineImagePresentation(F(1, 4), F(1, 2)),
                         InjectivePresentation(F(1, 8))):
        yield first_reduction(presentation, full)
        yield first_reduction(presentation, _random_tree(rng))
        yield third_reduction(presentation, full)


def _window_points(rng):
    def branch():
        head = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
        return Branch(head, tuple(rng.randrange(2) for _ in range(1 + rng.randrange(3))))

    return branch(), StretchedBranch(branch()), interleave_branches(branch(), branch())


def test_block_jumps_equal_letterwise_evaluation():
    # Jumping whole blocks gives the bounds that stepping every letter
    # of every block gives, for every window from 0 to 20.
    rng = random.Random(1705)
    windows = itertools.cycle(range(21))
    for oracle in _window_sets(rng):
        for point in _window_points(rng):
            window, start = next(windows), rng.randrange(4)
            for depth in range(start, start + 24):
                local = oracle.localize(point.prefix(depth))
                # A settled view is a shared segment with no state; the
                # reference steps a view of its own letter by letter, and
                # once it flags into a stand-in, steps the stand-in set.
                view = copy.copy(oracle)
                for letter in point.prefix(depth):
                    key, t = view.state
                    view.state = ((key, t.child(letter)) if key[0] == "stand-in"
                                  else view._step(view.state, letter))
                assert local.measure_bounds(window) == letterwise_offspring_bounds(view, window), \
                    (depth, window, point)


def test_no_view_holds_a_stand_in_state():
    # The step that flags into a stand-in hands the view over to the
    # shared stand-in oracle, so an offspring view only ever holds a
    # block or a copy state.
    rng = random.Random(2285)
    handed = 0
    for oracle in _window_sets(rng):
        for point in _window_points(rng):
            for depth in range(24):
                view = oracle.localize(point.prefix(depth))
                if isinstance(view, OffspringOracle):
                    assert view.state[0][0] in ("block", "copy"), (depth, point)
                handed += isinstance(view, SpongyMeasureOracle)
    assert handed


def test_steps_never_start_from_a_stand_in(monkeypatch):
    # Traces settle a stand-in state as a leaf and the certificate walk
    # returns at it, so no caller steps from one.
    step = OffspringOracle._step
    kinds = set()

    def recorded(self, state, letter):
        kinds.add(state[0][0])
        return step(self, state, letter)

    monkeypatch.setattr(OffspringOracle, "_step", recorded)
    tree = ExplicitTree([(), (0,), (1,), (1, 0)], {(0,): "full", (1, 0): periodic((1,))})
    oracle = OffspringOracle(tree, ExplicitLabels({(): F(1, 3)}, F(2, 7)))
    for point in (Branch((0, 0, 1), (1, 0)), Branch((1, 0, 1), (1,)), Branch((), (0, 1, 1))):
        list(oracle.trace(point, 200, window=8))
        oracle.classify(point, max_depth=40)
    assert "block" in kinds and "stand-in" not in kinds


def _block_states(rng):
    """The block states that the window grid's oracles reach along its
    points, each once. No step leads from another state back into a
    block, so each walk stops at its first state that is not one."""
    seen = {}
    for oracle in _window_sets(rng):
        for point in _window_points(rng):
            state = oracle.state
            for letter in point.prefix(24):
                if state[0][0] != "block":
                    break
                seen.setdefault((id(oracle.tree), state[0]), (oracle, state))
                state = oracle._step(state, letter)
    return seen.values()


def test_jump_groups_every_continuation_of_the_block():
    # All 2^r letter-by-letter continuations to the end of a block,
    # grouped by key, are exactly the jump's states and multipliers.
    # Siblings may share a key, so both sides group states and counts.
    def grouped(pairs):
        out = {}
        for end, count in pairs:
            entry = out.setdefault(end[0], [set(), 0])
            entry[0].add(end)
            entry[1] += count
        return out

    checked = 0
    for oracle, state in _block_states(random.Random(1705)):
        left, probe = 1, oracle._step(state, 0)
        while probe[0][0] == "block" and probe[0][3]:
            left, probe = left + 1, oracle._step(probe, 0)
        stepped = []
        for word in itertools.product((0, 1), repeat=left):
            end = state
            for letter in word:
                end = oracle._step(end, letter)
            stepped.append((end, 1))
        assert grouped(oracle._jump(state)) == grouped(stepped), state[0]
        checked += 1
    assert checked > 200


def test_negative_window_reads_as_zero():
    oracle = second_reduction(ExplicitTree.full_binary())
    point = StretchedBranch(Branch((), (1, 0)))
    assert list(oracle.trace(point, 30, window=-3)) == list(oracle.trace(point, 30, window=0))


def _count_jumps_and_steps(monkeypatch) -> list[int]:
    calls = [0]
    jump, step = OffspringOracle._jump, OffspringOracle._step

    def counted_jump(self, state):
        calls[0] += 1
        return jump(self, state)

    def counted_step(self, state, letter):
        calls[0] += 1
        return step(self, state, letter)

    monkeypatch.setattr(OffspringOracle, "_jump", counted_jump)
    monkeypatch.setattr(OffspringOracle, "_step", counted_step)
    return calls


def test_trace_jumps_a_few_times_per_depth(monkeypatch):
    # A fresh bound at every depth jumps only the few blocks its window
    # meets: 200 depths at window 16 take at most three jumps and steps
    # per depth.
    calls = _count_jumps_and_steps(monkeypatch)
    point = StretchedBranch(Branch((), (1, 0)))
    list(second_reduction(ExplicitTree.full_binary()).trace(point, 199, window=16))
    assert calls[0] <= 3 * 200


def test_second_trace_step_costs_no_more_than_the_first(monkeypatch):
    # Each bound of a trace is evaluated afresh, so a 2-step trace at
    # window 4000 costs at most twice a 1-step one, although every
    # off-point sibling of the second reduction reaches the same few keys.
    calls = _count_jumps_and_steps(monkeypatch)
    point = StretchedBranch(Branch((), (1, 0)))
    costs = []
    for depth in (0, 1):
        calls[0] = 0
        list(second_reduction(ExplicitTree.full_binary()).trace(point, depth, window=4000))
        costs.append(calls[0])
    assert 0 < costs[1] <= 2 * costs[0]


def test_child_views_copy_nothing(monkeypatch):
    # A child step builds a light view on the shared node states; no
    # oracle is copied, however long the walk.
    def refuse(_):
        raise AssertionError("copy.copy called")

    monkeypatch.setattr(copy, "copy", refuse)
    point = StretchedBranch(Branch((), (1, 1, 0)))
    presentation = InjectivePresentation(F(1, 8))
    oracles = [second_reduction(ExplicitTree.full_binary()),
               first_reduction(presentation, ExplicitTree.full_binary()),
               third_reduction(presentation, ExplicitTree.full_binary()),
               OffspringOracle(ExplicitTree.full_binary(), ExplicitLabels({(1,): F(2, 7)}))]
    prefix = point.prefix(300)
    for oracle in oracles:
        view = oracle
        for letter in prefix:
            view = view.child(letter)
            if isinstance(view, OffspringOracle):
                assert view._nodes.entered is oracle._nodes.entered
                assert vars(view).keys() == vars(oracle).keys()
        assert oracle.localize(prefix).measure_bounds(4) == view.measure_bounds(4)
    spongy = dualistic_of_measure(F(1, 5)).oracle
    # A view carries every attribute that __init__ sets.
    assert vars(spongy.child(0)).keys() == vars(spongy).keys()
    for word in ((0,) * 300, (0,) * 150 + (1,) * 150):
        assert spongy.localize(word).measure_bounds() == RatInterval.point(
            spongy_local_measure(spongy.measure, word))


def test_localized_oracle_gives_no_root_certificate():
    # Tail certificates read the point from the root; below it they
    # would certify the wrong set.
    oracle = OffspringOracle(ExplicitTree.full_binary(), ExplicitLabels({}, F(3, 8)))
    point = StretchedBranch(Branch((), (1,)))
    assert oracle.tail_certificate(point, 20) is not None
    assert oracle.localize((1, 1)).tail_certificate(point, 20) is None


def test_deep_budget_memory_grows_linearly():
    # The evaluator keeps numerators for two levels at a time, so the
    # peak grows about linearly with the budget; numerators of up to h
    # bits kept for every level would make it quadratic.
    def peak(budget):
        oracle = second_reduction(ExplicitTree.full_binary())
        tracemalloc.start()
        try:
            oracle.measure_bounds(budget)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2000), peak(4000)
    assert large < 10 * 2**20
    assert large < 2.5 * small


def test_prune_rejects_nodes_outside_the_offspring_tree():
    offspring = OffspringOracle(ExplicitTree([(), (0,)], {(0,): "full"}), HALF_TABLE)
    inside = ExplicitTree([(), (0,), (0, 1)], {(0, 1): "zeros"})
    assert offspring_prune(offspring, inside).tree.member((0, 1, 0))
    outside = ExplicitTree([(), (0,), (1,)], {(0,): "full", (1,): "full"})
    with pytest.raises(ValueError, match=r"not a subtree: \(1,\) is outside"):
        offspring_prune(offspring, outside)
