"""Label maps, classifications, and builders of the tree-to-set reductions."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from cantordensity import reductions
from cantordensity.approx import (
    AffineImagePresentation,
    ConstantPresentation,
    InjectivePresentation,
    nudged_parts,
)
from cantordensity.branches import Branch, StretchedBranch
from cantordensity.dualistic import solid_countable_range
from cantordensity.dyadics import RatInterval, dyadic_of_rank, least_dyadic_parts
from cantordensity.offspring import ExplicitLabels, OffspringOracle
from cantordensity.reductions import (
    EXPLORED_NODES,
    EnumeratedValueLabels,
    InterleavedAdjustedLabels,
    OnesParityLabels,
    TailAlternationLabels,
    decoded_branch,
    first_reduction,
    label_spread_certificate,
    require_lipschitz,
    second_reduction,
    solid_analytic,
    solid_injective,
    third_reduction,
    uniformity_pipeline,
)
from cantordensity.trees import ExplicitTree, PairInterleaveTree, materialize, periodic, section
from oracletools import (
    dyadic_value,
    interleave_closure,
    label_reference,
    points_at_depth,
    random_preset,
    third_reduction_check_reference,
)

HALF = ConstantPresentation(F(1, 2))
INJ = InjectivePresentation(F(1, 4))
AFFINE = AffineImagePresentation(F(1, 4), F(3, 4))

DYADICS = [dyadic_of_rank(r) for r in range(512)]


def words_up_to(length):
    for n in range(length + 1):
        yield from points_at_depth(n)


# ----- second reduction --------------------------------------------------


def test_ones_parity_values():
    labels = OnesParityLabels()
    assert labels.label(()) == F(1, 2)
    assert labels.label((1,)) == F(1, 4)
    assert labels.label((1, 1)) == F(7, 8)
    assert labels.label((0, 0, 0)) == F(15, 16)


def test_ones_parity_complement_law():
    labels = OnesParityLabels()
    for t in words_up_to(6):
        flipped = t[:-1] + (1 - t[-1],) if t else None
        if flipped is None:
            continue
        assert labels.label(t) + labels.label(flipped) == 1


def test_second_full_tree_oscillates():
    oracle = second_reduction(ExplicitTree.full_binary())
    verdict = oracle.classify(StretchedBranch(Branch((), (1,))), max_depth=78)
    assert verdict.kind == "blurry"
    assert verdict.delta >= 1 - F(1, 16)


def test_second_zeros_tree_converges_to_one():
    zeros_tree = ExplicitTree([()], {(): "zeros"})
    oracle = second_reduction(zeros_tree)
    verdict = oracle.classify(StretchedBranch(Branch((), (0,))))
    assert verdict.kind == "converges"
    assert verdict.interval.lo >= 1 - F(1, 256)
    assert verdict.interval.hi <= 1


def test_second_odd_head_converges_to_zero():
    oracle = second_reduction(ExplicitTree.full_binary())
    verdict = oracle.classify(StretchedBranch(Branch((1,), (0,))))
    assert verdict.kind == "converges"
    assert verdict.interval.lo >= 0
    assert verdict.interval.hi <= F(1, 256)


# ----- first reduction ---------------------------------------------------


def test_tail_alternation_frozen_values():
    labels = TailAlternationLabels(HALF)
    assert labels.label((1,)) == F(3, 8)
    assert labels.label((1, 0)) == F(5, 8)
    assert labels.label(()) == F(1, 4)
    assert labels.label((0,)) == F(3, 4)
    assert labels.label((0, 0)) == F(1, 4)


@pytest.mark.parametrize("presentation", [HALF, AFFINE, INJ])
def test_tail_alternation_parity_law(presentation):
    labels = TailAlternationLabels(presentation)
    for t in words_up_to(6):
        head = t
        zeros = 0
        while head and head[-1] == 0:
            head = head[:-1]
            zeros += 1
        middle = least_dyadic_parts(*presentation.presented_numerators(head))
        below, above = (nudged_parts(*middle, len(head) + 2, up) for up in (False, True))
        expected = below if zeros % 2 == 0 else above
        assert labels.label(t) == dyadic_value(expected)


def _reduced_copy_key(key) -> bool:
    _, a, k = key
    return a % 2 == 1 or (a, k) in ((0, 0), (1, 0))


def test_labels_match_the_fraction_reference_and_keys_stay_reduced():
    # The three reductions' labels are integer rules; their values must
    # be the Fraction-era labels, and every copy key the oracle builds
    # from them a reduced dyadic. Explicit tables keep non-dyadic values.
    rng = random.Random(1705)
    label_maps = [OnesParityLabels()]
    for preset in [HALF, AFFINE, INJ] + [random_preset(rng) for _ in range(24)]:
        label_maps += [TailAlternationLabels(preset), InterleavedAdjustedLabels(preset)]
    seen = Counter()
    for labels in label_maps:
        oracle = OffspringOracle(ExplicitTree.full_binary(), labels)
        for _ in range(60):
            node = tuple(rng.randrange(2) for _ in range(rng.randrange(13)))
            expected = label_reference(labels, node)
            assert labels.label(node) == expected, (labels, node)
            key = oracle._flag(node)[0]
            assert key[0] == "copy" and _reduced_copy_key(key), (labels, node, key)
            assert dyadic_value(key[1:]) == expected
            seen[type(labels).__name__] += 1
    for _ in range(40):
        values = [F(rng.randrange(q + 1), q) for q in (2, 3, 4, 7, 8, 64) for _ in range(3)]
        table = {tuple(rng.randrange(2) for _ in range(rng.randrange(6))): rng.choice(values)
                 for _ in range(8)}
        labels = ExplicitLabels(table, rng.choice(values))
        oracle = OffspringOracle(ExplicitTree.full_binary(), labels)
        for node in points_at_depth(5):
            node = node[: rng.randrange(6)]
            expected = table.get(node, labels.default)
            assert labels.label(node) == expected
            key = oracle._flag(node)[0]
            if key[0] == "copy":
                assert _reduced_copy_key(key) and dyadic_value(key[1:]) == expected
            else:
                assert key == ("stand-in", expected)
            seen["ExplicitLabels", key[0]] += 1
    assert len(seen) == 5, seen


def test_offspring_asks_each_node_once():
    # Label maps are pure; the oracle keeps what it learns about a node.
    asked = Counter()

    class CountedParity(OnesParityLabels):
        def label_parts(self, node):
            asked["label", tuple(node)] += 1
            return super().label_parts(node)

        def node_key(self, node):
            asked["node_key", tuple(node)] += 1
            return super().node_key(node)

    oracle = OffspringOracle(ExplicitTree.full_binary(), CountedParity())
    point = StretchedBranch(Branch((), (1, 0)))
    reference = second_reduction(ExplicitTree.full_binary()).bound_runs(point, 0, 41, window=12)
    assert list(oracle.bound_runs(point, 0, 41, window=12)) == list(reference)
    assert asked
    assert max(asked.values()) == 1


def test_first_reduction_periodic_branch_converges():
    tree = ExplicitTree([(), (0,), (1,)], {(0,): "zeros", (1,): periodic((1,))})
    oracle = first_reduction(HALF, tree)
    verdict = oracle.classify(StretchedBranch(Branch((), (1,))), eps=F(1, 64))
    assert verdict.kind == "converges"
    assert abs(verdict.interval.midpoint - F(1, 2)) + verdict.interval.width / 2 <= F(1, 64)


def test_first_reduction_spine_oscillates():
    tree = ExplicitTree([(), (0,), (1,)], {(0,): "zeros", (1,): periodic((1,))})
    oracle = first_reduction(HALF, tree)
    verdict = oracle.classify(StretchedBranch(Branch((), (0,))), max_depth=78)
    assert verdict.kind == "blurry"
    assert verdict.delta >= F(1, 4)


# ----- third reduction ---------------------------------------------------


def test_interleaved_frozen_values():
    labels = InterleavedAdjustedLabels(HALF)
    assert labels.adjusted(()) == (1, 1)
    assert labels.adjusted((0,)) == (3, 2)
    assert labels.adjusted((1,)) == (1, 2)
    # Even length reads the raised or lowered variant of the run node.
    assert labels.label((1, 1)) == F(7, 8)
    # Odd length closes the dangling run with a one first.
    assert labels.label((1, 1, 0)) == F(5, 8)


@pytest.mark.parametrize("presentation", [HALF, AFFINE, INJ])
def test_interleaved_sibling_spread_law(presentation):
    labels = InterleavedAdjustedLabels(presentation)
    parents = [()]
    for length in (1, 2):
        parents.extend(
            u for u in _nat_words_of(length) if max(u) < 4
        )
    for u in parents:
        children = [dyadic_value(labels.adjusted(u + (k,))) for k in range(4)]
        for i, a in enumerate(children):
            for b in children[i + 1:]:
                assert abs(a - b) < F(2, 1 << len(u))


def _nat_words_of(length):
    if length == 1:
        return [(k,) for k in range(4)]
    return [(j, k) for j in range(4) for k in range(4)]


def test_spread_certificate_accepts_and_rejects():
    label_spread_certificate(InterleavedAdjustedLabels(HALF))
    label_spread_certificate(InterleavedAdjustedLabels(INJ))
    with pytest.raises(ValueError, match="spread"):
        label_spread_certificate(InterleavedAdjustedLabels(AFFINE))


class CountedReads:
    """A presentation that counts its reads by node."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = Counter()

    def presented_numerators(self, node):
        self.reads[node] += 1
        return self.inner.presented_numerators(node)

    def value(self, point):
        return self.inner.value(point)


def test_spread_certificate_decides_separated_nodes_by_the_first_pair(monkeypatch):
    # A passing preset's children 0 and 1 separate at every explored
    # node, so the check computes their two adjusted values and no more;
    # it still reads each presented interval of the 85 nodes and their
    # 340 children once.
    computed = []
    adjusted = reductions._adjusted_parts

    def counted(interval, node):
        computed.append(node)
        return adjusted(interval, node)

    monkeypatch.setattr(reductions, "_adjusted_parts", counted)
    first_pairs = sorted(node + (k,) for node in EXPLORED_NODES for k in (0, 1))
    for preset in (HALF, INJ, AffineImagePresentation(F(1, 8), F(3, 8))):
        computed.clear()
        presentation = CountedReads(preset)
        label_spread_certificate(InterleavedAdjustedLabels(presentation))
        assert sorted(computed) == first_pairs and len(computed) == 170, preset
        assert len(presentation.reads) == 341 and set(presentation.reads.values()) == {1}
    # The root's pair separates; below (0,) it does not, so all four
    # children are computed before the spread test rejects.
    computed.clear()
    with pytest.raises(ValueError, match=r"below \(0,\) spread"):
        label_spread_certificate(InterleavedAdjustedLabels(AFFINE))
    assert computed == [(0,), (1,), (0, 0), (0, 1), (0, 2), (0, 3)]


class TablePresentation:
    """Intervals drawn per node from a seed: some wider than the node
    scale, some outside (0;1), some cancelling the adjustment."""

    def __init__(self, seed):
        self.seed = seed

    def presented_numerators(self, node):
        # Hashes of integer tuples do not depend on the hash seed.
        draw = hash((self.seed, node))
        # The middle (draw % 35 - 1)/32, over 800 * 2^len(node).
        middle = (draw % 35 - 1) * 25 << len(node)
        # Wider than the node scale one time in 401.
        half_width = (draw >> 8) % 401 + 1
        return middle - half_width, middle + half_width, 800 << len(node)

    def value(self, point):
        return None


def _random_presentation(rng):
    kind = rng.randrange(5)
    if kind == 0:
        q = rng.randrange(2, 40)
        return ConstantPresentation(F(rng.randrange(1, q), q))
    if kind == 1:
        a, b = sorted(rng.sample(range(1, 16), 2))
        return AffineImagePresentation(F(a, 16), F(b, 16))
    if kind == 2:
        q = rng.randrange(3, 30)
        a, b = sorted(rng.sample(range(1, q), 2))
        return AffineImagePresentation(F(a, q), F(b, q))
    if kind == 3:
        q = rng.randrange(3, 60)
        return InjectivePresentation(F(rng.randrange(1, (q + 1) // 2), q))
    return TablePresentation(rng.randrange(10**9))


class ReadOnce:
    """A presentation whose intervals are computed once and then replayed,
    so the package and the reference share that cost."""

    def __init__(self, inner):
        self.inner = inner
        self.intervals = {}

    def presented_numerators(self, node):
        if node not in self.intervals:
            self.intervals[node] = self.inner.presented_numerators(node)
        return self.intervals[node]

    def value(self, point):
        return self.inner.value(point)


def test_third_reduction_checks_match_enumeration():
    # One walk reads each presented interval once and checks on integer
    # numerators; the verdict and message must be the enumeration's.
    rng = random.Random(2017)
    verdicts = Counter()
    for _ in range(2000):
        presentation = ReadOnce(_random_presentation(rng))
        try:
            label_spread_certificate(InterleavedAdjustedLabels(presentation))
            got = None
        except ValueError as err:
            got = str(err)
        assert got == third_reduction_check_reference(presentation), presentation.inner
        verdicts[(got or "passes").split(" ")[0]] += 1
    # Passes and every kind of rejection: wide, empty, cancelling.
    assert set(verdicts) == {"passes", "presented", "no", "adjusted"}, verdicts


def test_third_reduction_rejects_cancelling_presentation():
    with pytest.raises(ValueError):
        third_reduction(AFFINE, ExplicitTree.full_binary())


class WidePresentation:
    def presented_numerators(self, node):
        return 1, 99, 100

    def value(self, point):
        return F(1, 2)


def test_third_reduction_rejects_wide_presentation():
    with pytest.raises(ValueError, match="wider"):
        third_reduction(WidePresentation(), ExplicitTree.full_binary())
    require_lipschitz(HALF)
    require_lipschitz(AFFINE)
    require_lipschitz(INJ)


def test_third_designated_point_converges():
    point = StretchedBranch(Branch((), (1,)))
    for presentation, value in ((HALF, F(1, 2)), (INJ, F(3, 4))):
        assert presentation.value(Branch((0,), (0,))) == value
        oracle = third_reduction(presentation, ExplicitTree.full_binary())
        verdict = oracle.classify(point, eps=F(1, 32))
        assert verdict.kind == "converges"
        assert verdict.interval.lo >= value - F(1, 32)
        assert verdict.interval.hi <= value + F(1, 32)


def test_third_dead_codec_half_oscillates():
    oracle = third_reduction(HALF, ExplicitTree.full_binary())
    verdict = oracle.classify(StretchedBranch(Branch((), (1, 0))), max_depth=78)
    assert verdict.kind == "blurry"
    assert verdict.delta >= F(5, 16)


def test_decoded_branch():
    assert decoded_branch(Branch((), (1,))) == Branch((0,), (0,))
    assert decoded_branch(Branch((), (0,))) is None
    assert decoded_branch(Branch((1, 0), (0, 1))) == Branch((0, 2), (1,))


# ----- solid-set builders ------------------------------------------------


def test_solid_analytic_enumerated_values():
    built = solid_analytic(AFFINE, DYADICS)
    labels = built.oracle.labels
    assert labels.value_at(()) == F(1, 2)
    assert labels.value_at((0,) * 4) == F(1, 4)
    # Labels ignore the dangling zero run of the flagged word.
    assert labels.label((1, 0, 0)) == labels.value_at((0,))


def test_solid_analytic_designated_values():
    built = solid_analytic(AFFINE, DYADICS)
    assert built.designated_value(Branch((), (1,))) == AFFINE.value(Branch((0,), (0,)))
    assert built.designated_value(Branch((1,), (0,))) == built.oracle.labels.value_at((0,))
    verdict = built.oracle.classify(StretchedBranch(Branch((), (1,))), eps=F(1, 32))
    assert verdict.kind == "converges"
    target = built.designated_value(Branch((), (1,)))
    assert verdict.interval.lo >= target - F(1, 32)
    assert verdict.interval.hi <= target + F(1, 32)


def test_solid_analytic_sparse_enumeration_fails_naming_node():
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        solid_analytic(AFFINE, [F(1, 2)])


def test_solid_injective_greedy_assignment():
    built = solid_injective(INJ, [F(1, 3), F(1, 2), F(2, 3)])
    assert built.audit()
    assigned = {value for _, value in built.assignments}
    assert {F(1, 3), F(1, 2), F(2, 3)} <= assigned
    assert built.leftovers == ()
    # The body reads its table near the root and canonical values deeper.
    verdict = built.oracle.classify(Branch((0,), (1,)), eps=F(1, 32))
    assert verdict.kind == "converges"
    assert abs(verdict.interval.midpoint - F(3, 4)) + verdict.interval.width / 2 <= F(1, 32)
    body = built.oracle.parts[0][1]
    assignments = dict(built.assignments)
    deep = (0,) * 9
    assert deep not in assignments
    canonical = least_dyadic_parts(*INJ.presented_numerators(deep))
    assert body.labels.value_at(deep) == dyadic_value(canonical)
    assert body.labels.value_at((0, 0, 0)) == assignments[(0, 0, 0)]


def test_solid_injective_overlapping_intervals_stay_distinct():
    built = solid_injective(INJ, [F(1, 2), F(33, 64)])
    assigned = {value for _, value in built.assignments}
    assert {F(1, 2), F(33, 64)} <= assigned
    assert built.audit()


def test_solid_injective_leftover_realized_by_graft():
    # 5/6 sits above every presented interval except the root's, where
    # 1/2 is picked first, so it must come back through the graft.
    built = solid_injective(INJ, [F(1, 2), F(5, 6)])
    assert built.leftovers == (F(5, 6),)
    spare = solid_countable_range([F(5, 6)])
    point, value = spare.designated_points()[0]
    verdict = built.oracle.classify(Branch((1,) + point.head, point.cycle))
    assert verdict.kind == "converges"
    assert verdict.interval.contains(value)
    assert verdict.interval.width <= F(1, 256)


# ----- uniformity pipeline -----------------------------------------------


def full_triple_tree():
    return ExplicitTree([()], {(): "full"}, arity=8)


def diagonal_triple_tree(depth):
    nodes = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [w + (letter,) for w in frontier for letter in (0, 7)]
        nodes.extend(frontier)
    return ExplicitTree(nodes, {w: "zeros" for w in frontier}, arity=8)


def test_interleave_closure_of_full_pairs():
    body = PairInterleaveTree(ExplicitTree([()], {(): "full"}, arity=4))
    for word in words_up_to(6):
        assert body.member(word)


def test_pair_interleavings_match_the_materialized_closure():
    # section's pair trees are pruned to their depth and closed with
    # zero-tails, as materialize leaves any membership test over four
    # letters; the lazy interleavings must equal the closure past it,
    # and words sharing a key must have the same children.
    rng = random.Random(16)
    depth = 4
    pair_trees = [section(diagonal_triple_tree(depth), z, depth)
                  for z in (Branch((), (0,)), Branch((), (1,)), Branch((1, 0), (0, 1)))]
    pair_trees += [materialize(lambda word: rng.random() < 0.7, 4, depth) for _ in range(12)]
    for pairs in pair_trees:
        lazy, closure = PairInterleaveTree(pairs), interleave_closure(pairs, depth)
        children = {}
        for word in words_up_to(2 * depth + 2):
            assert lazy.member(word) == closure.member(word), word
            below = tuple(lazy.member(word + (letter,)) for letter in (0, 1))
            assert children.setdefault(lazy.region_key(word), below) == below, word


def test_uniformity_full_product_is_unpruned():
    pruned = uniformity_pipeline(full_triple_tree(), Branch((), (0,)), HALF, 8)
    free = third_reduction(HALF, ExplicitTree.full_binary())
    samples = list(words_up_to(3)) + [(1,) * 10, (0,) * 10, (1, 0, 1, 1, 0, 0, 1)]
    for word in samples:
        lookahead = 12 - len(word)
        assert (pruned.localize(word).measure_bounds(lookahead)
                == free.localize(word).measure_bounds(lookahead))


def test_uniformity_diagonal_prunes_to_spine():
    pruned = uniformity_pipeline(diagonal_triple_tree(5), Branch((), (0,)), HALF, 5)
    assert pruned.tree.member((0, 0, 0, 0))
    assert not pruned.tree.member((1,))
    assert not pruned.tree.member((0, 1))
    assert pruned.localize((1,)).measure_bounds(7) == RatInterval.point(F(0))


def test_uniformity_agreement_on_shared_prefix():
    shared = (1, 0, 1, 0, 1)
    left = uniformity_pipeline(diagonal_triple_tree(5), Branch(shared, (0,)), HALF, 5)
    right = uniformity_pipeline(diagonal_triple_tree(5), Branch(shared, (1,)), HALF, 5)
    for word in [(), (0,), (0, 0), (1,), (0,) * 8]:
        lookahead = 15 - len(word)
        assert (left.localize(word).measure_bounds(lookahead)
                == right.localize(word).measure_bounds(lookahead))


def test_uniformity_rejects_flat_alphabet():
    with pytest.raises(ValueError, match="arity 8"):
        uniformity_pipeline(ExplicitTree.full_binary(), Branch((), (0,)), HALF, 4)


# ----- reduction contracts -----------------------------------------------


def _second_on_full_tree():
    return second_reduction(ExplicitTree.full_binary())


def _first_third_on_full_tree():
    return first_reduction(ConstantPresentation(F(1, 3)), ExplicitTree.full_binary())


@pytest.mark.parametrize("build, head, cycle, value", [
    # Second reduction: infinitely many 1s in b never converge; finitely
    # many converge to 1 when their count is even and to 0 when odd.
    (_second_on_full_tree, (), (1,), None),
    (_second_on_full_tree, (), (1, 0), None),
    (_second_on_full_tree, (1, 1), (0,), F(1)),
    (_second_on_full_tree, (1, 0, 1), (0,), F(1)),
    (_second_on_full_tree, (1,), (0,), F(0)),
    # First reduction, constant 1/3: a 0-tailed b never converges, and
    # infinitely many 1s converge to the constant.
    (_first_third_on_full_tree, (1, 1), (0,), None),
    (_first_third_on_full_tree, (1, 0, 1), (0,), None),
    (_first_third_on_full_tree, (), (1,), F(1, 3)),
    (_first_third_on_full_tree, (), (1, 0), F(1, 3)),
])
def test_reductions_keep_their_contracts_along_stretched_bases(build, head, cycle, value):
    # value None: the verdict is blurry; otherwise it converges to value.
    verdict = build().classify(StretchedBranch(Branch(head, cycle)), max_depth=200)
    if value is None:
        assert verdict.kind == "blurry", verdict
    else:
        assert verdict.kind == "converges" and verdict.interval.contains(value), verdict


def test_countable_range_converges_to_each_value_at_its_designated_point():
    solid = solid_countable_range([F(1, 3), F(3, 4), F(2, 5)])
    for point, value in solid.designated_points():
        verdict = solid.oracle.classify(point, max_depth=200)
        assert verdict.kind == "converges" and verdict.interval.contains(value), (point, verdict)
