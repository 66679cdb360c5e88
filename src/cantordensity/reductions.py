"""Tree-to-set reductions: label maps that encode a function or a parity.

Each reduction turns a tree into an offspring set whose labels carry
the interesting behavior to its stretched branches. The second needs
no function: labels approach 1 or 0 with the parity of the ones count,
so branches with infinitely many 1s oscillate maximally. The first
walks a presented function's dyadic approximations, handing the
branches with a 0-tail an alternating pair below and above the
function value. The third interleaves an input tree with the full
binary tree and reads the function through the run codec, with an
alternating sibling adjustment keeping the label sequence spread out
at every node. The first's pair and the third's adjustment move by one
nudge rule, ``nudged_parts``.

On top of the same machinery sit two solid-set builders (labels read
from an enumerated value list, or assigned greedily without repeats)
and the uniformity pipeline, which sections a product tree along a
branch and prunes the largest third-reduction offspring down to the
lazy interleavings of the pair tree left.

Label maps are pure rules of the node and keep no caches; the offspring
oracle asks each node's label and key once and keeps the answer. The
three reductions' labels are dyadic by construction and are computed
as integer (numerator, exponent) pairs from the presented numerators
on; only ``LabelMap.label`` turns them into Fractions.

Every label map certifies hulls of its labels along a stretched
branch by the one rule of ``LabelMap.branch_label_hull``: the labels
at the prefixes up to a horizon, plus a tail hull bounding every
deeper label. The second reduction's tail is its frozen-parity limit,
or both ends of the unit interval. The function-reading maps anchor
theirs at a node near the horizon: its presented interval, widened by
a pad and clipped to [0, 1]. Deeper labels only ever use extensions of
the anchor node, and the adjustment offsets shrink with node length,
so the anchored bound is sound for the whole tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .approx import FunctionPresentation, canonical_parts, nudged_parts
from .branches import Branch
from .dualistic import solid_countable_range
from .dyadics import ONE, ZERO, dyadic_of_rank, least_dyadic_parts
from .offspring import LabelMap, OffspringOracle, label_parts_of
from .oracles import GraftedUnionOracle, MeasureOracle
from .trees import ExplicitTree, InterleaveTree, PairInterleaveTree, section
from .words import (
    Word,
    bits_to_runs,
    decode_head,
    deinterleave,
    ones_count,
    runs_to_bits,
    split_trailing_zeros,
)

# Nodes checked by the construction-time validators: all words over the
# first four letters up to length three.
EXPLORE_LETTERS = 4
EXPLORE_DEPTH = 3

GREEDY_CODEC_DEPTH = 6
GREEDY_RANK_CAP = 4096


def _explored_nodes() -> list[Word]:
    nodes: list[Word] = [()]
    for length in range(1, EXPLORE_DEPTH + 1):
        nodes.extend(product(range(EXPLORE_LETTERS), repeat=length))
    return nodes


def require_lipschitz(presentation: FunctionPresentation) -> dict[Word, tuple[int, int, int]]:
    """Check presented widths against the node scale on the explored
    window; returns the presented numerators read, by node."""
    intervals = {}
    for node in _explored_nodes():
        lo, hi, scale = intervals[node] = presentation.presented_numerators(node)
        if (hi - lo) << len(node) > scale:
            raise ValueError(
                f"presented interval at {node} is wider than its node scale: "
                f"({Fraction(lo, scale)}; {Fraction(hi, scale)})"
            )
    return intervals


def _adjusted_parts(interval: tuple[int, int, int], node: Word) -> tuple[int, int]:
    """The adjusted value at a non-empty node with presented numerators
    (lo, hi, scale), as (numerator, exponent): its least dyadic nudged by
    2^-(len(node)+1), up after an even last letter, down after an odd."""
    return nudged_parts(*least_dyadic_parts(*interval), len(node) + 1, node[-1] % 2 == 0)


class AnchoredHullLabels(LabelMap):
    """Labels read off a presented function, with anchored tail hulls.

    Past the horizon every label lies in the presented interval at an
    anchor node, widened by a pad and clipped to [0, 1]. Subclasses
    supply the anchor and pad, and may move the horizon.
    """

    presentation: FunctionPresentation

    def hull_anchor(self, branch: Branch, horizon: int) -> tuple[Word, Fraction]:
        """The anchor node and the pad its presented interval is widened by."""
        raise NotImplementedError

    def tail_hull(self, branch: Branch, horizon: int) -> tuple[Fraction, ...]:
        anchor, pad = self.hull_anchor(branch, horizon)
        lo, hi, scale = self.presentation.presented_numerators(anchor)
        return max(ZERO, Fraction(lo, scale) - pad), min(ONE, Fraction(hi, scale) + pad)


class OnesParityLabels(LabelMap):
    """Labels approaching 1 on even ones counts and 0 on odd ones.

    Along a branch with infinitely many 1s the parity keeps flipping
    and the labels accumulate at both ends of the unit interval; with
    a 0-tail the parity freezes and the labels converge to 1 or 0.
    """

    def label_parts(self, node: Word) -> tuple[int, int]:
        # 1 - 2^-(L+1) on an even ones count, 2^-(L+1) on an odd one.
        exponent = len(node) + 1
        return ((1 << exponent) - 1 if ones_count(node) % 2 == 0 else 1), exponent

    def node_key(self, node: Word) -> object:
        return ones_count(node) % 2

    def tail_hull(self, branch: Branch, horizon: int) -> tuple[Fraction, ...]:
        if ones_count(branch.cycle) == 0:
            # The parity is frozen past the horizon and the labels walk
            # monotonically to their limit.
            return (ONE if ones_count(branch.prefix(horizon)) % 2 == 0 else ZERO,)
        return ZERO, ONE


def second_reduction(tree) -> OffspringOracle:
    """Offspring whose stretched 1-heavy branches oscillate between 0 and 1."""
    return OffspringOracle(tree, OnesParityLabels())


class TailAlternationLabels(AnchoredHullLabels):
    """Approximation pairs of a presented function, picked by 0-tail parity.

    The label at a node is the lower member of the pair at the node's
    1-ending prefix when the trailing zero block has even length, the
    upper member when odd. Walking down a 0-tail therefore alternates
    strictly below and above the function's value at the prefix, while
    branches with infinitely many 1s see both members converge.
    """

    def __init__(self, presentation: FunctionPresentation):
        self.presentation = presentation

    def label_parts(self, node: Word) -> tuple[int, int]:
        # The canonical value at the head nudged by 2^-(len(head)+2):
        # down after an even zero run, up after an odd one.
        head, zeros = split_trailing_zeros(tuple(node))
        middle = canonical_parts(self.presentation, head)
        return nudged_parts(*middle, len(head) + 2, zeros % 2 == 1)

    def hull_anchor(self, branch: Branch, horizon: int) -> tuple[Word, Fraction]:
        # Labels past the horizon use extensions of this head, whose
        # presented intervals are nested inside this one; the offsets
        # only shrink, and folds stay inside the clamped ends.
        anchor, _ = split_trailing_zeros(branch.prefix(horizon))
        return anchor, Fraction(1, 1 << (len(anchor) + 2))


def first_reduction(presentation: FunctionPresentation, tree) -> OffspringOracle:
    """Offspring tying density on 1-heavy branches to a presented function.

    Stretched branches with infinitely many 1s get density within the
    presentation's shrinking intervals; branches with 0-tails oscillate
    across the approximation pair's gap at their 1-ending prefix.
    """
    return OffspringOracle(tree, TailAlternationLabels(presentation))


class InterleavedAdjustedLabels(AnchoredHullLabels):
    """Run-codec labels on an interleaved tree with sibling adjustments.

    Even-length words split into a tree half and a codec half; the
    codec half's completed runs name a node of the presented function,
    and the trailing-zero parity of the tree half picks the raised or
    lowered variant of its adjusted value. Odd-length words close the
    dangling run with a 1 first. The adjustment alternates up and down
    with the last letter so that the values at a node's children spread
    out instead of converging with the presented intervals.
    """

    def __init__(self, presentation: FunctionPresentation):
        self.presentation = presentation

    def adjusted(self, node: Word) -> tuple[int, int]:
        """The canonical value pushed away from its sibling ladder, as
        (numerator, exponent)."""
        node = tuple(node)
        if not node:
            return canonical_parts(self.presentation, node)
        return _adjusted_parts(self.presentation.presented_numerators(node), node)

    def label_parts(self, word: Word) -> tuple[int, int]:
        word = tuple(word)
        if len(word) % 2 == 0:
            # The adjusted value nudged by 2^-(len(node)+2): up after an
            # even zero run of the tree half, down after an odd one.
            tree_half, codec_half = deinterleave(word)
            node = decode_head(codec_half[: ones_count(tree_half)])
            _, zeros = split_trailing_zeros(tree_half)
            return nudged_parts(*self.adjusted(node), len(node) + 2, zeros % 2 == 0)
        tree_half, codec_half = deinterleave(word[:-1])
        node = bits_to_runs(codec_half[: ones_count(tree_half)] + (1,))
        return self.adjusted(node)

    def hull_horizon(self, branch: Branch, start: int) -> int:
        return max(start + 2, len(branch.head) + 4 * len(branch.cycle) + 4)

    def hull_anchor(self, branch: Branch, horizon: int) -> tuple[Word, Fraction]:
        # Past the horizon every label reads a node extending this one:
        # the codec half's completed runs only grow, and closing a run
        # with a 1 appends a letter. Adjustments at length m stay below
        # 3 * 2^-(m+2), so the widened closure bounds them all.
        tree_half, codec_half = deinterleave(branch.prefix(2 * (horizon // 2)))
        anchor = decode_head(codec_half[: ones_count(tree_half)])
        return anchor, Fraction(3, 1 << (len(anchor) + 2))


def label_spread_certificate(labels: InterleavedAdjustedLabels) -> None:
    """Check that the presentation shrinks at node scale and that
    adjusted sibling values spread out at explored nodes.

    The adjustment rule is fixed; whether it separates the children's
    values depends on the presentation (canonical values can cancel the
    alternation exactly). Presentations failing the spread are rejected
    here instead of silently producing convergent label walks. Each
    presented interval is read once: the explored nodes' by the width
    check, which comes first, and their children's one level deeper.
    """
    presentation = labels.presentation
    intervals = require_lipschitz(presentation)
    for node in _explored_nodes():
        children = []
        for k in range(EXPLORE_LETTERS):
            child = node + (k,)
            interval = intervals.get(child) or presentation.presented_numerators(child)
            children.append(_adjusted_parts(interval, child))
        scale = max(exponent for _, exponent in children)
        values = [numerator << (scale - exponent) for numerator, exponent in children]
        spread = max(values) - min(values)
        if spread << (len(node) + 2) < 1 << scale:
            raise ValueError(
                f"adjusted labels below {node} spread only {Fraction(spread, 1 << scale)}; "
                "the alternation cancels for this presentation"
            )


def third_reduction(presentation: FunctionPresentation, tree) -> OffspringOracle:
    """Offspring over the interleaving of a tree with the full binary tree.

    Stretched branches whose halves both carry infinitely many 1s get
    density at the presented function's value of the decoded codec
    branch; killing either half leaves the labels swinging across an
    adjustment gap. The presentation must shrink at node scale and
    pass the sibling spread check.
    """
    labels = InterleavedAdjustedLabels(presentation)
    label_spread_certificate(labels)
    return OffspringOracle(InterleaveTree(tree, ExplicitTree.full_binary()), labels)


def decoded_branch(branch: Branch) -> Branch | None:
    """The codec preimage of a branch, or None without infinitely many 1s.

    Rotating the cycle to a 1 boundary makes both halves of the run
    decomposition eventually periodic.
    """
    cycle = branch.cycle
    last_one = max((i for i, letter in enumerate(cycle) if letter == 1), default=None)
    if last_one is None:
        return None
    head = branch.head + cycle[: last_one + 1]
    rotated = cycle[last_one + 1 :] + cycle[: last_one + 1]
    return Branch(bits_to_runs(head), bits_to_runs(rotated))


class HeadValueLabels(AnchoredHullLabels):
    """Labels reading a value at the decoded head of each word.

    Subclasses choose the value at a node; every choice lies inside the
    node's presented interval, so deeper labels stay inside the
    presented interval at the anchor, unpadded.
    """

    def value_at(self, node: Word) -> Fraction:
        raise NotImplementedError

    def label_parts(self, word: Word) -> tuple[int, int] | Fraction:
        return label_parts_of(self.value_at(decode_head(tuple(word))))

    def hull_anchor(self, branch: Branch, horizon: int) -> tuple[Word, Fraction]:
        return decode_head(branch.prefix(horizon)), ZERO


class EnumeratedValueLabels(HeadValueLabels):
    """Labels reading the first enumerated value inside each presented interval."""

    def __init__(self, presentation: FunctionPresentation, values: tuple[Fraction, ...]):
        self.presentation = presentation
        self.values = tuple(values)

    def value_at(self, node: Word) -> Fraction:
        node = tuple(node)
        lo, hi, scale = self.presentation.presented_numerators(node)
        lo, hi = Fraction(lo, scale), Fraction(hi, scale)
        for candidate in self.values:
            if lo < candidate < hi and ZERO < candidate < ONE:
                return candidate
        raise ValueError(
            f"no enumerated value lands in the presented interval at {node}: ({lo}; {hi})"
        )


@dataclass(frozen=True)
class SolidAnalyticSet:
    """Offspring of the full tree labeled by enumerated values.

    Stretched branches with infinitely many 1s have density at the
    presented function's value of their decoded branch; 0-tailed
    stretched branches settle at the enumerated value of their head;
    everything off the stretched body lands in a copy with density 0
    or 1. The closed and open offspring agree up to a null set.
    """

    values: tuple[Fraction, ...]
    presentation: FunctionPresentation = field(compare=False)
    oracle: OffspringOracle = field(compare=False)

    def designated_value(self, branch: Branch) -> Fraction | None:
        decoded = decoded_branch(branch)
        if decoded is not None:
            return self.presentation.value(decoded)
        return self.oracle.labels.value_at(decode_head(branch.head))


def solid_analytic(presentation: FunctionPresentation, values: list[Fraction]) -> SolidAnalyticSet:
    """A solid set realizing a presented function on the codec branches.

    ``values`` enumerates the candidate densities; every explored
    presented interval must contain one of them, and the first hit is
    used. Construction fails naming the first node whose interval
    misses the enumeration.
    """
    require_lipschitz(presentation)
    labels = EnumeratedValueLabels(presentation, tuple(values))
    for node in _explored_nodes():
        labels.value_at(node)
    oracle = OffspringOracle(ExplicitTree.full_binary(), labels)
    return SolidAnalyticSet(tuple(values), presentation, oracle)


class GreedyInjectiveLabels(HeadValueLabels):
    """A fixed table of pairwise distinct labels, canonical beyond it."""

    def __init__(self, presentation: FunctionPresentation, table: dict[Word, Fraction]):
        self.presentation = presentation
        self.table = dict(table)

    def value_at(self, node: Word) -> Fraction:
        node = tuple(node)
        got = self.table.get(node)
        if got is not None:
            return got
        numerator, exponent = canonical_parts(self.presentation, node)
        return Fraction(numerator, 1 << exponent)


@dataclass(frozen=True)
class SolidInjectiveSet:
    """A graft of an injectively labeled offspring and a countable-range part."""

    assignments: tuple[tuple[Word, Fraction], ...]
    leftovers: tuple[Fraction, ...]
    oracle: MeasureOracle = field(compare=False)

    def audit(self) -> bool:
        """Pairwise distinct labels over the explored assignment table."""
        labels = [value for _, value in self.assignments]
        return len(set(labels)) == len(labels)


def solid_injective(
    presentation: FunctionPresentation,
    values: list[Fraction],
) -> SolidInjectiveSet:
    """A solid set with pairwise distinct densities on its designated points.

    Nodes whose codec image fits within ``GREEDY_CODEC_DEPTH`` get labels
    assigned greedily: the first unused entry of ``values`` inside the
    presented interval, falling back to unused dyadics by rank. The
    values never picked up are realized once each by a grafted
    countable-range part, so the requested list is covered either way.
    """
    require_lipschitz(presentation)
    heads = sorted(
        _all_nat_words(GREEDY_CODEC_DEPTH),
        key=lambda node: (len(runs_to_bits(node)), node),
    )
    used: set[Fraction] = set()
    table: dict[Word, Fraction] = {}
    for node in heads:
        lo, hi, scale = presentation.presented_numerators(node)
        lo, hi = Fraction(lo, scale), Fraction(hi, scale)
        pick: Fraction | None = None
        for candidate in values:
            if candidate not in used and lo < candidate < hi and ZERO < candidate < ONE:
                pick = candidate
                break
        if pick is None:
            for rank in range(GREEDY_RANK_CAP):
                candidate = dyadic_of_rank(rank)
                if candidate not in used and lo < candidate < hi:
                    pick = candidate
                    break
        if pick is None:
            raise ValueError(f"no fresh label available inside the presented interval at {node}")
        used.add(pick)
        table[node] = pick
    leftovers = tuple(v for v in values if v not in used)
    body = OffspringOracle(
        ExplicitTree.full_binary(), GreedyInjectiveLabels(presentation, table)
    )
    spare = solid_countable_range(list(leftovers))
    oracle = GraftedUnionOracle([((0,), body), ((1,), spare.oracle)])
    return SolidInjectiveSet(tuple(sorted(table.items())), leftovers, oracle)


def _all_nat_words(budget: int) -> list[Word]:
    """Nat words whose codec image has at most ``budget`` letters."""
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    while frontier:
        grown: list[Word] = []
        for word in frontier:
            letter = 0
            while len(runs_to_bits(word + (letter,))) <= budget:
                grown.append(word + (letter,))
                letter += 1
        out.extend(grown)
        frontier = grown
    return out


def uniformity_pipeline(
    product_tree: ExplicitTree,
    z: Branch,
    presentation: FunctionPresentation,
    depth: int,
) -> OffspringOracle:
    """Section a triple tree along a branch and prune the third reduction.

    ``product_tree`` carries letters packing three bits; sectioning
    along ``z`` leaves a pair tree, whose interleavings' downward
    closure prunes the full-tree offspring. The result depends on ``z``
    only through its first ``depth`` letters, so branches agreeing that
    far yield identical oracles.
    """
    if product_tree.arity != 8:
        raise ValueError("uniformity expects a triple-product alphabet of arity 8")
    largest = third_reduction(presentation, ExplicitTree.full_binary())
    # The largest tree is full, so pruning it leaves the closure's own tree.
    return OffspringOracle(PairInterleaveTree(section(product_tree, z, depth)), largest.labels)
