"""Offspring sets: trees thickened by measure-controlled copies.

Membership reads a stream in blocks of growing size: block k carries
k + 1 letters. A block written with a single letter walks from the
current tree node to the matching child; the first block mixing both
letters flags the stream, and from the next position membership is
decided inside a copy whose measure m is the flagged node's label.
Streams walking into nodes outside the tree are out.

A dyadic label m is copied as the segment [0, m) of points read as
binary expansions, the lexicographically first clopen set of that
measure. It is carried as the number m, which each letter moves by
the doubling map m -> clamp(2m - letter, 0, 1). Label maps hand a
dyadic label over as integers (numerator, exponent), which become the
copy's state as they are; only other labels arrive as Fractions.

The evaluator returns certified interval bounds: regions resolved
within the horizon (dead nodes, settled copies) contribute exact mass,
every unresolved region contributes its full [0, 1] of slack. With
dyadic labels the bounds agree, at tolerance zero, with what exhaustive
cell enumeration to the horizon depth gives. Non-dyadic labels hang
measured stand-in sets instead of segments; those copy regions answer
exactly at every depth, tighter than any enumeration.

The evaluator walks forward a block at a time. Nothing settles inside
a block, so it jumps each open state straight to its block's end: a
node's 2^n continuations enter its two children once each and flag
with the other 2^n - 2, and a block with r letters left enters at most
one child and flags the rest. Its frontier holds the open states at
one block end, each key once with the number of paths that reach it;
one level of keys is enough, since equal keys promise equal futures
and a key other than a leaf's fixes its stream position. A leaf
settles where it is reached, so with h letters of lookahead the bounds
are numerators over 2^h: paths times leaf numerators, integers while
every region met is dyadic, exact Fractions once a stand-in's value
enters, and 2^g units of slack per path still open in a block that
crosses the horizon g letters below it. A trace evaluates each depth
afresh; the jumps keep that to a few blocks per bound. The oracle
reads each tree node's region, label key and label at most once and
keeps the states they give; label maps stay pure rules of the node.
Those node states are shared: a localized oracle is a light view
holding the shared node states and its own current state, so a child
step builds one small object and copies nothing.

Along a stretched tree branch the localized measure at the block
boundary of depth k lies within 2^-k of the node's label: the mixed
completions of the next block carry the label's copies and everything
else has mass at most 2^-k. Tail certificates combine this with a
certified hull of the labels along the branch.
"""

from __future__ import annotations

from fractions import Fraction

from .branches import Branch, StretchedBranch, as_stretched
from .dualistic import dualistic_of_measure
from .dyadics import EMPTY_MASS, HALF, UNIT, ONE, ZERO, RatInterval, is_dyadic
from .oracles import (BudgetExhausted, MeasureOracle, Point, SegmentOracle, TailCertificate,
                      entered_certificate, segment_step)
from .trees import DEAD, ExplicitTree, IntersectionTree, Tree
from .words import Word, triangular

# (key, t): see the block state machine in OffspringOracle.
State = tuple[tuple, Word | MeasureOracle]
# (lo, hi): numerators over 2^h of the bounds at h letters of lookahead.
Bounds = tuple[int | Fraction, int | Fraction]
# State key -> [state, paths]: the open states at one block end, all at
# the same depth, and the number of paths reaching each.
Frontier = dict[tuple, list]

# Letter-level work one bound may do before it gives up: each open state
# counts once for every letter of its block up to the horizon, whether
# the block is jumped or crosses the horizon.
MAX_STATES = 1 << 18


def _letters_left(key: tuple) -> int:
    """The letters left in the block of a node, pure or mixed state."""
    size = key[1][0] + 1
    return size if key[0] == "node" else size - key[-1]


def _check_opened(opened: int) -> None:
    if opened > MAX_STATES:
        raise BudgetExhausted(f"budget exhausted: over {MAX_STATES} evaluator states opened "
                              "for one bound")


def label_parts_of(value: Fraction) -> tuple[int, int] | Fraction:
    """A label value in the form ``LabelMap.label_parts`` gives it: a
    dyadic as (numerator, exponent) of its reduced form, anything else
    as the Fraction itself."""
    return (value.numerator, value.denominator.bit_length() - 1) if is_dyadic(value) else value


class LabelMap:
    """Rational labels on tree nodes, with one rule for certified tail hulls.

    Labels and node keys are pure rules of the node, with no cache:
    ``OffspringOracle`` asks about each node once and keeps the answer.
    Subclasses give a label through ``label_parts``; ``label`` derives
    its value from that one rule.

    The hull of the labels along a branch from prefix ``start`` on is
    the labels at prefixes ``start`` through ``hull_horizon(branch,
    start)`` together with ``tail_hull(branch, horizon)``, a few values
    bounding every deeper label. Subclasses give the labels and the
    tail, and may move the horizon or share node keys.
    """

    def label_parts(self, node: Word) -> tuple[int, int] | Fraction:
        """The copy measure at a node, in [0, 1]. A dyadic value a/2^k
        comes as (a, k), reduced: a odd, or (0, 0) or (1, 0). It gets
        the segment [0, a/2^k) as its copy. Any other value comes as a
        Fraction and gets a measured stand-in set of exactly that mass."""
        raise NotImplementedError

    def label(self, node: Word) -> Fraction:
        """The copy measure at a node, as a value."""
        parts = self.label_parts(node)
        if isinstance(parts, Fraction):
            return parts
        return Fraction(parts[0], 1 << parts[1])

    def node_key(self, node: Word) -> object:
        """Nodes with equal keys (and equal depth) carry identical label
        assignments on their whole subtrees."""
        return node

    def hull_horizon(self, branch: Branch, start: int) -> int:
        return max(start, len(branch.head) + 2 * len(branch.cycle)) + 2

    def tail_hull(self, branch: Branch, horizon: int) -> tuple[Fraction, ...]:
        """Values whose hull contains every label past the horizon."""
        raise NotImplementedError

    def branch_label_hull(self, branch: Branch, start: int) -> RatInterval:
        """A closed interval containing label(branch prefix k) for all
        k >= start."""
        horizon = self.hull_horizon(branch, start)
        values = [self.label(branch.prefix(k)) for k in range(start, horizon + 1)]
        values += self.tail_hull(branch, horizon)
        return RatInterval(min(values), max(values))


class ExplicitLabels(LabelMap):
    """A finite table of labels; everything beyond it gets the default."""

    def __init__(self, mapping: dict[Word, Fraction], default: Fraction = HALF):
        for node, value in mapping.items():
            if not ZERO <= value <= ONE:
                raise ValueError(f"label at {node} must lie in [0, 1]: {value}")
        if not ZERO <= default <= ONE:
            raise ValueError(f"default label must lie in [0, 1]: {default}")
        self.mapping = {tuple(node): value for node, value in mapping.items()}
        self.default = default
        self.depth = max((len(node) for node in self.mapping), default=0)
        self._touched = {node[:j] for node in self.mapping for j in range(len(node) + 1)}

    def label_parts(self, node: Word) -> tuple[int, int] | Fraction:
        return label_parts_of(self.mapping.get(tuple(node), self.default))

    def node_key(self, node: Word) -> object:
        node = tuple(node)
        if node in self._touched:
            return ("table", node)
        return ("default",)

    def hull_horizon(self, branch: Branch, start: int) -> int:
        return self.depth

    def tail_hull(self, branch: Branch, horizon: int) -> tuple[Fraction, ...]:
        return (self.default,)


class _NodeStates:
    """The states entering and flagging each tree node, read once.

    One offspring oracle and every view localized from it share this:
    the tree, the labels, the states of the nodes asked about so far and
    one exact stand-in oracle per non-dyadic label value.
    """

    def __init__(self, tree: Tree, labels: LabelMap):
        self.tree = tree
        self.labels = labels
        self.stand_ins: dict[Fraction, MeasureOracle] = {}
        self.entered: dict[Word, State] = {}
        self.flagged: dict[Word, State] = {}
        self.root = self.enter(())

    def enter(self, t: Word) -> State:
        state = self.entered.get(t)
        if state is None:
            region = self.tree.region_key(t)
            if region == DEAD:
                state = (DEAD, ())
            else:
                state = (("node", (len(t), region, self.labels.node_key(t))), t)
            self.entered[t] = state
        return state

    def flag(self, t: Word) -> State:
        state = self.flagged.get(t)
        if state is None:
            parts = self.labels.label_parts(t)
            if isinstance(parts, tuple):
                state = (("copy", *parts), t)
            else:
                # Nodes with equal values share one exact stand-in oracle.
                if parts not in self.stand_ins:
                    self.stand_ins[parts] = dualistic_of_measure(parts).oracle
                state = (("stand-in", parts), self.stand_ins[parts])
            self.flagged[t] = state
        return state


class OffspringOracle(MeasureOracle):
    """Certified localized measures of the offspring of a labeled tree.

    The closed and open offspring differ by a null set, so one oracle
    serves both. An oracle is its shared node states plus one current
    state; ``child`` builds a view with the next state.
    """

    def __init__(self, tree: Tree, labels: LabelMap):
        self._nodes = _NodeStates(tree, labels)
        self.state = self._nodes.root

    @property
    def tree(self) -> Tree:
        return self._nodes.tree

    @property
    def labels(self) -> LabelMap:
        return self._nodes.labels

    # ----- the block state machine -------------------------------------
    #
    # A state is a pair (key, t). The key holds everything the state's
    # future depends on, so it keys the frontier; t is the tree node whose
    # block is being read, kept only to ask the tree and the labels about
    # its children. A node's keys share ctx = (len(t), region, label key);
    # the states entering and flagging t are kept per node in _NodeStates.
    #
    # ("dead",)                  off the tree
    # ("node", ctx)              at the block boundary of tree node t
    # ("pure", ctx, letter, m)   m letters into t's block, all equal
    # ("mixed", ctx, m)          m letters into t's block, both letters seen
    # ("copy", a, k)             flagged with a dyadic label: the segment
    #                            [0, a/2^k) of its copy seen from here,
    #                            a/2^k reduced; (0, 0) empty, (1, 0) full
    # ("stand-in", value)        flagged with any other label; t is the
    #                            stand-in set as seen from here

    def _step(self, state: State, letter: int) -> State:
        key, t = state
        kind = key[0]
        if kind == "dead":
            return state
        if kind == "copy":
            return (("copy",) + segment_step(key[1], key[2], letter), t)
        if kind == "stand-in":
            return (key, t.child(letter))
        if kind == "node":
            if len(t) == 0:
                # The root block has a single letter; it is always pure.
                return self._nodes.enter(t + (letter,))
            return (("pure", key[1], letter, 1), t)
        size = len(t) + 1
        if kind == "pure":
            _, ctx, first, m = key
            if letter == first:
                if m + 1 == size:
                    return self._nodes.enter(t + (first,))
                return (("pure", ctx, first, m + 1), t)
        else:
            _, ctx, m = key
        if m + 1 == size:
            return self._nodes.flag(t)
        return (("mixed", ctx, m + 1), t)

    def _leaf(self, state: State, h: int) -> Bounds | None:
        """Bounds of a state that needs no lookahead, or None when its
        children must be evaluated."""
        key = state[0]
        kind = key[0]
        if kind == "dead":
            return (0, 0)
        if kind == "stand-in":
            # The stand-in set answers exactly at every depth.
            value = state[1].measure_bounds().lo * (1 << h)
            return (value, value)
        if kind == "copy":
            # Exact after k letters; before that one partial cell per level.
            _, a, k = key
            if k <= h:
                return (a << (h - k), a << (h - k))
            lo = a >> (k - h)
            return (lo, lo + 1)
        if h <= 0:
            # The horizon (h is 0 here): all of [0, 1] stays open.
            return (0, 1)
        return None

    def _jump(self, state: State) -> list[tuple[State, int]]:
        """The states that a node, pure or mixed state reaches at the end
        of its block, each with the number of continuations reaching it.

        A block written with one letter enters that child and every other
        block flags, so these are all the block's outcomes."""
        key, t = state
        nodes = self._nodes
        left = _letters_left(key)
        if key[0] == "mixed":
            return [(nodes.flag(t), 1 << left)]
        if key[0] == "pure":
            return [(nodes.enter(t + (key[2],)), 1), (nodes.flag(t), (1 << left) - 1)]
        ends = [(nodes.enter(t + (0,)), 1), (nodes.enter(t + (1,)), 1)]
        if t:
            # The root block has a single letter; it never flags.
            ends.append((nodes.flag(t), (1 << left) - 2))
        return ends

    def child(self, letter: int) -> MeasureOracle:
        inner = object.__new__(OffspringOracle)
        inner._nodes = self._nodes
        inner.state = self._step(self.state, letter)
        return inner

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        h = max(budget, 0)
        bounds = self._leaf(self.state, h)
        if bounds is None:
            leaf, jump = self._leaf, self._jump
            lo = slack = 0
            front: Frontier = {self.state[0]: [self.state, 1]}
            depth = opened = 0
            while front:
                left = _letters_left(next(iter(front)))
                opened += len(front) * min(left, h - depth)
                _check_opened(opened)
                if depth + left > h:
                    # The block crosses the horizon, and nothing settles
                    # inside a block: every path below stays open.
                    slack += sum(paths for _, paths in front.values()) << (h - depth)
                    break
                depth += left
                below: Frontier = {}
                for state, paths in front.values():
                    for end, count in jump(state):
                        count *= paths
                        out = leaf(end, h - depth)
                        if out is not None:
                            lo += count * out[0]
                            slack += count * (out[1] - out[0])
                            continue
                        entry = below.get(end[0])
                        if entry is None:
                            below[end[0]] = [end, count]
                        else:
                            entry[1] += count
                front = below
            bounds = (lo, lo + slack)
        return RatInterval(Fraction(bounds[0], 1 << h), Fraction(bounds[1], 1 << h))

    # ----- tail certificates --------------------------------------------

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        if self.state != self._nodes.root:
            # The certificates below read the point from the root.
            return None
        start_order = max(2, effort // 4)
        if not isinstance(point, StretchedBranch):
            structural = self._walking_certificate(point, triangular(start_order), effort)
            if structural is not None:
                return structural
        base = as_stretched(point)
        if base is None:
            return None
        death = self.tree.death_depth(base)
        if death is None:
            hull = self.labels.branch_label_hull(base, start_order)
            pad = Fraction(1, 1 << start_order)
            interval = RatInterval(max(ZERO, hull.lo - pad), min(ONE, hull.hi + pad))
            return TailCertificate(interval, triangular(start_order))
        # A deeper death stays uncertified; classify reads the trace instead.
        if death > 4 * (start_order + len(base.head) + len(base.cycle)) + 64:
            return None
        return TailCertificate(EMPTY_MASS, triangular(death))

    def _walking_certificate(self, point: Branch, guard: int, effort: int) -> TailCertificate | None:
        """Follow the point letter by letter; dead walks and flagged walks
        settle into exact sub-certificates."""
        state = self.state
        for pos in range(guard):
            state = self._step(state, point.at(pos))
            key = state[0]
            if key[0] == "dead":
                return TailCertificate(EMPTY_MASS, pos + 1)
            if key[0] in ("copy", "stand-in"):
                inside = (SegmentOracle(Fraction(key[1], 1 << key[2])) if key[0] == "copy"
                          else state[1])
                return (entered_certificate(inside, point, pos + 1, effort)
                        or TailCertificate(UNIT, pos + 1))
        return None


def offspring_prune(offspring: OffspringOracle, subtree: ExplicitTree) -> OffspringOracle:
    """The offspring with flag mass behind nodes outside ``subtree`` removed.

    Removing the stretched cylinders of the dropped nodes leaves, up to
    a null set, exactly the offspring of the intersection tree: streams
    that flag before reaching a dropped node never enter its cylinder.
    """
    for node in subtree.nodes:
        if not offspring.tree.member(node):
            raise ValueError(f"not a subtree: {node} is outside the offspring tree")
    return OffspringOracle(IntersectionTree(offspring.tree, subtree), offspring.labels)


def offspring_build(tree: Tree, labels) -> OffspringOracle:
    """Build the offspring oracle of a labeled tree.

    ``labels`` is either a mapping from nodes to rationals, wrapped into
    an explicit table over the default 1/2, or a ready-made label map.
    Explicit labels must lie strictly between 0 and 1; a dyadic one m
    gets the segment [0, m) as its copy, the rest exact measured
    stand-ins.
    """
    if isinstance(labels, dict):
        labels = ExplicitLabels(labels)
    if isinstance(labels, ExplicitLabels):
        for node, value in labels.mapping.items():
            if not ZERO < value < ONE:
                raise ValueError(f"label at {node} must lie in (0;1): {value}")
        if not ZERO < labels.default < ONE:
            raise ValueError(f"default label must lie in (0;1): {labels.default}")
    return OffspringOracle(tree, labels)
