"""Offspring sets: trees thickened by measure-controlled copies.

Membership reads a stream in blocks of growing size: block k carries
k + 1 letters. A block written with a single letter walks from the
current tree node to the matching child; the first block mixing both
letters flags the stream, and from the next position membership is
decided inside a copy whose measure m is the flagged node's label.
Streams walking off the tree are out, as inside an empty copy.

A dyadic label m is copied as the segment [0, m) of points read as
binary expansions, the lexicographically first clopen set of that
measure. It is carried as the number m, which each letter moves by
the doubling map m -> clamp(2m - letter, 0, 1). Label maps hand a
dyadic label over as integers (numerator, exponent), which become the
copy's state as they are; only other labels arrive as Fractions.

The evaluator returns certified interval bounds: regions resolved
within the horizon (settled copies, off the tree) contribute exact mass,
every unresolved region contributes its full [0, 1] of slack. With
dyadic labels the bounds agree, at tolerance zero, with what exhaustive
cell enumeration to the horizon depth gives. Non-dyadic labels hang
measured stand-in sets instead of segments; those copy regions answer
exactly at every depth, tighter than any enumeration.

The evaluator walks forward a block at a time. Nothing settles inside
a block, so it jumps each open state straight to its block's end: a
fresh block's 2^n continuations enter the node's two children once
each and flag with the other 2^n - 2, and a block with r letters left
enters at most one child and flags the rest. Its frontier holds the
open states at one block end, each key once with the number of paths
that reach it; one level of keys is enough, since equal keys promise
equal futures and a key other than a leaf's fixes its stream position.
A leaf settles where it is reached, so with h letters of lookahead the
bounds are numerators over 2^h: paths times leaf numerators, integers
while every region met is dyadic, exact Fractions once a stand-in's
value enters, and 2^g units of slack per path still open in a block
that crosses the horizon g letters below it. A trace evaluates each
depth afresh; the jumps keep that to a few blocks per bound. The root
oracle owns the node states and a jump table, ``jumps``: the ends of
each block-start key jumped so far. Equal keys promise equal futures, so
a bound reads a block start's ends from the table and jumps only keys
it has not met, and the states a trace meets again at every depth are
jumped once. Only block starts go in; a view's own mid-block key, new
at each line of a trace, does not, so the table grows with the nodes
evaluated and not with the steps. Evaluations read each tree node's
region, label key and label at most once and fill the root's states
with what they give; label maps stay pure rules of the node. A node is
entered from its parent: the tree steps the parent's region, which the
parent's block key holds, by one letter, so no node word is read from
the root. A walk reads the entered states and adds none: a node it
enters that no evaluation met is stepped afresh, and its word is not
kept. A localized oracle is a
light view holding the root and its own block or unsettled copy state,
so a child step builds one small object and copies nothing. A step
that settles (off the tree, or into an empty or full copy) gives the
shared ``EMPTY_SEGMENT`` or ``FULL_SEGMENT`` instead, its own child,
and a step that flags into a stand-in gives the shared stand-in
oracle, so a walk past that depth builds no view.

Along a stretched tree branch the localized measure at the block
boundary of depth k lies within 2^-k of the node's label: the mixed
completions of the next block carry the label's copies and everything
else has mass at most 2^-k. Tail certificates combine this with a
certified hull of the labels along the branch. A stretched image never
flags, since each of its blocks repeats one letter, so its certificate
is the hull, or empty from where ``Tree.death_depth`` says it leaves the
tree. Any other point is walked up to a guard, and only a walk that
flags or leaves the tree certifies it.
"""

from __future__ import annotations

from fractions import Fraction

from .branches import Branch, as_stretched
from .dyadics import EMPTY_MASS, HALF, UNIT, ONE, ZERO, RatInterval, is_dyadic
from .oracles import (EMPTY_SEGMENT, FULL_SEGMENT, BudgetExhausted, MeasureOracle, Point,
                      SegmentOracle, TailCertificate, entered_certificate, segment_step)
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

# A block state's ``seen`` once both letters are read.
MIXED = 2


def _letters_left(key: tuple) -> int:
    """The letters left in the block of a block state."""
    return key[1][0] + 1 - key[3]


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
    """A finite table of labels in [0, 1]; everything beyond it gets the
    default. A document's labels lie in (0;1), which ``jsonio`` checks."""

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


class OffspringOracle(MeasureOracle):
    """Certified localized measures of the offspring of a labeled tree.

    The closed and open offspring differ by a null set, so one oracle
    serves both. The root oracle owns the tree, the labels, the states
    entering and flagging the nodes met so far, the jump table and one
    exact stand-in oracle per non-dyadic label value; ``child`` builds a
    view holding only that ``root`` and the next state.
    """

    def __init__(self, tree: Tree, labels: LabelMap):
        self.root = self
        self.tree = tree
        self.labels = labels
        self.stand_ins: dict[Fraction, MeasureOracle] = {}
        self.entered: dict[Word, State] = {}
        self.flagged: dict[Word, State] = {}
        self.jumps: dict[tuple, list[tuple[State, int]]] = {}
        self.state = self.entered[()] = self._entering((), tree.root_region)

    def _entering(self, t: Word, region: tuple) -> State:
        """The state entering node t, whose tree region is ``region``."""
        if region == DEAD:
            return (("copy", 0, 0), t)
        return (("block", (len(t), region, self.labels.node_key(t)), None, 0), t)

    def _enter(self, t: Word, region: tuple, letter: int) -> State:
        """The state entering t's child by ``letter``, from t's region."""
        child = t + (letter,)
        state = self.entered.get(child)
        if state is None:
            state = self.entered[child] = self._entering(child, self.tree.step(region, letter))
        return state

    def _flag(self, t: Word) -> State:
        state = self.flagged.get(t)
        if state is None:
            parts = self.labels.label_parts(t)
            if isinstance(parts, tuple):
                state = (("copy", *parts), t)
            else:
                # Nodes with equal values share one exact stand-in oracle.
                if parts not in self.stand_ins:
                    from .dualistic import dualistic_of_measure
                    self.stand_ins[parts] = dualistic_of_measure(parts).oracle
                state = (("stand-in", parts), self.stand_ins[parts])
            self.flagged[t] = state
        return state

    # ----- the block state machine -------------------------------------
    #
    # A state is a pair (key, t). The key holds everything the state's
    # future depends on, so it keys the frontier; t is the tree node whose
    # block is being read, kept only to ask the tree and the labels about
    # its children. A node's keys share ctx = (len(t), region, label key);
    # the root keeps the states entering and flagging t per node.
    #
    # ("block", ctx, seen, m)    m letters into t's block of len(t) + 1;
    #                            seen is None before the first letter,
    #                            that letter while all are equal, MIXED
    #                            once both letters are read
    # ("copy", a, k)             flagged with a dyadic label: the segment
    #                            [0, a/2^k) of its copy seen from here,
    #                            a/2^k reduced; (0, 0) empty, also off
    #                            the tree, (1, 0) full
    # ("stand-in", value)        flagged with any other label; t is the
    #                            shared stand-in set, never stepped:
    #                            _leaf settles it, child hands over to it

    def _step(self, state: State, letter: int) -> State:
        key, t = state
        if key[0] == "copy":
            return (("copy",) + segment_step(key[1], key[2], letter), t)
        _, ctx, seen, m = key
        seen = letter if seen is None or seen == letter else MIXED
        if m == len(t):  # the block's last letter
            if seen == MIXED:
                return self.root._flag(t)
            # A walk reads the entered states but keeps none: only the
            # evaluator's jumps fill them, so a walk keeps no word it passes.
            child = t + (seen,)
            root = self.root
            return root.entered.get(child) or root._entering(child, root.tree.step(ctx[1], seen))
        return (("block", ctx, seen, m + 1), t)

    def _leaf(self, state: State, h: int) -> Bounds | None:
        """Bounds of a state that needs no lookahead, or None when its
        children must be evaluated."""
        key = state[0]
        kind = key[0]
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
        """The states that a block state reaches at the end of its block,
        each with the number of continuations reaching it.

        A block written with one letter enters that child and every other
        block flags, so these are all the block's outcomes. The ends of a
        block start go into the root's ``jumps`` under the state's key."""
        key, t = state
        root = self.root
        left = _letters_left(key)
        if key[2] == MIXED:
            return [(root._flag(t), 1 << left)]
        region = key[1][1]
        if key[2] is not None:
            return [(root._enter(t, region, key[2]), 1), (root._flag(t), (1 << left) - 1)]
        ends = [(root._enter(t, region, 0), 1), (root._enter(t, region, 1), 1)]
        if t:
            # The root block has a single letter; it never flags.
            ends.append((root._flag(t), (1 << left) - 2))
        root.jumps[key] = ends
        return ends

    def child(self, letter: int) -> MeasureOracle:
        state = self._step(self.state, letter)
        key = state[0]
        kind = key[0]
        if kind == "stand-in":
            return state[1]
        if kind == "copy" and not key[2]:
            return FULL_SEGMENT if key[1] else EMPTY_SEGMENT
        inner = object.__new__(OffspringOracle)
        inner.root = self.root
        inner.state = state
        return inner

    def measure_bounds(self, budget: int = 0) -> RatInterval:
        h = max(budget, 0)
        bounds = self._leaf(self.state, h)
        if bounds is None:
            jumps, jump = self.root.jumps, self._jump
            lo = slack = 0
            front: Frontier = {self.state[0]: [self.state, 1]}
            depth = opened = 0
            while front:
                left = _letters_left(next(iter(front)))
                opened += len(front) * min(left, h - depth)
                if opened > MAX_STATES:
                    raise BudgetExhausted(f"budget exhausted: over {MAX_STATES} evaluator "
                                          "states opened for one bound")
                if depth + left > h:
                    # The block crosses the horizon, and nothing settles
                    # inside a block: every path below stays open.
                    slack += sum(paths for _, paths in front.values()) << (h - depth)
                    break
                depth += left
                g = h - depth
                below: Frontier = {}
                for key, (state, paths) in front.items():
                    # Equal keys promise equal futures: a block start's ends
                    # are read once per key from the root's table.
                    for end, count in jumps.get(key) or jump(state):
                        count *= paths
                        end_key = end[0]
                        kind = end_key[0]
                        # Settle ends as _leaf does, g letters above the horizon.
                        if kind == "copy":
                            _, a, k = end_key
                            if k <= g:
                                lo += count * (a << (g - k))
                            else:
                                lo += count * (a >> (k - g))
                                slack += count
                        elif kind == "stand-in":
                            lo += count * end[1].measure_bounds().lo * (1 << g)
                        elif not g:
                            # At the horizon all of [0, 1] stays open.
                            slack += count
                        else:
                            entry = below.get(end_key)
                            if entry is None:
                                below[end_key] = [end, count]
                            else:
                                entry[1] += count
                front = below
            bounds = (lo, lo + slack)
        return RatInterval(Fraction(bounds[0], 1 << h), Fraction(bounds[1], 1 << h))

    # ----- tail certificates --------------------------------------------

    def tail_certificate(self, point: Point, effort: int) -> TailCertificate | None:
        if self is not self.root:
            # The certificates below read the point from the root.
            return None
        start_order = max(2, effort // 4)
        base = as_stretched(point)
        if base is None:
            return self._walking_certificate(point, triangular(start_order), effort)
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
        """Follow the point letter by letter; walks that flag or leave the
        tree settle into exact sub-certificates."""
        state = self.state
        for pos in range(guard):
            state = self._step(state, point.at(pos))
            key = state[0]
            if key[0] != "block":
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
