"""Tree presentations: explicit finitely-described trees and lazy joins.

A presentation answers membership questions about an infinite pruned
tree from a finite description: an explicit downward-closed node set
whose frontier leaves carry *policies* describing everything below.

Policies on binary (or any finite-alphabet) trees:

* ``zeros``         only the all-zeros continuation survives
* ``full``          the complete subtree is present
* ``periodic(q)``   exactly the continuation cycling through q survives

Trees over the natural-number alphabet (``arity`` None) may also use:

* ``stop``          the leaf is terminal, nothing below
* ``fan_stop``      every one-letter extension is present and terminal

With ``stop``/``fan_stop`` the tree is no longer pruned: a terminal
node is alive, and every word below it is off the tree.

A presentation is a region automaton: ``root_region`` is the region of
the empty word and ``step(region, letter)`` the region of a one-letter
extension, the walk primitive. ``region_key(word)`` is the fold of
``step`` from ``root_region`` over the word; ``ExplicitTree`` also reads
it directly, by one lookup per leaf depth, for random access.

``section`` is the one depth-bounded operator. Through ``materialize``
it grows the words up to a depth level by level by a membership test,
drops those dying before the depth and closes the frontier with
zero-tails. It is exact up to that depth and cannot certify
perfect-set containment, only membership.
"""

from __future__ import annotations

from typing import Callable, Literal, Union

from .branches import Branch
from .words import Word

Policy = Union[Literal["zeros", "full", "stop", "fan_stop"], tuple[Literal["periodic"], Word]]

DEAD = ("dead",)


def periodic(cycle: Word) -> Policy:
    if not cycle:
        raise ValueError("periodic policy needs a non-empty cycle")
    return ("periodic", tuple(cycle))


class Tree:
    """What the offspring evaluator asks of a tree presentation.

    ``step`` is the one primitive: from the region of a word, it gives the
    region of the word's extension by a letter, and ``root_region`` is the
    region of the empty word. A region is ``DEAD``, the key ``("dead",)``,
    exactly for words off the tree, ``step`` is never asked past it, and
    equal regions promise identically shaped subtrees below the words.
    Along an eventually periodic branch the regions take finitely many
    values. ``region_key``, membership and the depth where a branch dies
    all derive from them. ``arity`` is the alphabet size, or None for the
    natural numbers.
    """

    arity: int | None = 2
    root_region: tuple

    def step(self, region: tuple, letter: int) -> tuple:
        raise NotImplementedError

    def region_key(self, word: Word) -> tuple:
        """The region of a word: ``step`` folded over it from the root."""
        region, step = self.root_region, self.step
        for letter in word:
            if region == DEAD:
                break
            region = step(region, letter)
        return region

    def death_depth(self, branch: Branch) -> int | None:
        """The first depth whose prefix of ``branch`` is off the tree, or
        None when the whole branch stays on it.

        Past the head, a repeated pair (region, cycle phase) means the walk
        repeats from there: equal regions promise equal subtrees, and
        equal phases read the same letters. Regions along the branch take
        finitely many values, so the walk ends.
        """
        head, cycle = branch.head, branch.cycle
        seen: set[tuple] = set()
        region, depth = self.root_region, 0
        while region != DEAD:
            if depth >= len(head):
                state = (region, (depth - len(head)) % len(cycle))
                if state in seen:
                    return None
                seen.add(state)
            region = self.step(region, branch.at(depth))
            depth += 1
        return depth

    def member(self, word: Word) -> bool:
        return self.region_key(word) != DEAD


class ExplicitTree(Tree):
    """A pruned tree given by explicit nodes plus frontier policies.

    ``arity`` is the alphabet size, or None for the natural numbers. An
    inner node is its own region, ``("node", word)``; below a leaf the
    region is the policy's: ``("full",)``, ``("zeros",)``, ``("stop",)``,
    ``("fan_stop",)`` or ``("periodic", cycle, phase)``. ``region_key``
    reads only the prefixes of a word at the leaf depths."""

    def __init__(
        self,
        nodes: list[Word] | tuple[Word, ...] | set[Word],
        policies: dict[Word, Policy],
        arity: int | None = 2,
    ) -> None:
        node_set = {tuple(w) for w in nodes}
        node_set.add(())
        for w in node_set:
            if w and w[:-1] not in node_set:
                raise ValueError(f"nodes not downward closed at {w}")
            if arity is not None and any(l >= arity or l < 0 for l in w):
                raise ValueError(f"letter out of alphabet in node {w}")
        self.arity = arity
        self.nodes = frozenset(node_set)
        self.policies = {tuple(k): _check_policy(v, arity, k) for k, v in policies.items()}
        self.leaf_depths = sorted({len(w) for w in self.policies})
        children: dict[Word, list[int]] = {w: [] for w in node_set}
        for w in node_set:
            if w:
                children[w[:-1]].append(w[-1])
        for w in self.policies:
            if w not in node_set:
                raise ValueError(f"policy at {w} is not a tree node")
        for w in node_set:
            if w in self.policies:
                if children[w]:
                    raise ValueError(f"policy leaf {w} has explicit children")
            elif not children[w]:
                raise ValueError(f"leaf {w} has no policy")
        # The region entering each node: its own, or at a leaf its policy's first.
        self.node_regions = {w: _policy_region(self.policies[w], (), arity) if w in self.policies
                             else ("node", w) for w in node_set}
        self.root_region = self.node_regions[()]

    @staticmethod
    def full_binary() -> "ExplicitTree":
        return ExplicitTree([()], {(): "full"}, arity=2)

    def region_key(self, word: Word) -> tuple:
        """A key identifying the shape of the subtree below a word.

        Subtrees inside a policy region look alike regardless of where
        the word sits, which is what makes deep evaluations cacheable.
        """
        word = tuple(word)
        if word in self.nodes and word not in self.policies:
            return ("node", word)
        # Leaves have no children, so at most one prefix of a word is a leaf, at a
        # leaf depth, and it rules the rest of the word; with none it is off the tree.
        for cut in self.leaf_depths:
            prefix = word[:cut]
            if prefix in self.policies:
                return _policy_region(self.policies[prefix], word[cut:], self.arity)
        return DEAD

    def step(self, region: tuple, letter: int) -> tuple:
        kind = region[0]
        if kind == "node":
            return self.node_regions.get(region[1] + (letter,), DEAD)
        if kind == "full":
            return region if self.arity is None or 0 <= letter < self.arity else DEAD
        if kind == "zeros":
            return region if letter == 0 else DEAD
        if kind == "periodic":
            _, cycle, phase = region
            return ("periodic", cycle, (phase + 1) % len(cycle)) if letter == cycle[phase] else DEAD
        # A fan_stop child is a stop leaf, and nothing lives below a stop leaf.
        return ("stop",) if kind == "fan_stop" else DEAD


def _check_policy(policy: Policy, arity: int | None, at: Word) -> Policy:
    if policy in ("zeros", "full"):
        return policy
    if policy in ("stop", "fan_stop"):
        if arity is not None:
            raise ValueError(f"policy {policy} at {at} needs the natural-number alphabet")
        return policy
    if isinstance(policy, tuple) and len(policy) == 2 and policy[0] == "periodic":
        cycle = tuple(policy[1])
        if not cycle:
            raise ValueError(f"empty cycle at {at}")
        if arity is not None and any(l >= arity or l < 0 for l in cycle):
            raise ValueError(f"cycle letter out of alphabet at {at}")
        return ("periodic", cycle)
    raise ValueError(f"unknown policy {policy!r} at {at}")


def _policy_region(policy: Policy, suffix: Word, arity: int | None) -> tuple:
    """The region key of the word ``suffix`` below a policy leaf, or DEAD."""
    if policy == "zeros":
        return ("zeros",) if all(l == 0 for l in suffix) else DEAD
    if policy == "full":
        # The one region open to every letter: the alphabet bounds it.
        inside = arity is None or not suffix or (min(suffix) >= 0 and max(suffix) < arity)
        return ("full",) if inside else DEAD
    if policy == "stop":
        return DEAD if suffix else ("stop",)
    if policy == "fan_stop":
        # A fan_stop child is alive without children, like a stop leaf.
        if len(suffix) > 1:
            return DEAD
        return ("stop",) if suffix else ("fan_stop",)
    cycle = policy[1]
    if any(l != cycle[i % len(cycle)] for i, l in enumerate(suffix)):
        return DEAD
    return ("periodic", cycle, len(suffix) % len(cycle))


class InterleaveTree(Tree):
    """Lazy join: letters at even slots come from one tree, odd slots from the other.

    Membership is exact at every depth, which a depth-bounded
    materialization could not give.
    """

    def __init__(self, evens: ExplicitTree, odds: ExplicitTree):
        if evens.arity != 2 or odds.arity != 2:
            raise ValueError("interleave joins binary presentations")
        self.evens = evens
        self.odds = odds
        self.root_region = ("join", evens.root_region, odds.root_region, 0)

    def step(self, region: tuple, letter: int) -> tuple:
        _, ke, ko, parity = region
        if parity:
            ko = self.odds.step(ko, letter)
            return DEAD if ko == DEAD else ("join", ke, ko, 0)
        ke = self.evens.step(ke, letter)
        return DEAD if ke == DEAD else ("join", ke, ko, 1)


class PairInterleaveTree(Tree):
    """Lazy interleavings of a pair tree: letters 2i and 2i + 1 of a word
    are the bits of its pair letter i, and an odd-length word lives while
    some odd letter completes its pending pair. On a pair tree made by
    ``section``, pruned to its depth and closed with zero-tails, these
    are exactly the interleavings' downward closure, at every length."""

    def __init__(self, pairs: ExplicitTree):
        self.pairs = pairs
        self.root_region = ("pairs", pairs.root_region, None)

    def step(self, region: tuple, letter: int) -> tuple:
        _, key, pending = region
        if pending is None:
            # A dead pair word has no live extension either.
            if all(self.pairs.step(key, pair_letter(letter, b)) == DEAD for b in (0, 1)):
                return DEAD
            return ("pairs", key, letter)
        key = self.pairs.step(key, pair_letter(pending, letter))
        return DEAD if key == DEAD else ("pairs", key, None)


class IntersectionTree(Tree):
    """Nodes alive in both presentations; used to prune one tree by another."""

    def __init__(self, left: Tree, right: Tree):
        self.left = left
        self.right = right
        self.root_region = ("meet", left.root_region, right.root_region)

    def step(self, region: tuple, letter: int) -> tuple:
        _, kl, kr = region
        kl = self.left.step(kl, letter)
        if kl == DEAD:
            return DEAD
        kr = self.right.step(kr, letter)
        return DEAD if kr == DEAD else ("meet", kl, kr)


def materialize(alive: Callable[[Word], bool], arity: int, depth: int) -> ExplicitTree:
    """The words up to ``depth`` all of whose prefixes pass ``alive``.

    Levels grow one letter at a time by the membership test. Words that
    die before ``depth`` are dropped (lookahead pruning), so the result
    is pruned as a finite presentation; the root always stays, and the
    frontier closes with zero-tails.
    """
    levels: list[list[Word]] = [[()]]
    for _ in range(depth):
        levels.append([w + (i,) for w in levels[-1] for i in range(arity) if alive(w + (i,))])
    nodes: set[Word] = set(levels[depth])
    for level in reversed(levels[:depth]):
        nodes.update(w for w in level if any(w + (i,) in nodes for i in range(arity)))
    nodes.add(())
    policies: dict[Word, Policy] = {
        w: "zeros" for w in nodes if not any(w + (i,) in nodes for i in range(arity))}
    return ExplicitTree(nodes, policies, arity=arity)


def section(product_tree: ExplicitTree, first_coordinate, depth: int) -> ExplicitTree:
    """The slice of a product-alphabet tree along a fixed first coordinate.

    A product letter packs a leading bit with a remainder letter as
    bit * (arity/2) + rest, so sectioning a pair tree (arity 4) yields
    a binary tree and sectioning a triple tree (arity 8) a pair tree.
    ``first_coordinate`` is anything with an ``at(n)`` method giving the
    leading bit at position n. A word v of length up to ``depth``
    survives when the zipped product word is alive; ``materialize``
    drops the words with no continuation inside the window.
    """
    arity = product_tree.arity
    if arity is None or arity < 4 or arity & (arity - 1):
        raise ValueError("section expects a product alphabet: arity a power of two, at least 4")
    half = arity // 2

    def alive(v: Word) -> bool:
        zipped = tuple(half * first_coordinate.at(i) + letter for i, letter in enumerate(v))
        return product_tree.member(zipped)

    return materialize(alive, half, depth)


def pair_letter(a: int, b: int) -> int:
    return 2 * a + b
