import re
from itertools import product
from random import Random

import pytest

from cantordensity.branches import Branch, StretchedBranch, as_stretched, interleave_branches
from cantordensity.cli import random_tree
from cantordensity.trees import (
    DEAD,
    ExplicitTree,
    InterleaveTree,
    IntersectionTree,
    materialize,
    pair_letter,
    periodic,
    section,
)
from cantordensity.words import stretch

from oracletools import unstretch_by_block_scan


def test_validation_catches_gaps():
    with pytest.raises(ValueError):
        ExplicitTree([(0, 0)], {(0, 0): "zeros"})  # not downward closed
    with pytest.raises(ValueError):
        ExplicitTree([(), (0,)], {})  # leaf without policy
    with pytest.raises(ValueError):
        ExplicitTree([()], {(): "stop"})  # stop needs the nat alphabet
    with pytest.raises(ValueError):
        ExplicitTree([(), (0,)], {(0,): "full", (1, 1): "zeros"})  # policy off the nodes


def test_membership_through_policies():
    t = ExplicitTree(
        [(), (0,), (1,)],
        {(0,): "full", (1,): periodic((1, 0))},
    )
    assert t.member(())
    assert t.member((0, 1, 1, 0))
    assert t.member((1, 1, 0, 1, 0))
    assert not t.member((1, 1, 1))
    assert not t.member((2,))


def test_zeros_policy():
    t = ExplicitTree([(), (1,)], {(1,): "zeros"})
    assert t.member((1, 0, 0, 0))
    assert not t.member((1, 0, 1))
    assert not t.member((0,))


def test_region_keys_collapse_inside_policies():
    t = ExplicitTree([(), (0,), (1,)], {(0,): "full", (1,): periodic((1, 0))})
    assert t.region_key((0, 1, 1)) == t.region_key((0, 0, 0)) == ("full",)
    assert t.region_key((1, 1, 0)) == t.region_key((1, 1, 0, 1, 0))
    assert t.region_key((1, 1)) != t.region_key((1, 1, 0))
    assert t.region_key((1, 0)) == ("dead",)
    assert t.region_key(()) == ("node", ())


def test_alive_children():
    t = ExplicitTree([(), (1,)], {(1,): "zeros"})
    assert [i for i in (0, 1) if t.member((i,))] == [1]
    assert [i for i in (0, 1) if t.member((1, i))] == [0]


def test_materialize_drops_words_dying_early():
    kept = {(0,), (1,), (1, 0), (1, 0, 1), (1, 1)}
    tree = materialize(lambda word: word in kept, 2, 3)
    assert tree.nodes == {(), (1,), (1, 0), (1, 0, 1)}
    assert tree.policies == {(1, 0, 1): "zeros"}
    # Nothing reaches the depth: the root alone closes with the zero-tail.
    assert materialize(lambda word: len(word) < 2, 2, 3).policies == {(): "zeros"}


def test_materialize_is_exact_to_its_depth():
    t = ExplicitTree([(), (0,), (1,)], {(0,): "full", (1,): periodic((1, 1))})
    flat = materialize(t.member, 2, 4)
    for word in [(0, 1, 0, 1), (1, 1, 1, 1), (0, 0, 0, 0), (1, 0), (1, 1, 0)]:
        assert flat.member(word) == t.member(word)
    assert not flat.member((0, 1, 0, 1, 1))  # zeros completion beyond depth
    assert flat.member((0, 1, 0, 1, 0))
    assert set(flat.policies.values()) == {"zeros"}


def test_materialize_closes_a_pruned_tree_with_zero_tails():
    # No word of a pruned tree dies before the depth, so the result
    # agrees with it up to the depth; below, only zero-tails survive.
    rng = Random(320)
    for _ in range(10):
        tree = random_tree(rng, 4)
        flat = materialize(tree.member, 2, 5)
        assert set(flat.policies.values()) == {"zeros"}
        for length in range(9):
            for word in product((0, 1), repeat=length):
                assert flat.member(word) == (tree.member(word[:5]) and not any(word[5:])), word


def test_policy_validation_names_the_leaf():
    cases = [
        ({(): ("periodic", ())}, 2, "empty cycle at ()"),
        ({(): periodic((0, 2))}, 2, "cycle letter out of alphabet at ()"),
        ({(): "fan_stop"}, 2, "policy fan_stop at () needs the natural-number alphabet"),
        ({(): "ones"}, None, "unknown policy 'ones' at ()"),
    ]
    for policies, arity, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            ExplicitTree([()], policies, arity=arity)
    with pytest.raises(ValueError, match=re.escape("policy leaf (0,) has explicit children")):
        ExplicitTree([(), (0,), (0, 1)], {(0,): "full", (0, 1): "zeros"})
    with pytest.raises(ValueError, match=re.escape("letter out of alphabet in node (2,)")):
        ExplicitTree([(), (2,)], {(2,): "zeros"})
    with pytest.raises(ValueError, match="periodic policy needs a non-empty cycle"):
        periodic(())


def _contract_trees():
    rng = Random(5)
    trees = [random_tree(rng, 4) for _ in range(12)]
    nat = ExplicitTree(
        [(), (0,), (1,), (2,), (1, 0), (1, 1)],
        {(0,): "stop", (2,): "fan_stop", (1, 0): "full", (1, 1): periodic((3, 1))},
        arity=None,
    )
    evens = ExplicitTree([(), (1,)], {(1,): "zeros"})
    halves = ExplicitTree([(), (0,), (1,)], {(0,): "full", (1,): periodic((1, 0))})
    trees += [nat, InterleaveTree(evens, halves), IntersectionTree(trees[0], halves)]
    return trees


@pytest.mark.parametrize("tree", _contract_trees())
def test_region_key_is_dead_exactly_off_the_tree(tree):
    # One letter past a finite alphabet checks that it bounds the tree.
    letters = range(4) if tree.arity is None else range(tree.arity + 1)
    for length in range(7):
        for word in product(letters, repeat=length):
            assert tree.member(word) == (tree.region_key(word) != DEAD), word


def test_stop_regions_are_alive_and_childless():
    nat = ExplicitTree([(), (0,), (1,)], {(0,): "stop", (1,): "fan_stop"}, arity=None)
    assert nat.region_key((0,)) == nat.region_key((1, 7)) == ("stop",)
    assert nat.member((1, 7)) and not nat.member((1, 7, 0)) and not nat.member((0, 0))


def test_fan_stop_opens_every_letter_once():
    fan = ExplicitTree([()], {(): "fan_stop"}, arity=None)
    assert fan.region_key(()) == ("fan_stop",)
    assert all(fan.region_key((n,)) == ("stop",) for n in (0, 1, 9, 1000))
    assert not fan.member((0, 0)) and not fan.member((3, 1))
    assert fan.death_depth(Branch((), (5,))) == 2
    stop = ExplicitTree([(), (1,)], {(1,): "stop"}, arity=None)
    assert stop.death_depth(Branch((1,), (0,))) == 2
    assert stop.death_depth(Branch((), (0,))) == 1


def test_periodic_policy_on_the_natural_numbers_reads_its_cycle():
    t = ExplicitTree([()], {(): periodic((2, 0))}, arity=None)
    assert t.member((2, 0, 2)) and not t.member((2, 1)) and not t.member((0,))
    assert t.region_key((2,)) == t.region_key((2, 0, 2)) != t.region_key((2, 0))
    assert t.death_depth(Branch((2,), (0, 2))) is None
    assert t.death_depth(Branch((2, 0, 2), (1,))) == 4


def test_full_policy_bounds_only_finite_alphabets():
    nat = ExplicitTree([()], {(): "full"}, arity=None)
    assert nat.member((0, 100, 7)) and nat.region_key((100,)) == ("full",)
    ternary = ExplicitTree([()], {(): "full"}, arity=3)
    assert ternary.member((2, 0, 1))
    assert not ternary.member((3,)) and not ternary.member((0, -1))


def test_accepts_branch_exact():
    t = ExplicitTree([(), (0,), (1,)], {(0,): "full", (1,): periodic((1, 0))})
    assert t.death_depth(Branch((0,), (1,))) is None
    assert t.death_depth(Branch((1,), (1, 0))) is None
    assert t.death_depth(Branch((1, 1), (0, 1))) is None  # same point, shifted presentation
    assert t.death_depth(Branch((1,), (0, 1))) == 2
    assert t.death_depth(Branch((1, 0), (1, 0))) == 2


def _random_presentation(rng: Random, arity: int | None, longest: int = 9) -> ExplicitTree:
    """A small random tree whose leaves carry any policy the alphabet allows,
    periodic ones with cycles of up to ``longest`` letters."""
    letters = 3 if arity is None else arity
    kinds = ["zeros", "full", "periodic"] + (["stop", "fan_stop"] if arity is None else [])
    nodes, policies, frontier = [()], {}, [()]
    while frontier:
        node = frontier.pop()
        children = [l for l in range(letters) if len(node) < 3 and rng.random() < 0.45]
        for letter in children:
            nodes.append(node + (letter,))
            frontier.append(node + (letter,))
        if not children:
            kind = rng.choice(kinds)
            if kind == "periodic":
                kind = periodic(tuple(rng.randrange(letters) for _ in range(rng.randint(1, longest))))
            policies[node] = kind
    return ExplicitTree(nodes, policies, arity=arity)


def _near_branch(rng: Random, tree: ExplicitTree, longest: int = 9) -> Branch:
    """A branch that follows a policy leaf for a while, then keeps or breaks
    the policy's rhythm: mostly alive, or dying late."""
    letters = 4 if tree.arity is None else tree.arity
    leaf = rng.choice(sorted(tree.policies))
    policy = tree.policies[leaf]
    rhythm = policy[1] if isinstance(policy, tuple) else (0,)
    run = tuple(rhythm[i % len(rhythm)] for i in range(rng.randrange(12)))
    head = leaf + run + ((rng.randrange(letters),) if rng.random() < 0.2 else ())
    shift = rng.randrange(len(rhythm))
    cycle = rng.choice([
        rhythm[shift:] + rhythm[:shift],
        rhythm * 2,
        tuple(rng.randrange(letters) for _ in range(rng.randint(1, longest))),
    ])
    return Branch(head, cycle)


def _brute_death_depth(tree, branch: Branch) -> int | None:
    """The first dead prefix by fresh membership queries, walked to twice the
    depth by which some (region key, cycle phase) pair must have repeated."""
    keys: set[tuple] = set()
    depth = 0
    while depth <= 2 * (len(branch.head) + len(branch.cycle) * len(keys)) + 8:
        word = branch.prefix(depth)
        if not tree.member(word):
            return depth
        keys.add(tree.region_key(word))
        depth += 1
    return None


def test_death_depth_matches_prefix_membership():
    rng = Random(2017)
    dead = alive = 0
    for _ in range(150):
        binary = [_random_presentation(rng, 2) for _ in range(2)]
        nat = _random_presentation(rng, None)
        cases = [(binary[0], _near_branch(rng, binary[0])) for _ in range(6)]
        cases += [(nat, _near_branch(rng, nat)) for _ in range(4)]
        # Short cycles keep the joint period of an interleaving small.
        slots = [_random_presentation(rng, 2, longest=3) for _ in range(2)]
        join = InterleaveTree(*slots)
        cases += [
            (join, interleave_branches(*(_near_branch(rng, slot, longest=3) for slot in slots)))
            for _ in range(3)
        ]
        meet = IntersectionTree(*binary)
        cases += [(meet, _near_branch(rng, binary[rng.randrange(2)])) for _ in range(3)]
        for tree, branch in cases:
            expected = _brute_death_depth(tree, branch)
            assert tree.death_depth(branch) == expected, (tree, branch)
            dead += expected is not None
            alive += expected is None
    # Both answers occur often.
    assert dead > 300 and alive > 300


def test_interleave_membership():
    evens = ExplicitTree([(), (1,)], {(1,): "zeros"})
    odds = ExplicitTree.full_binary()
    join = InterleaveTree(evens, odds)
    assert join.member((1, 0))
    assert join.member((1, 1, 0, 0, 0, 1))
    assert not join.member((0, 1))
    assert join.region_key((0, 1)) == ("dead",)
    key_a = join.region_key((1, 0, 0, 1))
    key_b = join.region_key((1, 1, 0, 0))
    assert key_a == key_b  # zeros-region phase and parity agree


def test_intersection_tree():
    a = ExplicitTree([(), (0,), (1,)], {(0,): "full", (1,): "zeros"})
    b = ExplicitTree([(), (0,), (1,)], {(0,): "zeros", (1,): "full"})
    meet = IntersectionTree(a, b)
    assert meet.member((0, 0, 0))
    assert meet.member((1, 0))
    assert not meet.member((0, 1))
    assert meet.member((0,)) and meet.member((1,))


def test_section_of_diagonal():
    nodes = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [w + (l,) for w in frontier for l in (pair_letter(0, 0), pair_letter(1, 1))]
        nodes.extend(frontier)
    diag = ExplicitTree(nodes, {w: "full" for w in frontier}, arity=4)
    sliced = section(diag, Branch((), (0,)), 3)
    assert sliced.member((0, 0, 0))
    assert not sliced.member((1,))
    sliced_ones = section(diag, Branch((), (1,)), 3)
    assert sliced_ones.member((1, 1, 1))
    assert not sliced_ones.member((0,))


def test_interleave_tree_joins_slots():
    join = InterleaveTree(ExplicitTree([(), (1,)], {(1,): "zeros"}), ExplicitTree.full_binary())
    assert join.member((1, 0, 0, 1))
    assert not join.member((0,))


def test_section_of_triple_tree():
    # Letters pack three bits; fixing the leading coordinate at the
    # all-ones branch keeps exactly the letters 4..7 and leaves a
    # pair-alphabet slice behind.
    nodes = [()]
    frontier = [()]
    for _ in range(3):
        frontier = [w + (l,) for w in frontier for l in (4, 5, 7)]
        nodes.extend(frontier)
    triple = ExplicitTree(nodes, {w: "full" for w in frontier}, arity=8)
    sliced = section(triple, Branch((), (1,)), 3)
    assert sliced.arity == 4
    assert sliced.member((0, 1, 3))
    assert not sliced.member((2,))
    dead = section(triple, Branch((), (0,)), 3)
    assert not dead.member((3,)) and not dead.member((1,))


def test_branch_basics():
    b = Branch((0, 1), (1, 0))
    assert b.prefix(6) == (0, 1, 1, 0, 1, 0)
    assert 1 in b.cycle
    assert Branch((), (0,)).constant_tail() == (0, 0)
    assert Branch((1, 0, 0), (0,)).constant_tail() == (0, 1)
    assert Branch((0, 1), (1, 0)).constant_tail() is None


def test_prefix_reads_at_letter_by_letter():
    rng = Random(31)
    for _ in range(3000):
        head = tuple(rng.randrange(3) for _ in range(rng.randrange(7)))
        cycle = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        n = rng.randrange(40)
        point = Branch(head, cycle)
        assert point.prefix(n) == tuple(point.at(i) for i in range(n))
        # Letter i of the base fills positions triangular(i) .. triangular(i + 1) - 1.
        stretched = tuple(point.at(i) for i in range(n) for _ in range(i + 1))
        assert StretchedBranch(point).prefix(n) == stretched[:n]


def test_stretched_branch():
    s = StretchedBranch(Branch((1, 0), (1,)))
    assert s.prefix(6) == (1, 0, 0, 1, 1, 1)
    assert s.base.prefix(3) == (1, 0, 1)


def test_as_stretched():
    assert as_stretched(StretchedBranch(Branch((), (1,)))) == Branch((), (1,))
    assert as_stretched(Branch((1,), (0,))) == Branch((1,), (0,))
    assert as_stretched(Branch((1, 1, 0), (0,))) is None
    assert as_stretched(Branch((), (0, 1))) is None
    assert as_stretched(Branch((1, 0, 0, 1, 1, 1), (1,))) == Branch((1, 0), (1,))


def test_as_stretched_agrees_with_the_block_scan():
    # Stretched heads, some cut short inside a block or with one letter
    # flipped, then a constant tail or, one time in ten, a cycle 01 or 10.
    rng = Random(2205)
    images = 0
    for _ in range(20_000):
        head = list(stretch(tuple(rng.randrange(2) for _ in range(rng.randrange(9)))))
        if head and rng.random() < 0.4:
            del head[rng.randrange(len(head)):]
        if head and rng.random() < 0.2:
            head[rng.randrange(len(head))] ^= 1
        letter = rng.randrange(2)
        cycle = (letter,) * rng.randrange(1, 3) if rng.random() < 0.9 else (letter, 1 - letter)
        point = Branch(tuple(head), cycle)
        expected = unstretch_by_block_scan(point)
        assert as_stretched(point) == expected, point
        images += expected is not None
    assert images >= 10_000, images
