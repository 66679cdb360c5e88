"""The three seeded workloads: documents, operations and their checks.

A workload is a fixed list of operation slots. Each slot fixes the
verb, the set family and the depth or budget, so every seed costs
about the same; the seed only draws the details inside a slot (the
constant of a preset, a random tree and its labels, the words of a
clopen list, the head and cycle of a point). The program only ever
sees the JSON documents; the checks see the same inputs through
reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from random import Random
from typing import Callable

import checks
from reference import (
    CellWalker,
    Spongy,
    alternation_label,
    constant_presented,
    cylinders_measure,
    cylinders_meet_measure,
    full_member,
    interval_presented,
    is_dyadic,
    least_dyadic_between,
    parity_label,
    point_letters,
    reduce_words,
    stream_value,
    bits,
    text,
    tree_member,
)


@dataclass
class Op:
    """One operation. ``argv`` is a CLI call whose "@name" entries are
    documents; ``call`` is a clopen set operation on the parsed operand
    sets, for the operations that have no CLI verb."""

    name: str
    check: Callable
    argv: tuple[str, ...] = ()
    call: Callable | None = None
    # The exception of a known fault this operation runs into every time.
    known_failure: type | None = None


@dataclass
class Workload:
    docs: dict[str, object]
    ops: list[Op]
    # Checks spanning several operations, called with {op index: output}.
    joint_checks: list[Callable] = field(default_factory=list)
    # (op index, perturbation) pairs the self-test must see rejected.
    self_test: list[tuple[int, str]] = field(default_factory=list)


def _fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _bits(rng: Random, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2) for _ in range(length))


def _point_doc(head, cycle, stretched: bool = False) -> dict:
    doc = {"kind": "ev_periodic", "head": text(head), "period": text(cycle)}
    return {"kind": "stretch", "of": doc} if stretched else doc


def _ladder(count: int, low: int, high: int) -> list[int]:
    """``count`` integers spread evenly over [low, high], in rising order.

    Slots take their family by index, so a fixed ladder hands every
    family the same depths whatever the seed.
    """
    return [low + (high - low) * i // max(count - 1, 1) for i in range(count)]


# ------------------------------------------------------- offspring-trace

# Every sixth slot goes to each reduction, two to the random trees.
OFFSPRING_FAMILIES = ("sec", "fc", "fi", "th", "rt", "rt")
REDUCTION_CYCLES = ((1,), (1, 0), (0, 1), (1, 1, 0), (1, 0, 0), (0,))
TREE_POLICIES = ("full", "zeros", (1,), (1, 0), (0, 1), (1, 1, 0))
RANDOM_TREES = 4
SHALLOW_WINDOW = 14
DEEP_WINDOW = 16


def _random_tree(rng: Random):
    """A binary tree of explicit nodes to depth 3 with live leaf policies."""
    nodes = {()}
    policies: dict = {}
    frontier = [()]
    while frontier:
        node = frontier.pop()
        kids: list[int] = []
        if len(node) < 3 and (not node or rng.random() < 0.8):
            kids = [b for b in (0, 1) if rng.random() < 0.7] or [rng.randrange(2)]
        for b in kids:
            nodes.add(node + (b,))
            frontier.append(node + (b,))
        if not kids:
            policies[node] = TREE_POLICIES[rng.randrange(len(TREE_POLICIES))]
    return nodes, policies


def _dyadic_label(rng: Random) -> Fraction:
    exponent = rng.randrange(2, 6)
    return Fraction(2 * rng.randrange(1 << (exponent - 1)) + 1, 1 << exponent)


def _tree_doc(nodes, policies) -> dict:
    order = sorted(nodes, key=lambda w: (len(w), w))
    return {
        "nodes": [text(w) for w in order],
        "policies": {
            text(leaf): policy if isinstance(policy, str) else {"periodic": text(policy)}
            for leaf, policy in sorted(policies.items())
        },
    }


def _tree_branch(rng: Random, policies):
    """A branch of the tree: a policy leaf continued along its policy."""
    leaf = sorted(policies)[rng.randrange(len(policies))]
    policy = policies[leaf]
    if policy == "zeros":
        return leaf, (0,)
    if policy == "full":
        return leaf, ((0,), (1,), (1, 0))[rng.randrange(3)]
    return leaf, policy


def offspring_trace(rng: Random, program_labels: Callable) -> Workload:
    """Reductions and random labelled trees, traced along stretched branches.

    ``program_labels(doc)`` returns the program's own label function; it
    stands in for the third reduction's labels in the cell walker.
    """
    docs: dict[str, object] = {}
    cases: dict[str, checks.OffspringCase] = {}
    points: dict[str, Callable] = {}

    def reduction_point(turn: int, cycles=REDUCTION_CYCLES):
        # The cycle goes by turn, so each cycle shape keeps its depths.
        return _bits(rng, rng.randrange(4)), cycles[turn % len(cycles)]

    docs["sec"] = {"kind": "reduction", "which": "second"}
    cases["sec"] = checks.OffspringCase(CellWalker(full_member, parity_label), parity_label)
    q = rng.choice((3, 5, 7, 9, 11, 13))
    c = Fraction(rng.randrange(1, q), q)
    docs["fc"] = {"kind": "reduction", "which": "first",
                  "function": {"preset": "constant", "value": _fraction(c)}}
    fc_label = alternation_label(constant_presented(c))
    cases["fc"] = checks.OffspringCase(CellWalker(full_member, fc_label), fc_label)
    a = Fraction(rng.randrange(1, 8), 16)
    b = a + Fraction(rng.randrange(2, 8), 16)
    docs["fi"] = {"kind": "reduction", "which": "first",
                  "function": {"preset": "interval", "a": _fraction(a), "b": _fraction(b)}}
    fi_label = alternation_label(interval_presented(a, b))
    cases["fi"] = checks.OffspringCase(CellWalker(full_member, fi_label), fi_label)
    margin = Fraction(1, rng.choice((5, 8, 16)))
    docs["th"] = {"kind": "reduction", "which": "third",
                  "function": {"preset": "injective", "eps": _fraction(margin)}}
    cases["th"] = checks.OffspringCase(CellWalker(full_member, program_labels(docs["th"])))
    for family in ("sec", "fc", "fi", "th"):
        points[family] = reduction_point
    trees = []
    for t in range(RANDOM_TREES):
        nodes, policies = _random_tree(rng)
        table = {node: _dyadic_label(rng) for node in sorted(nodes)}
        default = _dyadic_label(rng)
        name = f"rt{t}"
        docs[name] = {
            "kind": "offspring",
            "tree": _tree_doc(nodes, policies),
            "labels": {text(node): _fraction(v) for node, v in table.items()},
            "default_label": _fraction(default),
        }

        def label(node, table=table, default=default):
            return table.get(tuple(node), default)

        cases[name] = checks.OffspringCase(CellWalker(tree_member(nodes, policies), label), label)
        points[name] = lambda turn, policies=policies: _tree_branch(rng, policies)
        trees.append((name, default))

    ops: list[Op] = []
    rt_turn = [0]

    def family_at(slot: int) -> str:
        family = OFFSPRING_FAMILIES[slot % len(OFFSPRING_FAMILIES)]
        if family == "rt":
            family = trees[rt_turn[0] % RANDOM_TREES][0]
            rt_turn[0] += 1
        return family

    def add_point(point) -> str:
        name = f"p{len(docs)}"
        docs[name] = _point_doc(*point, stretched=True)
        return name

    turns = len(OFFSPRING_FAMILIES)
    for slot, steps in enumerate(_ladder(60, 6, 48)):
        family = family_at(slot)
        point = points[family](slot // turns)
        window = SHALLOW_WINDOW if steps <= 24 else DEEP_WINDOW
        exact = tuple(sorted(rng.sample(range(steps), 2))) if window == SHALLOW_WINDOW else ()
        ops.append(Op(
            f"trace {family} steps={steps}",
            partial(checks.offspring_trace, case=cases[family], point=point, steps=steps,
                    window=window, exact_lines=exact),
            argv=("trace", "--set", f"@{family}", "--branch", f"@{add_point(point)}",
                  "--steps", str(steps), "--budget", str(window)),
        ))
    for slot in range(28):
        family = family_at(slot)
        length = 4 + slot % 10
        head, cycle = points[family](slot // turns)
        prefix = point_letters(head, cycle, length, stretched=True)
        budget = length + 12
        ops.append(Op(
            f"measure {family} prefix={length} budget={budget}",
            partial(checks.offspring_measure, case=cases[family], prefix=prefix, budget=budget),
            argv=("measure", "--set", f"@{family}", "--prefix", text(prefix),
                  "--budget", str(budget)),
        ))
    classify_slots = []
    for turn in range(3):
        point = reduction_point(turn, ((1,), (1, 1, 0)))
        classify_slots.append(("sec", point, "blurry", None, Fraction(1, 16), 78))
    head = _bits(rng, 1 + rng.randrange(3))
    classify_slots.append(("sec", (head, (0,)), "converges", Fraction(1 - sum(head) % 2), None, 80))
    for _ in range(3):
        point = (_bits(rng, rng.randrange(3)), (1,))
        classify_slots.append(("fc", point, "converges", c, None, 80))
    for turn in range(2):
        point = reduction_point(turn, ((1,), (1, 0), (1, 1, 0)))
        value = a + (b - a) * stream_value(*point)
        classify_slots.append(("fi", point, "converges", value, None, 80))
    # Heads whose decoded halves both keep infinitely many 1s: the third
    # reduction converges there; other heads legitimately swing.
    th_heads = ((), (0,), (1,), (0, 1), (1, 1, 0))
    th_point = (th_heads[rng.randrange(len(th_heads))], (1,))
    classify_slots.append(("th", th_point, "converges", None, None, 80))
    for name, default in trees[:2]:
        classify_slots.append((name, points[name](0), "converges", default, None, 80))
    for family, point, expect, value, eps, depth in classify_slots:
        argv = ("classify", "--set", f"@{family}", "--branch", f"@{add_point(point)}",
                "--max-depth", str(depth))
        if eps is not None:
            argv += ("--eps", _fraction(eps))
        ops.append(Op(
            f"classify {family} {expect}",
            partial(checks.offspring_classify, case=cases[family], point=point,
                    expect=expect, value=value, eps=eps),
            argv=argv,
        ))
    self_test = [(0, "overflow"), (60, "shift"), (88, "verdict")]
    return Workload(docs, ops, self_test=self_test)


# ------------------------------------------------------------ exact-sets

EXACT_FAMILIES = ("lo", "hi", "cr", "comp", "cpl")


def _rate(rng: Random, low: Fraction, high: Fraction) -> Fraction:
    """A rational p/q in [low, high), q from 50 to 999."""
    q = rng.randrange(50, 1000)
    return Fraction(rng.randrange(-int(-low * q), -int(-high * q)), q)


def _values(rng: Random, count: int) -> list[Fraction]:
    """Distinct density values: dyadics whose denominator goes by position,
    alternating with non-dyadics in [1/4, 1/3)."""
    values: list[Fraction] = []
    while len(values) < count:
        if len(values) % 2:
            q = 2 * rng.randrange(25, 500) + 1
            value = Fraction(rng.randrange(-(-q // 4), -(-q // 3)), q)
        else:
            exponent = 2 + len(values) // 2 % 4
            value = Fraction(2 * rng.randrange(1 << (exponent - 1)) + 1, 1 << exponent)
        if value not in values:
            values.append(value)
    return values


def exact_sets(rng: Random) -> Workload:
    """Closed-form sets traced deep along eventually periodic points."""
    docs: dict[str, object] = {}
    sets: dict[str, list[str]] = {family: [] for family in EXACT_FAMILIES}
    designated: dict[str, list[Fraction]] = {}
    # Spongy rates in [1/4, 1/3) put the first base-4 digits at 1, 0, so the
    # piece behind 0 1 is always the whole cylinder and the entry points
    # below meet pieces of the same kinds whatever the seed.
    for k in range(3):
        docs[f"lo{k}"] = {"kind": "dualistic",
                          "measure": _fraction(_rate(rng, Fraction(1, 4), Fraction(1, 3)))}
        sets["lo"].append(f"lo{k}")
    # Above 1/3 the set carries a clopen chunk, the least dyadic in
    # (r - 1/3, min(r, 2/3)): 5/8 on [7/8, 23/24) and 1/2 on [3/4, 5/6),
    # which leaves a spongy remainder in [1/4, 1/3) as well.
    for k, (low, high) in enumerate(((Fraction(7, 8), Fraction(23, 24)),
                                     (Fraction(3, 4), Fraction(5, 6)))):
        docs[f"hi{k}"] = {"kind": "dualistic", "measure": _fraction(_rate(rng, low, high))}
        sets["hi"].append(f"hi{k}")
    for k in range(2):
        values = _values(rng, 12)
        docs[f"cr{k}"] = {"kind": "countable-range", "values": [_fraction(v) for v in values]}
        designated[f"cr{k}"] = values
        sets["cr"].append(f"cr{k}")
    for k in range(2):
        parts = [{"prefix": prefix, "set": docs[f"{family}{k}"]}
                 for prefix, family in (("00", "lo"), ("01", "cr"), ("1", "hi"))]
        docs[f"comp{k}"] = {"kind": "compose", "parts": parts, "complemented": bool(k)}
        sets["comp"].append(f"comp{k}")
    for k, inner in enumerate(("lo2", "cr1")):
        docs[f"cpl{k}"] = {"kind": "complement", "of": docs[inner]}
        sets["cpl"].append(f"cpl{k}")

    def set_at(slot: int) -> tuple[str, str]:
        family = EXACT_FAMILIES[slot % len(EXACT_FAMILIES)]
        names = sets[family]
        return family, names[slot // len(EXACT_FAMILIES) % len(names)]

    ops: list[Op] = []

    def add_point(point) -> str:
        name = f"p{len(docs)}"
        docs[name] = _point_doc(*point)
        return name

    def entry(doc: dict, full: bool, slot: int) -> tuple[int, ...]:
        # A word past which the point's piece is decided: wholly inside it
        # when ``full``, wholly outside otherwise. The clopen layer walks
        # full and empty pieces at different costs, so the slot fixes which
        # one, whatever digits the seed drew.
        kind = doc["kind"]
        if kind == "compose":
            part = doc["parts"][slot // len(EXACT_FAMILIES) % len(doc["parts"])]
            return bits(part["prefix"]) + entry(part["set"], full, slot)
        if kind == "complement":
            return entry(doc["of"], full, slot)
        if kind == "countable-range":
            n = 1 + slot // len(EXACT_FAMILIES) % len(doc["values"])
            return (0,) * n + (1,) * n + (1,) + piece_entry(Fraction(doc["values"][n - 1]), full)
        r = Fraction(doc["measure"])
        if r > Fraction(1, 3):
            r -= least_dyadic_between(r - Fraction(1, 3), min(r, Fraction(2, 3)))
        return spongy_entry(r, full)

    def piece_entry(value: Fraction, full: bool) -> tuple[int, ...]:
        if not is_dyadic(value):
            return spongy_entry(value, full)
        return dyadic_entry(value, full)

    def dyadic_entry(value: Fraction, full: bool) -> tuple[int, ...]:
        # The lex-first piece of a dyadic measure holds the streams below it:
        # 0^k lies inside once 2^-k <= value, 1^k outside once 1 - 2^-k >= value.
        k = 1
        while (Fraction(1, 1 << k) > value) if full else (1 - Fraction(1, 1 << k) < value):
            k += 1
        return ((0,) if full else (1,)) * k

    def spongy_entry(rate: Fraction, full: bool) -> tuple[int, ...]:
        # Whole pieces first (f = 1 for full, f = 0 for empty), then any.
        spongy = Spongy(rate)
        pieces = [(n, spongy.piece(n)) for n in range(1, 12)]
        wanted = [n for n, f in pieces if f == (1 if full else 0)]
        usable = [n for n, f in pieces if (f > 0 if full else f < 1)]
        n = (wanted or usable)[0]
        return (0,) * n + (1,) * n + dyadic_entry(spongy.piece(n), full)

    def graft_point(slot: int, name: str):
        full = slot // len(EXACT_FAMILIES) % 2 == 0
        head = entry(docs[name], full, slot) + _bits(rng, rng.randrange(4))
        cycle = _bits(rng, 2 + rng.randrange(3))
        if len(set(cycle)) == 1:
            cycle = cycle[:-1] + (1 - cycle[-1],)
        return head, cycle

    def designated_point(name: str, n: int):
        return ((0,) * n + (1,) * n, (0,)), (2 * n, designated[name][n - 1])

    for slot, steps in enumerate(_ladder(46, 80, 240)):
        family, name = set_at(slot)
        point = graft_point(slot, name)
        if family == "cpl":
            check = partial(checks.complement_trace, inner=docs[name]["of"], point=point, steps=steps)
        else:
            check = partial(checks.exact_trace, doc=docs[name], point=point, steps=steps)
        ops.append(Op(
            f"trace {name} steps={steps}", check,
            argv=("trace", "--set", f"@{name}", "--branch", f"@{add_point(point)}",
                  "--steps", str(steps)),
        ))
    # Every designated point of both countable-range sets, to one depth: a
    # block of like costs in which the workload's median falls.
    for name in sets["cr"]:
        for n in range(1, 13):
            point, mark = designated_point(name, n)
            ops.append(Op(
                f"trace {name} designated n={n}",
                partial(checks.exact_trace, doc=docs[name], point=point, steps=160,
                        designated=mark),
                argv=("trace", "--set", f"@{name}", "--branch", f"@{add_point(point)}",
                      "--steps", "160"),
            ))
    for slot, length in enumerate([0] * 5 + _ladder(13, 4, 40)):
        family, name = set_at(slot)
        prefix = point_letters(*graft_point(slot, name), length)
        ops.append(Op(
            f"measure {name} prefix={length}",
            partial(checks.exact_measure, doc=docs[name], prefix=prefix),
            argv=("measure", "--set", f"@{name}", "--prefix", text(prefix)),
        ))
    for slot in range(12):
        family, name = set_at(slot)
        if family == "cr":
            point = designated_point(name, 1 + rng.randrange(12))[0]
        else:
            point = graft_point(slot, name)
        ops.append(Op(
            f"classify {name}",
            partial(checks.exact_classify, doc=docs[name], point=point),
            argv=("classify", "--set", f"@{name}", "--branch", f"@{add_point(point)}",
                  "--max-depth", "120"),
        ))
    self_test = [(0, "shift"), (46, "shift"), (70, "shift"), (88, "verdict")]
    return Workload(docs, ops, self_test=self_test)


# -------------------------------------------------------- clopen-algebra

# The one operation that fails today: _normalize recurses once per letter.
LONG_WORD = "01" * 750
PAIRS = 5


def _word_list(rng: Random, count: int, shortest: int, longest: int) -> list[tuple[int, ...]]:
    """Random words whose lengths run through shortest..longest in turn.

    Short words swallow the longer words below them, and how many they
    swallow is up to the seed; a floor on the length keeps the canonical
    form about as large as the list for every seed.
    """
    span = longest - shortest + 1
    return [_bits(rng, shortest + i % span) for i in range(count)]


def _clopen_doc(words) -> dict:
    return {"kind": "clopen", "words": [text(w) for w in words]}


def clopen_algebra(rng: Random) -> Workload:
    """Explicit clopen specs read through the CLI, beside set algebra."""
    docs: dict[str, object] = {}
    words: dict[str, list] = {}
    # Word counts and lengths on a ladder, so that the costs of the
    # operations reading them spread evenly instead of in clusters.
    shapes = [(20 + 20 * k, 12 + 2 * k) for k in range(10)]
    for k, (count, longest) in enumerate(shapes):
        words[f"c{k}"] = _word_list(rng, count, 8, longest)
        docs[f"c{k}"] = _clopen_doc(words[f"c{k}"])
    for k in range(PAIRS):
        a = _word_list(rng, 30 + 10 * k, 6, 10 + 2 * k)
        if k % 2:
            # A subset of A, so that includes() also answers True.
            b = [w + _bits(rng, rng.randrange(3)) for w in rng.sample(a, len(a) // 2)]
        else:
            b = _word_list(rng, 30 + 10 * k, 6, 10 + 2 * k)
        words[f"a{k}"], words[f"b{k}"] = a, b
        docs[f"a{k}"], docs[f"b{k}"] = _clopen_doc(a), _clopen_doc(b)
    docs["long"] = {"kind": "clopen", "words": [LONG_WORD]}

    ops: list[Op] = []

    def add_point(point) -> str:
        name = f"p{len(docs)}"
        docs[name] = _point_doc(*point)
        return name

    deep: dict[str, list] = {}
    for name in words:
        reduced = reduce_words(words[name])
        longest = max(len(w) for w in reduced)
        deep[name] = [w for w in reduced if len(w) >= longest - 2]

    def along_word(name: str):
        # Points and prefixes follow one of the deepest words of the set, each
        # operation its own: a median over many paths holds from seed to seed.
        return deep[name][rng.randrange(len(deep[name]))], _bits(rng, 1 + rng.randrange(4))

    # Deep traces on small specs, shallow ones on large: the heavy operations
    # cost about alike, so no few of them decide the sums.
    for slot in range(20):
        k = slot % len(shapes)
        name, steps = f"c{k}", 36 - 3 * k - 2 * (slot // len(shapes))
        point = along_word(name)
        doc = docs[name]
        ops.append(Op(
            f"trace {name} steps={steps}",
            partial(checks.exact_trace, doc=doc, point=point, steps=steps),
            argv=("trace", "--set", f"@{name}", "--branch", f"@{add_point(point)}",
                  "--steps", str(steps)),
        ))
    # Thirty reads of one middle-sized spec: a block of like costs, about
    # a third of the way up, in which the median of the workload falls.
    for length in _ladder(30, 0, 20):
        name = "c5"
        prefix = point_letters(*along_word(name), length)
        ops.append(Op(
            f"measure {name} prefix={len(prefix)}",
            partial(checks.exact_measure, doc=docs[name], prefix=prefix),
            argv=("measure", "--set", f"@{name}", "--prefix", text(prefix)),
        ))
    for slot in range(10):
        name = f"c{slot % len(shapes)}"
        point = along_word(name)
        ops.append(Op(
            f"classify {name}",
            partial(checks.clopen_classify, words=words[name], point=point),
            argv=("classify", "--set", f"@{name}", "--branch", f"@{add_point(point)}"),
        ))

    joint: list[Callable] = []
    for k in range(PAIRS):
        a, b = words[f"a{k}"], words[f"b{k}"]
        ra, rb = reduce_words(a), reduce_words(b)
        ma, mb = cylinders_measure(ra), cylinders_measure(rb)
        meet = cylinders_meet_measure(ra, rb)
        base = len(ops)
        A, B = f"a{k}", f"b{k}"
        amount = ma * Fraction(1 + rng.randrange(7), 8)
        ops += [
            Op(f"from_words {A}",
               partial(checks.set_result, expect_measure=ma, inside=(a,), equal=a),
               call=lambda s, ws=tuple(a): s["ClopenSet"].from_words(ws)),
            Op(f"union {A} {B}",
               partial(checks.set_result, expect_measure=cylinders_measure(reduce_words(a + b)),
                       inside=(a + b,), equal=a + b),
               call=lambda s, A=A, B=B: s[A].union(s[B])),
            Op(f"intersect {A} {B}",
               partial(checks.set_result, expect_measure=meet, inside=(a, b)),
               call=lambda s, A=A, B=B: s[A].intersect(s[B])),
            Op(f"complement {A}",
               partial(checks.set_result, expect_measure=1 - ma, outside=(a,)),
               call=lambda s, A=A: s[A].complement()),
            Op(f"difference {A} {B}",
               partial(checks.set_result, expect_measure=ma - meet, inside=(a,), outside=(b,)),
               call=lambda s, A=A, B=B: s[A].difference(s[B])),
            Op(f"includes {A} {B}",
               partial(checks.includes_result, container=a, other=b),
               call=lambda s, A=A, B=B: s[A].includes(s[B])),
            Op(f"take_submass {A}",
               partial(checks.set_result, expect_measure=amount, inside=(a,)),
               call=lambda s, A=A, x=amount: s[A].take_submass(x)),
            Op(f"subset_of_measure {A} {B}",
               partial(checks.set_result, expect_measure=mb / 2, inside=(b,)),
               call=lambda s, B=B, x=mb / 2: s["subset_of_measure"](s[B], x)),
        ]
        joint.append(partial(checks.inclusion_exclusion, a=a, b=b, union=base + 1, meet=base + 2))
        joint.append(partial(checks.complement_law, a=a, index=base + 3))
    ops.append(Op(
        "measure long-word",
        partial(checks.exact_measure, doc=docs["long"], prefix=()),
        argv=("measure", "--set", "@long"),
        known_failure=RecursionError,
    ))
    self_test = [(2, "shift"), (20, "shift"), (50, "verdict"), (60, "extra-cylinder"),
                 (65, "negate")]
    return Workload(docs, ops, joint_checks=joint, self_test=self_test)


WORKLOADS = {
    "offspring-trace": offspring_trace,
    "exact-sets": exact_sets,
    "clopen-algebra": clopen_algebra,
}
