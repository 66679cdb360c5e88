"""Command-line surface: measure, trace, classify, build, verify.

Set specs and branches arrive as JSON files; results leave as JSON on
stdout, one object per line for traces. Exit codes: 0 on success, 1 when
a construction rejects its values, a tail certificate is contradicted
(the module's message is printed verbatim), bounds are too long to
print (exact ones or a budget's), an evaluation opens more states than
its cap ("budget exhausted: ..."; a jump over a block counts one state
per letter it spans up to the horizon) or memory runs out ("out of
memory"), 2 when a document or the command line itself is malformed.
Verify suites are seeded, so equal invocations print equal bytes.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from random import Random

import click

from . import jsonio
from .branches import Branch, StretchedBranch
from .clopen import ClopenSet, subset_of_measure
from .dualistic import dualistic_of_measure
from .dyadics import format_fraction
from .offspring import ExplicitLabels, offspring_build
from .oracles import ClopenOracle
from .trees import ExplicitTree, Policy, periodic
from .words import (
    Word,
    bits_to_runs,
    decode_head,
    ones_count,
    runs_to_bits,
    splice_runs,
    split_trailing_zeros,
    stretch,
    triangular,
)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except jsonio.SpecError as err:
            print(f"spec error: {err}", file=sys.stderr)
            sys.exit(2)
        except (ValueError, RuntimeError) as err:
            print(err, file=sys.stderr)
            sys.exit(1)
        except MemoryError:
            print("out of memory", file=sys.stderr)
            sys.exit(1)

    return wrapper


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise jsonio.SpecError(f"cannot read {path}: {err.strerror}") from None
    except json.JSONDecodeError as err:
        raise jsonio.SpecError(f"{path} is not JSON: {err}") from None


def _check_printable(budget: int, offset: int = 0) -> None:
    """Refuse a budget whose bounds, fractions over 2^(budget - offset), would not print."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2^e has at most ``digits`` decimal digits exactly when e is below the
    # bit length of 10^digits, which always holds for e <= 3 * digits (8 < 10).
    if not digits or budget - offset <= 3 * digits:
        return
    largest = offset + (10 ** digits).bit_length() - 1
    if budget > largest:
        raise ValueError(f"budget {budget} is too large: its bounds would have over {digits} "
                         f"digits; the largest budget accepted is {largest}")


@click.group()
def main() -> None:
    """Exact measures, density traces, and point classifications."""


@main.command()
@click.option("--set", "set_path", required=True, help="set spec JSON file")
@click.option("--prefix", default="", help="localize to the cylinder of this bit word")
@click.option(
    "--budget", default=24, show_default=True, type=click.IntRange(min=0),
    help="refinement depth for inexact oracles",
)
@_guarded
def measure(set_path: str, prefix: str, budget: int) -> None:
    """Certified bounds on the measure of a set, localized to a prefix."""
    oracle = jsonio.oracle_from_spec(_load_document(set_path))
    word = jsonio.binary_word_from_spec(prefix, "prefix")
    _check_printable(budget, len(word))
    bounds = oracle.local_bounds(word, budget)
    print(json.dumps(jsonio.interval_record(bounds)))


@main.command()
@click.option("--set", "set_path", required=True, help="set spec JSON file")
@click.option("--branch", "branch_path", required=True, help="branch JSON file")
@click.option("--steps", required=True, type=click.IntRange(min=1))
@click.option(
    "--budget", default=16, show_default=True, type=click.IntRange(min=0),
    help="refinement beyond each prefix length",
)
@_guarded
def trace(set_path: str, branch_path: str, steps: int, budget: int) -> None:
    """Density trace along a branch, one JSON line per depth."""
    oracle = jsonio.oracle_from_spec(_load_document(set_path))
    point = jsonio.branch_from_spec(_load_document(branch_path))
    _check_printable(budget)
    for line in jsonio.trace_lines(oracle.trace(point, steps - 1, window=budget)):
        print(line, flush=True)


@main.command()
@click.option("--set", "set_path", required=True, help="set spec JSON file")
@click.option("--branch", "branch_path", required=True, help="branch JSON file")
@click.option("--eps", default="1/256", show_default=True, help="target interval width")
@click.option("--max-depth", default=80, show_default=True, type=click.IntRange(min=1))
@_guarded
def classify(set_path: str, branch_path: str, eps: str, max_depth: int) -> None:
    """Classify a point's density: converges, blurry, or undetermined."""
    oracle = jsonio.oracle_from_spec(_load_document(set_path))
    point = jsonio.branch_from_spec(_load_document(branch_path))
    epsilon = jsonio.fraction_from_spec(eps)
    if epsilon <= 0:
        raise ValueError(f"eps must be positive: {eps}")
    verdict = oracle.classify(point, eps=epsilon, max_depth=max_depth)
    try:
        record = jsonio.verdict_record(verdict)
    except ValueError:  # only from an integer too long to print
        raise ValueError(f"verdict at depth {verdict.depth} is too large: its bounds would have "
                         f"over {sys.get_int_max_str_digits()} digits") from None
    print(json.dumps(record))


# ---------------------------------------------------------------- build


@main.group()
def build() -> None:
    """Write a validated set spec to a file."""


def _write_spec(doc: dict, out_path: str) -> None:
    jsonio.oracle_from_spec(doc)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")


@build.command(name="dualistic")
@click.option("--measure", "amount", required=True, help='target measure, "p/q"')
@click.option("-o", "--out", "out_path", required=True)
@_guarded
def build_dualistic(amount: str, out_path: str) -> None:
    """A set of exact prescribed measure, blurry on a designated spine."""
    value = jsonio.fraction_from_spec(amount)
    _write_spec({"kind": "dualistic", "measure": format_fraction(value)}, out_path)


@build.command(name="countable-range")
@click.option("--value", "values", multiple=True, help='designated density value, "p/q"')
@click.option("-o", "--out", "out_path", required=True)
@_guarded
def build_countable_range(values: tuple[str, ...], out_path: str) -> None:
    """A solid set realizing the given density values on designated points."""
    parsed = [jsonio.fraction_from_spec(v) for v in values]
    doc = {"kind": "countable-range", "values": [format_fraction(v) for v in parsed]}
    _write_spec(doc, out_path)


@build.command(name="offspring")
@click.option("--tree", "tree_path", required=True, help="tree spec JSON file")
@click.option("--label", "labels", multiple=True, help="node=value, e.g. 01=3/8")
@click.option("--default-label", default="1/2", show_default=True)
@click.option("-o", "--out", "out_path", required=True)
@_guarded
def build_offspring(tree_path: str, labels: tuple[str, ...], default_label: str,
                    out_path: str) -> None:
    """The compact offspring set of a tree with per-node labels."""
    tree_doc = _load_document(tree_path)
    label_map: dict[str, str] = {}
    for item in labels:
        node_text, sep, value_text = item.partition("=")
        if not sep:
            raise jsonio.SpecError(f"labels look like node=value, got {item!r}")
        node = jsonio.word_from_spec(node_text, "label node")
        label_map[jsonio.word_to_spec(node)] = format_fraction(
            jsonio.fraction_from_spec(value_text)
        )
    doc = {
        "kind": "offspring",
        "tree": tree_doc,
        "labels": label_map,
        "default_label": format_fraction(jsonio.fraction_from_spec(default_label)),
    }
    _write_spec(doc, out_path)


@build.command(name="reduction")
@click.option("--which", required=True, type=click.Choice(["first", "second", "third"]))
@click.option("--tree", "tree_path", default=None,
              help="tree spec JSON file; the full binary tree if omitted")
@click.option("--preset", type=click.Choice(["constant", "interval", "injective"]),
              default=None, help="function presentation (first and third only)")
@click.option("--value", default=None, help="constant preset: the constant")
@click.option("--a", default=None, help="interval preset: left endpoint")
@click.option("--b", default=None, help="interval preset: right endpoint")
@click.option("--eps", default=None, help="injective preset: the margin")
@click.option("-o", "--out", "out_path", required=True)
@_guarded
def build_reduction(which: str, tree_path: str | None, preset: str | None,
                    value: str | None, a: str | None, b: str | None,
                    eps: str | None, out_path: str) -> None:
    """One of the three tree-to-compact-set reductions."""
    doc: dict = {"kind": "reduction", "which": which}
    if which == "second":
        if preset is not None:
            raise jsonio.SpecError("the second reduction takes no function")
    else:
        if preset is None:
            raise jsonio.SpecError(f"the {which} reduction needs --preset")
        doc["function"] = _function_doc(preset, value, a, b, eps)
    if tree_path is not None:
        doc["tree"] = _load_document(tree_path)
    _write_spec(doc, out_path)


def _function_doc(preset: str, value: str | None, a: str | None,
                  b: str | None, eps: str | None) -> dict:
    def need(flag_value: str | None, flag: str) -> str:
        if flag_value is None:
            raise jsonio.SpecError(f"preset {preset!r} needs {flag}")
        return format_fraction(jsonio.fraction_from_spec(flag_value))

    if preset == "constant":
        return {"preset": "constant", "value": need(value, "--value")}
    if preset == "interval":
        return {"preset": "interval", "a": need(a, "--a"), "b": need(b, "--b")}
    return {"preset": "injective", "eps": need(eps, "--eps")}


# --------------------------------------------------------------- verify


def random_tree(rng: Random, depth_cap: int) -> ExplicitTree:
    """A random pruned binary tree with live policies on every leaf."""
    nodes: list[Word] = [()]
    policies: dict[Word, Policy] = {}
    frontier: list[Word] = [()]
    live: tuple[Policy, ...] = ("zeros", "full", periodic((1,)), periodic((1, 0)))
    while frontier:
        node = frontier.pop()
        children = [letter for letter in (0, 1) if rng.random() < 0.6]
        if len(node) >= depth_cap:
            children = []
        for letter in children:
            child = node + (letter,)
            nodes.append(child)
            frontier.append(child)
        if not children:
            policies[node] = live[rng.randrange(len(live))]
    return ExplicitTree(nodes, policies)


def random_labels(rng: Random, tree: ExplicitTree) -> ExplicitLabels:
    """Random dyadic labels on the explicit nodes, random dyadic default."""

    def dyadic() -> Fraction:
        exponent = rng.randrange(2, 6)
        return Fraction(rng.randrange(1, 1 << exponent), 1 << exponent)

    mapping = {node: dyadic() for node in sorted(tree.nodes, key=lambda w: (len(w), w))}
    return ExplicitLabels(mapping, dyadic())


def random_tree_branch(rng: Random, tree: ExplicitTree) -> Branch:
    """A branch of the tree: a policy leaf continued along its policy."""
    leaves = sorted(tree.policies, key=lambda w: (len(w), w))
    leaf = leaves[rng.randrange(len(leaves))]
    policy = tree.policies[leaf]
    if policy == "zeros":
        return Branch(leaf, (0,))
    if policy == "full":
        cycle = ((0,), (1,), (1, 0))[rng.randrange(3)]
        return Branch(leaf, cycle)
    return Branch(leaf, policy[1])


def _suite_branch_lemma(rng: Random, cases: int) -> list[str]:
    """Trace midpoints along a stretched branch track the branch labels."""
    failures = []
    for index in range(cases):
        tree = random_tree(rng, depth_cap=4)
        labels = random_labels(rng, tree)
        oracle = offspring_build(tree, labels)
        base = random_tree_branch(rng, tree)
        bounds = list(oracle.trace(StretchedBranch(base), triangular(5), window=12))
        for k in range(1, 6):
            box = bounds[triangular(k)]
            target = labels.label(base.prefix(k))
            gap = abs(box.midpoint - target)
            allowed = Fraction(1, 1 << k) + box.width
            if gap > allowed:
                failures.append(f"case {index}: k={k}, off by {gap} > {allowed}")
    return failures


def _suite_dualistic_measure(rng: Random, cases: int) -> list[str]:
    """Exact prescribed measures and the spine tail bound."""
    failures = []
    for index in range(cases):
        r = Fraction(rng.randrange(1, 10_000), 10_000)
        built = dualistic_of_measure(r)
        total = built.oracle.measure_bounds(0)
        if not (total.is_point() and total.lo == r):
            failures.append(f"case {index}: measure {total.lo} != {r}")
            continue
        clopen_depth = built.clopen_part.depth if built.clopen_part else 0
        for m in range(max(10, clopen_depth), 14):
            local = built.oracle.local_bounds((0,) * m, 0)
            bound = Fraction(4, 3) / (1 << m)
            if built.clopen_part is not None:
                bound += ClopenOracle(built.clopen_part).local_bounds((0,) * m, 0).hi
            if local.hi > bound or local.width != 0:
                failures.append(f"case {index}: spine bound broken at depth {m}")
                break
    return failures


def _suite_clopen_laws(rng: Random, cases: int) -> list[str]:
    """Inclusion-exclusion and prescribed-measure subsets, exactly."""

    def random_clopen() -> ClopenSet:
        words = []
        for _ in range(rng.randrange(1, 6)):
            length = rng.randrange(0, 6)
            words.append(tuple(rng.randrange(2) for _ in range(length)))
        return ClopenSet.from_words(words)

    failures = []
    for index in range(cases):
        a, b = random_clopen(), random_clopen()
        both = a.union(b).measure() + a.intersect(b).measure()
        if both != a.measure() + b.measure():
            failures.append(f"case {index}: inclusion-exclusion broken")
            continue
        container = a.union(b)
        if container.measure() > 0:
            exponent = rng.randrange(1, 7)
            amount = container.measure() * Fraction(
                rng.randrange(1, 1 << exponent), 1 << exponent
            )
            if 0 < amount < container.measure():
                piece = subset_of_measure(container, amount)
                if piece.measure() != amount or not container.includes(piece):
                    failures.append(f"case {index}: prescribed subset broken")
    return failures


def _suite_codec(rng: Random, cases: int) -> list[str]:
    """Round-trips and guards of the word codecs."""
    failures = []
    for index in range(cases):
        runs = tuple(rng.randrange(0, 5) for _ in range(rng.randrange(0, 7)))
        bits = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 12)))
        head, zeros = split_trailing_zeros(bits)
        checks = (
            decode_head(runs_to_bits(runs)) == runs,
            head + (0,) * zeros == bits,
            ones_count(runs_to_bits(runs)) == len(runs),
            len(stretch(bits)) == triangular(len(bits)),
            splice_runs(bits, tuple(range(ones_count(bits))))
            == runs_to_bits(
                tuple(
                    entry
                    for pair in zip(bits_to_runs(head), range(ones_count(bits)))
                    for entry in pair
                )
            )
            + (0,) * zeros,
        )
        if not all(checks):
            failures.append(f"case {index}: check vector {checks}")
            continue
        try:
            splice_runs(bits, tuple(range(ones_count(bits) + 1)))
            failures.append(f"case {index}: arity guard missing")
        except ValueError:
            pass
    return failures


_SUITES = {
    "branch-lemma": _suite_branch_lemma,
    "dualistic-measure": _suite_dualistic_measure,
    "clopen-laws": _suite_clopen_laws,
    "codec": _suite_codec,
}


@main.command()
@click.argument("suite")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--cases", default=100, show_default=True, type=click.IntRange(min=1))
@_guarded
def verify(suite: str, seed: int, cases: int) -> None:
    """Run a named property suite and print pass/fail counts."""
    runner = _SUITES.get(suite)
    if runner is None:
        raise click.UsageError(
            f"unknown suite {suite!r}; choose from: {', '.join(sorted(_SUITES))}"
        )
    failures = runner(Random(seed), cases)
    print(f"{cases - len(failures)}/{cases} pass")
    for message in failures[:5]:
        print(f"fail: {message}", file=sys.stderr)
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
