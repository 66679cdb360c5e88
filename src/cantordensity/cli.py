"""Command-line surface: measure, trace, classify, build, verify.

Set specs and branches arrive as JSON files; results leave as JSON on
stdout, one object per line for traces. Exit codes: 0 on success, 1 when
a construction rejects its values, a tail certificate is contradicted
(the module's message is printed verbatim), bounds are too long to
print (exact ones or a budget's), an evaluation opens more states than
its cap ("budget exhausted: ..."; a jump over a block counts one state
per letter it spans up to the horizon), memory runs out ("out of
memory") or the run is interrupted ("Aborted!"), and silently when the
reader of stdout closes the pipe; 2 when a document ("spec error: ...")
or the command line is malformed (a usage line, then the error). The
verbs and their options are one table, ``_VERBS``, parsed with the
standard library alone. Verify suites are seeded, so equal invocations
print equal bytes.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from random import Random
from typing import NamedTuple

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


def measure(set_path: str, prefix: str, budget: int) -> None:
    """Certified bounds on the measure of a set, localized to a prefix."""
    oracle = jsonio.oracle_from_spec(_load_document(set_path))
    word = jsonio.binary_word_from_spec(prefix, "prefix")
    _check_printable(budget, len(word))
    bounds = oracle.local_bounds(word, budget)
    print(json.dumps(jsonio.interval_record(bounds)))


def trace(set_path: str, branch_path: str, steps: int, budget: int) -> None:
    """Density trace along a branch, one JSON line per depth."""
    oracle = jsonio.oracle_from_spec(_load_document(set_path))
    point = jsonio.branch_from_spec(_load_document(branch_path))
    _check_printable(budget)
    for line in jsonio.trace_lines(oracle.trace(point, steps - 1, window=budget)):
        print(line, flush=True)


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


def _write_spec(doc: dict, out_path: str) -> None:
    jsonio.oracle_from_spec(doc)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out_path}")


def build_dualistic(amount: str, out_path: str) -> None:
    """A set of exact prescribed measure, blurry on a designated spine."""
    value = jsonio.fraction_from_spec(amount)
    _write_spec({"kind": "dualistic", "measure": format_fraction(value)}, out_path)


def build_countable_range(values: tuple[str, ...], out_path: str) -> None:
    """A solid set realizing the given density values on designated points."""
    parsed = [jsonio.fraction_from_spec(v) for v in values]
    doc = {"kind": "countable-range", "values": [format_fraction(v) for v in parsed]}
    _write_spec(doc, out_path)


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


def verify(suite: str, seed: int, cases: int) -> None:
    """Run a named property suite and print pass/fail counts."""
    failures = _SUITES[suite](Random(seed), cases)
    print(f"{cases - len(failures)}/{cases} pass")
    for message in failures[:5]:
        print(f"fail: {message}", file=sys.stderr)
    if failures:
        sys.exit(1)


# --------------------------------------------------------- command line


class Option(NamedTuple):
    """One option of a verb, or its positional argument when it has no flags.

    The value is passed to the verb's callback as ``dest``. It is an
    integer when the option has a minimum or an integer default.
    """

    flags: tuple[str, ...]
    dest: str
    help: str = ""
    default: object = None
    required: bool = False
    multiple: bool = False
    choices: tuple[str, ...] = ()
    minimum: int | None = None


_SET = Option(("--set",), "set_path", "set spec JSON file", required=True)
_BRANCH = Option(("--branch",), "branch_path", "branch JSON file", required=True)
_OUT = Option(("-o", "--out"), "out_path", required=True)

# One row per verb: its callback, whose docstring is the help line, and its options.
_VERBS = {
    "measure": (measure, (
        _SET,
        Option(("--prefix",), "prefix", "localize to the cylinder of this bit word", ""),
        Option(("--budget",), "budget", "refinement depth for inexact oracles", 24, minimum=0),
    )),
    "trace": (trace, (
        _SET, _BRANCH,
        Option(("--steps",), "steps", required=True, minimum=1),
        Option(("--budget",), "budget", "refinement beyond each prefix length", 16, minimum=0),
    )),
    "classify": (classify, (
        _SET, _BRANCH,
        Option(("--eps",), "eps", "target interval width", "1/256"),
        Option(("--max-depth",), "max_depth", default=80, minimum=1),
    )),
    "build dualistic": (build_dualistic, (
        Option(("--measure",), "amount", 'target measure, "p/q"', required=True), _OUT,
    )),
    "build countable-range": (build_countable_range, (
        Option(("--value",), "values", 'designated density value, "p/q"', multiple=True), _OUT,
    )),
    "build offspring": (build_offspring, (
        Option(("--tree",), "tree_path", "tree spec JSON file", required=True),
        Option(("--label",), "labels", "node=value, e.g. 01=3/8", multiple=True),
        Option(("--default-label",), "default_label", default="1/2"),
        _OUT,
    )),
    "build reduction": (build_reduction, (
        Option(("--which",), "which", required=True, choices=("first", "second", "third")),
        Option(("--tree",), "tree_path", "tree spec JSON file; the full binary tree if omitted"),
        Option(("--preset",), "preset", "function presentation (first and third only)",
               choices=("constant", "interval", "injective")),
        Option(("--value",), "value", "constant preset: the constant"),
        Option(("--a",), "a", "interval preset: left endpoint"),
        Option(("--b",), "b", "interval preset: right endpoint"),
        Option(("--eps",), "eps", "injective preset: the margin"),
        _OUT,
    )),
    "verify": (verify, (
        Option((), "suite", required=True, choices=tuple(sorted(_SUITES))),
        Option(("--seed",), "seed", default=0),
        Option(("--cases",), "cases", default=100, minimum=1),
    )),
}
_PROG = "cantordensity"


class _UsageError(Exception):
    """A malformed command line: the verb or group it names, and the message."""


def _hint(option: Option) -> str:
    return " / ".join(f"'{flag}'" for flag in option.flags) or f"'{option.dest.upper()}'"


def _convert(verb: str, option: Option, value: str):
    """The value that an option's word stands for, checked against its
    choices and minimum."""
    problem = None
    if option.choices and value not in option.choices:
        problem = f"{value!r} is not one of {', '.join(map(repr, option.choices))}"
    elif option.minimum is not None or type(option.default) is int:
        try:
            value = int(value)
        except ValueError:
            problem = f"{value!r} is not a valid integer"
        else:
            if option.minimum is not None and value < option.minimum:
                problem = f"{value} is not in the range x>={option.minimum}"
    if problem:
        raise _UsageError(verb, f"Invalid value for {_hint(option)}: {problem}.")
    return value


def _parse(args: list[str]) -> tuple[str, dict | None]:
    """The verb that a command line names and its callback's keyword
    arguments, or None in their place when it asks for help.

    An option takes the next word as its value whatever it looks like
    (``--eps -1/3`` gives eps "-1/3"), ``--flag=value`` is accepted, flags
    are never abbreviated, a repeated option keeps its last value unless
    it is ``multiple``, and a positional argument may stand among the
    options.
    """
    group = "build" if args[:1] == ["build"] else ""
    words = iter(args[1:] if group else args)
    name = next(words, None)
    if name is None:
        raise _UsageError(group, "Missing command.")
    if name == "--help":
        return group, None
    verb = f"{group} {name}".lstrip()
    if verb not in _VERBS or " " in name:
        raise _UsageError(group, f"No such command '{name}'.")
    options = _VERBS[verb][1]
    flags = {flag: option for option in options for flag in option.flags}
    positional = [option for option in options if not option.flags]
    values = {option.dest: () if option.multiple else option.default for option in options}
    given = set()
    for word in words:
        if word == "--help":
            return verb, None
        if word.startswith("-"):
            flag, equals, value = word.partition("=") if word.startswith("--") else (word, "", "")
            option = flags.get(flag)
            if option is None:
                raise _UsageError(verb, f"No such option '{flag}'.")
            if not equals:
                value = next(words, None)
                if value is None:
                    raise _UsageError(verb, f"Option '{flag}' requires an argument.")
        elif positional:
            option, value = positional.pop(0), word
        else:
            raise _UsageError(verb, f"Got unexpected extra argument ({word})")
        value = _convert(verb, option, value)
        values[option.dest] = values[option.dest] + (value,) if option.multiple else value
        given.add(option.dest)
    for option in options:
        if option.required and option.dest not in given:
            kind = "option" if option.flags else "argument"
            raise _UsageError(verb, f"Missing {kind} {_hint(option)}.")
    return verb, values


def _usage(verb: str) -> str:
    """The usage line of a verb, or of a group ("" is the top level)."""
    if verb not in _VERBS:
        return f"{_PROG} {verb}".rstrip() + " COMMAND [ARGS]..."
    return " ".join([_PROG, verb, "[OPTIONS]"]
                    + [option.dest.upper() for option in _VERBS[verb][1] if not option.flags])


def _help(verb: str) -> str:
    """The --help text of a verb, or the command list of a group."""
    if verb in _VERBS:
        callback, options = _VERBS[verb]
        heading, rows = f"  {callback.__doc__}\n\nOptions:", []
        for option in options:
            notes = "; ".join(text for shown, text in (
                (option.choices, f"one of: {', '.join(option.choices)}"),
                (option.default not in (None, ""), f"default: {option.default}"),
                (option.minimum is not None, f"integer >= {option.minimum}"),
                (option.required, "required"), (option.multiple, "repeatable")) if shown)
            text = f"{option.help}  [{notes}]" if notes else option.help
            rows.append((", ".join(option.flags) or option.dest.upper(), text.strip()))
    else:
        prefix = f"{verb} ".lstrip()
        heading = "Commands:"
        rows = [(name[len(prefix):], callback.__doc__) for name, (callback, _) in _VERBS.items()
                if name.startswith(prefix)]
    width = max(len(label) for label, _ in rows) + 2
    lines = "".join(f"\n  {label:<{width}}{text}".rstrip() for label, text in rows)
    return f"Usage: {_usage(verb)}\n\n{heading}{lines}"


def main(argv: list[str] | None = None) -> None:
    """Run one command line, ``sys.argv[1:]`` by default.

    Returns on success. Otherwise prints a message on stderr and raises
    ``SystemExit`` with the exit code the module docstring gives.
    """
    try:
        verb, values = _parse(sys.argv[1:] if argv is None else list(argv))
        if values is None:
            print(_help(verb))
        else:
            _VERBS[verb][0](**values)
    except _UsageError as err:
        verb, message = err.args
        command = f"{_PROG} {verb}".rstrip()
        print(f"Usage: {_usage(verb)}\nTry '{command} --help' for help.\n\nError: {message}",
              file=sys.stderr)
        sys.exit(2)
    except jsonio.SpecError as err:
        print(f"spec error: {err}", file=sys.stderr)
        sys.exit(2)
    except (ValueError, RuntimeError) as err:
        print(err, file=sys.stderr)
        sys.exit(1)
    except MemoryError:
        print("out of memory", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # stdout's reader has gone: keep the interpreter's last flush from failing too.
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        sys.exit(1)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)


# bench/run.py calls click's entry point, main.main(argv, standalone_mode=False); this
# forwards it to main(argv), bound here so that a tracer rebinding main counts one call.
main.main = lambda argv, standalone_mode=False, run=main: run(argv)


if __name__ == "__main__":
    main()
