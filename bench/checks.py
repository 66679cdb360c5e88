"""Answer checks: every operation's output against values from reference.py.

Each check takes the operation's output (the CLI's stdout text, or a
plain description of a clopen result) and returns a list of problems;
an empty list means the answer passed. Checks run outside the timed
region. ``perturb`` builds wrong answers for the self-test, which
feeds them back through the same checks and expects each rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

from reference import (
    ONE,
    ZERO,
    block_start,
    covered,
    cylinders_local,
    cylinders_measure,
    cylinders_meet_measure,
    exact_local,
    point_letters,
    reduce_words,
)

# Cells this far past the prefix bound every offspring interval from
# outside: deeper horizons only tighten the bounds.
COARSE_HORIZON = 6


def _records(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def _interval(record: dict) -> tuple[Fraction, Fraction]:
    return Fraction(record["lo"]), Fraction(record["hi"])


def _well_formed(lo: Fraction, hi: Fraction) -> bool:
    return ZERO <= lo <= hi <= ONE


def _trace_intervals(out: str, steps: int) -> tuple[list[tuple[Fraction, Fraction]], list[str]]:
    records = _records(out)
    if [r.get("n") for r in records] != list(range(steps)):
        return [], [f"trace lines are not n = 0..{steps - 1}"]
    return [_interval(r) for r in records], []


# ------------------------------------------------------------- offspring


class OffspringCase:
    """One offspring set as the checks see it: a cell walker, and the label
    of a node when it is derived here (None where it is not)."""

    def __init__(self, walker, label=None):
        self.walker = walker
        self.label = label


def offspring_measure(out, case: OffspringCase, prefix, budget: int) -> list[str]:
    lo, hi = _interval(json.loads(out))
    want = case.walker.bounds(prefix, budget)
    if (lo, hi) != want:
        return [f"measure {lo}..{hi} != cell bounds {want[0]}..{want[1]}"]
    return []


def offspring_trace(out, case: OffspringCase, point, steps: int, window: int,
                    exact_lines: tuple[int, ...]) -> list[str]:
    """Every line: inside [0, 1] and inside the coarse cell bounds. Block
    boundaries: midpoint near the node's label. Sampled lines: equal to
    the cell bounds at the operation's own horizon."""
    intervals, problems = _trace_intervals(out, steps)
    if problems:
        return problems
    head, cycle = point
    letters = point_letters(head, cycle, steps, stretched=True)
    for n, (lo, hi) in enumerate(intervals):
        if not _well_formed(lo, hi):
            return [f"line {n}: {lo}..{hi} is not inside [0, 1]"]
        outer = case.walker.bounds(letters[:n], n + COARSE_HORIZON)
        if not (outer[0] <= lo and hi <= outer[1]):
            return [f"line {n}: {lo}..{hi} escapes the cell bounds {outer[0]}..{outer[1]}"]
    if case.label is not None:
        base = point_letters(head, cycle, steps)
        k = 1
        while block_start(k) < steps:
            lo, hi = intervals[block_start(k)]
            gap = abs((lo + hi) / 2 - case.label(base[:k]))
            if gap > Fraction(1, 1 << k) + (hi - lo):
                return [f"block {k}: midpoint {gap} away from the node label"]
            k += 1
    for n in exact_lines:
        want = case.walker.bounds(letters[:n], n + window)
        if intervals[n] != want:
            return [f"line {n}: {intervals[n]} != cell bounds {want}"]
    return []


def offspring_classify(out, case: OffspringCase, point, expect: str,
                       value: Fraction | None = None, eps: Fraction | None = None) -> list[str]:
    """The expected verdict, its value inside a converging interval or a
    blurry delta of at least 1 - eps, and a converging tail that meets the
    coarse cell bounds of the first depths it speaks for."""
    record = json.loads(out)
    if record["verdict"] != expect:
        return [f"verdict {record['verdict']} != {expect}"]
    lo, hi = _interval(record)
    if not _well_formed(lo, hi):
        return [f"verdict interval {lo}..{hi} is not inside [0, 1]"]
    if expect == "blurry":
        delta = Fraction(record["delta"])
        if delta != hi - lo or delta < 1 - eps:
            return [f"blurry delta {delta} below 1 - {eps}"]
        return []
    if value is not None and not lo <= value <= hi:
        return [f"limit {value} outside the converging interval {lo}..{hi}"]
    head, cycle = point
    start = record["depth"]
    letters = point_letters(head, cycle, start + 8, stretched=True)
    for n in range(start, start + 8):
        outer = case.walker.bounds(letters[:n], n + COARSE_HORIZON)
        if outer[1] < lo or outer[0] > hi:
            return [f"depth {n}: cell bounds {outer} miss the tail interval {lo}..{hi}"]
    return []


# ------------------------------------------------------------- exact sets


def exact_measure(out, doc: dict, prefix) -> list[str]:
    lo, hi = _interval(json.loads(out))
    if lo != hi or not _well_formed(lo, hi):
        return [f"measure {lo}..{hi} is not a point of [0, 1]"]
    want = exact_local(doc, prefix)
    if want is not None and lo != want:
        return [f"measure {lo} != {want}"]
    return []


def exact_trace(out, doc: dict, point, steps: int,
                designated: tuple[int, Fraction] | None = None) -> list[str]:
    """Point intervals equal to the reference; a countable-range designated
    point 0^n 1^n 0^w reads its value from depth 2n on."""
    intervals, problems = _trace_intervals(out, steps)
    if problems:
        return problems
    letters = point_letters(*point, steps)
    for n, (lo, hi) in enumerate(intervals):
        if lo != hi or not _well_formed(lo, hi):
            return [f"line {n}: {lo}..{hi} is not a point of [0, 1]"]
        want = exact_local(doc, letters[:n])
        if want is not None and lo != want:
            return [f"line {n}: {lo} != {want}"]
    if designated is not None:
        start, value = designated
        if any(lo != value for lo, _ in intervals[start:]):
            return [f"designated point leaves {value} after depth {start}"]
    return []


def complement_trace(out, inner: dict, point, steps: int) -> list[str]:
    """Each bound of a complement is one minus the inner set's bound."""
    intervals, problems = _trace_intervals(out, steps)
    if problems:
        return problems
    letters = point_letters(*point, steps)
    for n, (lo, hi) in enumerate(intervals):
        want = exact_local(inner, letters[:n])
        if want is not None and (lo, hi) != (ONE - want, ONE - want):
            return [f"line {n}: {lo}..{hi} != 1 - {want}"]
    return []


def exact_classify(out, doc: dict, point, span: int = 32) -> list[str]:
    """A converging verdict holds the reference value at every depth from
    its start over a span; nothing else is expected of these sets."""
    record = json.loads(out)
    if record["verdict"] != "converges":
        return [f"verdict {record['verdict']} != converges"]
    lo, hi = _interval(record)
    if not _well_formed(lo, hi):
        return [f"verdict interval {lo}..{hi} is not inside [0, 1]"]
    start = record["depth"]
    letters = point_letters(*point, start + span)
    for n in range(start, start + span):
        want = exact_local(doc, letters[:n])
        if want is not None and not lo <= want <= hi:
            return [f"depth {n}: {want} outside the tail interval {lo}..{hi}"]
    return []


# ---------------------------------------------------------------- clopen


def clopen_classify(out, words, point) -> list[str]:
    """A clopen set settles to 0 or 1 at the depth of its longest word."""
    record = json.loads(out)
    reduced = reduce_words(words)
    depth = max((len(w) for w in reduced), default=0)
    want = cylinders_local(reduced, point_letters(*point, depth))
    if record["verdict"] != "converges" or _interval(record) != (want, want):
        return [f"verdict {record} != converges at {want}"]
    if record["depth"] > depth:
        return [f"certificate starts at {record['depth']}, past depth {depth}"]
    return []


def set_result(out, expect_measure: Fraction, inside=(), outside=(), equal=None) -> list[str]:
    """A clopen result: its words' measure, containment in each of ``inside``,
    disjointness from each of ``outside`` and, when given, equality with
    the union of the cylinders ``equal``."""
    kind, words = out
    if kind != "set":
        return [f"expected a set, got {kind}"]
    reduced = reduce_words(words)
    if len(reduced) != len(words):
        return ["result words are not an antichain"]
    got = cylinders_measure(reduced)
    if got != expect_measure:
        return [f"measure {got} != {expect_measure}"]
    for container in inside:
        if not covered(reduce_words(container), reduced):
            return ["result leaves its container"]
    for other in outside:
        if cylinders_meet_measure(reduced, reduce_words(other)) != 0:
            return ["result meets a set it must avoid"]
    if equal is not None and not covered(reduced, equal):
        return ["result misses part of its generators"]
    return []


def includes_result(out, container, other) -> list[str]:
    kind, value = out
    want = covered(reduce_words(container), reduce_words(other))
    if kind != "bool" or value != want:
        return [f"includes answered {value}, expected {want}"]
    return []


def inclusion_exclusion(outputs: dict, a, b, union: int, meet: int) -> list[str]:
    """m(A ∪ B) + m(A ∩ B) = m(A) + m(B) on the results the program returned."""
    def measure(index):
        return cylinders_measure(reduce_words(outputs[index][1]))

    left = measure(union) + measure(meet)
    right = cylinders_measure(reduce_words(a)) + cylinders_measure(reduce_words(b))
    if left != right:
        return [f"inclusion-exclusion: {left} != {right}"]
    return []


def complement_law(outputs: dict, a, index: int) -> list[str]:
    got = cylinders_measure(reduce_words(outputs[index][1]))
    if got != 1 - cylinders_measure(reduce_words(a)):
        return [f"m(complement) = {got} != 1 - m(A)"]
    return []


# ------------------------------------------------------------- self-test


def perturb(out, how: str):
    """A wrong answer built from a right one."""
    if how == "shift":
        # Move the first interval up by a hair; every exact check must see it.
        lines = out.splitlines()
        record = json.loads(lines[0])
        tiny = Fraction(1, 1 << 200)
        for key in ("lo", "hi"):
            value = Fraction(record[key]) + tiny
            record[key] = f"{value.numerator}/{value.denominator}"
        return "\n".join([json.dumps(record)] + lines[1:]) + "\n"
    if how == "overflow":
        # Push the deepest interval out of the unit interval.
        lines = out.splitlines()
        record = json.loads(lines[-1])
        record["hi"] = "9/8"
        return "\n".join(lines[:-1] + [json.dumps(record)]) + "\n"
    if how == "verdict":
        record = json.loads(out)
        record["verdict"] = "converges" if record["verdict"] == "blurry" else "blurry"
        record.setdefault("delta", "1")
        return json.dumps(record) + "\n"
    if how == "extra-cylinder":
        kind, words = out
        deepest = max(words, key=len, default=())
        flipped = deepest[:-1] + (1 - deepest[-1],) if deepest else (0,)
        return kind, tuple(sorted(set(words) ^ {flipped + (0,)}))
    if how == "negate":
        kind, value = out
        return kind, not value
    raise ValueError(how)
