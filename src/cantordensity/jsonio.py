"""JSON documents in, oracles and records out.

Three document families, all small JSON objects:

* trees       {"nodes": ["", "0", "01"], "policies": {"01": "zeros"}}
* set specs   discriminated by "kind": clopen, dualistic,
              countable-range, offspring, reduction, compose,
              complement
* branches    discriminated by "kind": ev_periodic, stretch,
              interleave, baire

A malformed document raises SpecError: the document itself is at
fault. A well-formed document whose values break a construction's
premises raises whatever the construction raises (a ValueError with
the module's own message); the command line maps the two onto
different exit codes.

Conventions: rationals are reduced "p/q" strings, parsed by
``fraction_from_spec``; words are digit strings ("" is the root), with
integer arrays also accepted for natural-number words (a clopen array of
"01" strings is checked in one pass over its joined text, any other is
read word by word, so the first bad word names the error, and written
back as "01" strings: a clopen document is kept as the canonical
antichain of its strings, with no set built); every record
this module emits formats rationals the same way, and ``trace_lines``
formats a run of one interval object once and gives its lines as a few texts.

Every command-line call is one process that reads one set document, so
each construction module is imported where the kind of document that
needs it is read, not when this module loads: a clopen document loads
no offspring, reduction or dualistic code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

from .branches import Branch, StretchedBranch, interleave_branches
from .dyadics import RatInterval, format_fraction
from .oracles import ClopenOracle, ComplementOracle, GraftedUnionOracle, MeasureOracle, Verdict
from .words import DIGIT_VALUES, Word, runs_to_bits

if TYPE_CHECKING:
    from .trees import ExplicitTree, Policy


TRACE_CHUNK_LINES = 4096


class SpecError(ValueError):
    """The JSON document itself is malformed."""


def _require(doc: dict, key: str):
    if key not in doc:
        raise SpecError(f"missing field {key!r}")
    return doc[key]


def _kind_of(doc, allowed: tuple[str, ...], key: str = "kind") -> str:
    if not isinstance(doc, dict):
        raise SpecError(f"expected an object carrying {key!r}, got {doc!r}")
    kind = doc.get(key)
    if kind not in allowed:
        raise SpecError(f"unknown {key} {kind!r}; expected one of: {', '.join(allowed)}")
    return kind


def fraction_from_spec(value) -> Fraction:
    if not isinstance(value, str):
        raise SpecError(f'expected a "p/q" string, got {value!r}')
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"not a rational: {value!r}") from None


_NOT_BINARY = str.maketrans("", "", "01")  # deletes 0s and 1s


def word_from_spec(value, what: str = "word") -> Word:
    if isinstance(value, str):
        if not value.isascii() or not (value.isdigit() or value == ""):
            raise SpecError(f"{what} must be a digit string, got {value!r}")
        return tuple(value.encode().translate(DIGIT_VALUES))
    if isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in value
    ):
        return tuple(value)
    raise SpecError(f"{what} must be a digit string or an array of non-negative integers")


def binary_word_from_spec(value, what: str = "word") -> Word:
    word = word_from_spec(value, what)
    if max(word, default=0) > 1:
        raise SpecError(f"{what} must be binary, got {value!r}")
    return word


def word_to_spec(word: Word) -> str:
    if any(letter > 9 for letter in word):
        raise SpecError(f"letters above 9 do not fit a digit string: {word}")
    return "".join(str(letter) for letter in word)


# ---------------------------------------------------------------- trees

_POLICY_NAMES = ("zeros", "full", "stop", "fan_stop")


def _policy_from_spec(value) -> Policy:
    if isinstance(value, str):
        if value not in _POLICY_NAMES:
            raise SpecError(f"unknown policy {value!r}; expected one of: {', '.join(_POLICY_NAMES)}")
        return value
    if isinstance(value, dict) and set(value) == {"periodic"}:
        import cantordensity.trees
        return cantordensity.trees.periodic(word_from_spec(value["periodic"], "periodic cycle"))
    raise SpecError(f'policy must be a name or {{"periodic": word}}, got {value!r}')


def tree_from_spec(doc) -> ExplicitTree:
    import cantordensity.trees
    if not isinstance(doc, dict):
        raise SpecError(f"tree spec must be an object, got {doc!r}")
    raw_nodes = _require(doc, "nodes")
    if not isinstance(raw_nodes, list):
        raise SpecError('"nodes" must be an array of words')
    nodes = [word_from_spec(n, "tree node") for n in raw_nodes]
    raw_policies = doc.get("policies", {})
    if not isinstance(raw_policies, dict):
        raise SpecError('"policies" must be an object keyed by words')
    try:
        policies = {
            word_from_spec(key, "policy node"): _policy_from_spec(value)
            for key, value in raw_policies.items()
        }
        arity = doc.get("arity", 2)
        if arity is not None and (type(arity) is not int or arity < 2):  # bool is not int
            raise SpecError(f'"arity" must be null or an integer >= 2, got {arity!r}')
        return cantordensity.trees.ExplicitTree(nodes, policies, arity=arity)
    except ValueError as err:
        # Structural defects of the node/policy table, an empty periodic
        # cycle among them, are the document's fault, same as a syntax error.
        raise SpecError(str(err)) from None


def tree_to_spec(tree: ExplicitTree) -> dict:
    by_depth = sorted(tree.nodes, key=lambda w: (len(w), w))
    policies = {}
    for node in sorted(tree.policies, key=lambda w: (len(w), w)):
        policy = tree.policies[node]
        if isinstance(policy, tuple):
            policies[word_to_spec(node)] = {"periodic": word_to_spec(policy[1])}
        else:
            policies[word_to_spec(node)] = policy
    doc = {"nodes": [word_to_spec(w) for w in by_depth], "policies": policies}
    if tree.arity != 2:
        doc["arity"] = tree.arity
    return doc


# ------------------------------------------------------------- branches

_BRANCH_KINDS = ("ev_periodic", "stretch", "interleave", "baire")


def branch_from_spec(doc) -> Branch | StretchedBranch:
    kind = _kind_of(doc, _BRANCH_KINDS)
    if kind in ("ev_periodic", "baire"):
        read = binary_word_from_spec if kind == "ev_periodic" else word_from_spec
        head = read(doc.get("head", ""), "head")
        period = read(_require(doc, "period"), "period")
        if not period:
            raise SpecError("period must be non-empty")
        if kind == "baire":
            head, period = runs_to_bits(head), runs_to_bits(period)
        return Branch(head, period)
    if kind == "stretch":
        inner = branch_from_spec(_require(doc, "of"))
        if isinstance(inner, StretchedBranch):
            raise ValueError("a stretched stream cannot be stretched again")
        return StretchedBranch(inner)
    x = branch_from_spec(_require(doc, "x"))
    y = branch_from_spec(_require(doc, "y"))
    if isinstance(x, StretchedBranch) or isinstance(y, StretchedBranch):
        raise ValueError("stretched streams cannot be interleaved")
    return interleave_branches(x, y)


# ------------------------------------------------------------ set specs

_SET_KINDS = (
    "clopen",
    "dualistic",
    "countable-range",
    "offspring",
    "reduction",
    "compose",
    "complement",
)

_PRESET_KINDS = ("constant", "interval", "injective")


def presentation_from_spec(doc):
    import cantordensity.approx
    preset = _kind_of(doc, _PRESET_KINDS, key="preset")
    if preset == "constant":
        return cantordensity.approx.ConstantPresentation(fraction_from_spec(_require(doc, "value")))
    if preset == "interval":
        return cantordensity.approx.AffineImagePresentation(
            fraction_from_spec(_require(doc, "a")),
            fraction_from_spec(_require(doc, "b")),
        )
    return cantordensity.approx.InjectivePresentation(fraction_from_spec(_require(doc, "eps")))


def oracle_from_spec(doc) -> MeasureOracle:
    kind = _kind_of(doc, _SET_KINDS)
    if kind == "clopen":
        import cantordensity.clopen
        raw = _require(doc, "words")
        if not isinstance(raw, list):
            raise SpecError('"words" must be an array')
        try:
            binary = not "".join(raw).translate(_NOT_BINARY)
        except TypeError:  # an entry that is not a string
            binary = False
        if not binary:
            raw = ["".join(map(str, binary_word_from_spec(w, "clopen word"))) for w in raw]
        return ClopenOracle(cantordensity.clopen.canonical_antichain(raw))
    if kind == "dualistic":
        import cantordensity.dualistic
        measure = fraction_from_spec(_require(doc, "measure"))
        return cantordensity.dualistic.dualistic_of_measure(measure).oracle
    if kind == "countable-range":
        import cantordensity.dualistic
        raw = _require(doc, "values")
        if not isinstance(raw, list):
            raise SpecError('"values" must be an array')
        return cantordensity.dualistic.solid_countable_range([fraction_from_spec(v) for v in raw]).oracle
    if kind == "offspring":
        import cantordensity.offspring
        tree = tree_from_spec(_require(doc, "tree"))
        raw_labels = doc.get("labels", {})
        if not isinstance(raw_labels, dict):
            raise SpecError('"labels" must be an object keyed by words')
        labels = cantordensity.offspring.ExplicitLabels({
            word_from_spec(key, "label node"): fraction_from_spec(value)
            for key, value in raw_labels.items()
        }, fraction_from_spec(doc.get("default_label", "1/2")))
        # A document's labels lie strictly between 0 and 1.
        for node, value in labels.mapping.items():
            if not 0 < value < 1:
                raise ValueError(f"label at {node} must lie in (0;1): {value}")
        if not 0 < labels.default < 1:
            raise ValueError(f"default label must lie in (0;1): {labels.default}")
        return cantordensity.offspring.OffspringOracle(tree, labels)
    if kind == "reduction":
        import cantordensity.reductions
        import cantordensity.trees
        which = _kind_of(doc, ("first", "second", "third"), key="which")
        tree = (tree_from_spec(doc["tree"]) if "tree" in doc
                else cantordensity.trees.ExplicitTree.full_binary())
        if which == "second":
            return cantordensity.reductions.second_reduction(tree)
        presentation = presentation_from_spec(_require(doc, "function"))
        if which == "first":
            return cantordensity.reductions.first_reduction(presentation, tree)
        return cantordensity.reductions.third_reduction(presentation, tree)
    if kind == "compose":
        raw = _require(doc, "parts")
        if not isinstance(raw, list) or not raw:
            raise SpecError('"parts" must be a non-empty array')
        parts = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise SpecError(f'each part is {{"prefix": word, "set": spec}}, got {entry!r}')
            prefix = binary_word_from_spec(_require(entry, "prefix"), "part prefix")
            parts.append((prefix, oracle_from_spec(_require(entry, "set"))))
        complemented = doc.get("complemented", False)
        if not isinstance(complemented, bool):
            raise SpecError('"complemented" must be a boolean')
        grafted = GraftedUnionOracle(parts)
        return ComplementOracle(grafted) if complemented else grafted
    inner = oracle_from_spec(_require(doc, "of"))
    return ComplementOracle(inner)


# -------------------------------------------------------- output records


def interval_record(interval: RatInterval) -> dict:
    return {"lo": format_fraction(interval.lo), "hi": format_fraction(interval.hi)}


def trace_lines(runs: Iterable[tuple[RatInterval, int]]) -> Iterator[str]:
    """The JSON text of each record {"n", "lo", "hi"}, n from 0, as
    ``json.dumps`` writes it (formatted rationals hold only digits, "-"
    and "/", which JSON strings carry unescaped), one line per depth.

    Takes (bounds, count) runs and formats one body per run. A run's
    lines come as texts joined by newlines, each of at most
    ``TRACE_CHUNK_LINES`` lines, so no text grows with the run.
    """
    n = 0
    last = glue = None
    for interval, count in runs:
        if interval is not last:
            last = interval
            glue = f', "lo": "{format_fraction(interval.lo)}", "hi": "{format_fraction(interval.hi)}"}}'
        if count == 1:
            yield f'{{"n": {n}{glue}'
        else:
            for first in range(n, n + count, TRACE_CHUNK_LINES):
                numbers = map(str, range(first, min(first + TRACE_CHUNK_LINES, n + count)))
                yield '{"n": ' + (glue + '\n{"n": ').join(numbers) + glue
        n += count


def verdict_record(verdict: Verdict) -> dict:
    record: dict = {"verdict": verdict.kind}
    if verdict.interval is not None:
        record["lo"] = format_fraction(verdict.interval.lo)
        record["hi"] = format_fraction(verdict.interval.hi)
    if verdict.delta is not None:
        record["delta"] = format_fraction(verdict.delta)
    record["depth"] = verdict.depth
    if verdict.detail:
        record["detail"] = verdict.detail
    return record
