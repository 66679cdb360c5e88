"""Seeded differential of the command line between two source trees.

    python tests/cli_differential.py OLD_ROOT NEW_ROOT

Each root is a checkout holding ``src/cantordensity``. The script draws
``CALLS`` seeded ``measure``, ``trace`` and ``classify`` invocations
on the three reductions (every preset, full and random trees), explicit
offspring sets (dyadic and non-dyadic labels), countable-range sets,
dualistic sets on both sides of 1/3, clopen sets, and ``compose``
(complemented or not) and ``complement`` documents over all of these.
A third of the clopen documents carry up to 60 words of up to 24
letters, with duplicates, covered extensions and sibling families,
some as integer arrays and some with a malformed entry. Traces and
classifications of the exact kinds mostly run along eventually
periodic points that enter a graft: a compose prefix, a 0^n 1^n site
or a clopen word. After them come ``verify SUITE --seed S`` for the
four suites at seeds 0, 1 and 7, then ``LONG_TRACES`` traces of 4 097
to 20 000 steps on sets that settle early along their points (clopen
sets, countable-range sets at their designated points, and compose
documents over both), so that runs of equal bounds cross the
command's chunks of ``jsonio.TRACE_CHUNK_LINES`` = 4 096 lines. Last
come fixed cases: ``compose`` documents whose prefixes are comparable,
in several orders, so that the exit-1 message is compared, then
countable-range sets of 12 to 20 values and ``compose`` documents over
them, complemented and not, traced and classified along designated
points and along points that enter a graft's piece, and last
``classify`` and ``trace`` along plain stretched images stretch(w) c^w
on explicit offspring documents and the three reductions over pruned
and full trees, some leaving the tree inside the certificate walk's
guard and some past it, and after them 24 deep ``classify`` calls at
--max-depth 400 to 2 000: full-tree offspring documents and the three
reductions along 1^w, (10)^w and stretched points, whose cross-checks
walk up to 125 250 letters to their start, and clopen and
countable-range sets whose certificates start inside a long run of
their point. The script writes the documents to a
temporary folder and runs every call once per root, in-process in one
child interpreter per root. It exits 0 when
each call prints the same stdout and stderr and ends with the same exit
code under both roots, and 1 naming the calls that differ.

A child run (``--run ROOT CASES``) prints one JSON line per call.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from random import Random

SEED = 17
CALLS = 600
LONG_TRACES = 12
VERIFY_SUITES = ("branch-lemma", "dualistic-measure", "clopen-laws", "codec")
VERIFY_SEEDS = (0, 1, 7)


def _fraction(rng: Random) -> str:
    """A rational in (0;1), dyadic or not."""
    q = rng.choice((2, 3, 4, 5, 7, 8, 12, 16, 64, 100))
    return f"{rng.randrange(1, q)}/{q}"


def _word(rng: Random, length: int) -> str:
    return "".join(rng.choice("01") for _ in range(length))


def _tree(rng: Random) -> dict:
    nodes, frontier = [""], [""]
    for _ in range(rng.randrange(1, 4)):
        grown = [node + letter for node in frontier for letter in "01" if rng.random() < 0.7]
        nodes += grown
        frontier = grown
    leaves = [node for node in nodes if node + "0" not in nodes and node + "1" not in nodes]
    endings = ["zeros", "full", {"periodic": "1"}, {"periodic": "01"}, {"periodic": "110"}]
    return {"nodes": nodes, "policies": {leaf: rng.choice(endings) for leaf in leaves}}


def _preset(rng: Random) -> dict:
    kind = rng.randrange(3)
    if kind == 0:
        return {"preset": "constant", "value": _fraction(rng)}
    if kind == 1:
        q = rng.choice((4, 8, 10, 16, 30))
        a, b = sorted(rng.sample(range(1, q), 2))
        return {"preset": "interval", "a": f"{a}/{q}", "b": f"{b}/{q}"}
    q = rng.choice((5, 8, 16, 20, 50))
    return {"preset": "injective", "eps": f"{rng.randrange(1, (q + 1) // 2)}/{q}"}


def _measure(rng: Random, low: bool) -> str:
    """A rational in (0;1/3] when low, in (1/3;1) otherwise."""
    q = rng.choice((3, 7, 12, 50, 99, 100, 999))
    p = rng.randrange(1, q // 3 + 1) if low else rng.randrange(q // 3 + 1, q)
    return f"{p}/{q}"


def _clopen_words(rng: Random) -> list:
    """A few short words; or, one time in three, up to 60 words of up to
    24 letters with duplicates, covered extensions and full sibling
    families, given as integer arrays one time in five and holding one
    malformed entry one time in ten."""
    if rng.randrange(3):
        return [_word(rng, rng.randrange(6)) for _ in range(rng.randrange(1, 4))]
    words = [_word(rng, rng.randrange(1, 25)) for _ in range(rng.randrange(1, 30))]
    while len(words) < 60 and rng.random() < 0.8:
        shape = rng.randrange(3)
        if shape == 0:
            words.append(rng.choice(words))
        elif shape == 1:
            words.append((rng.choice(words) + _word(rng, rng.randrange(1, 6)))[:24])
        else:
            stem, depth = _word(rng, rng.randrange(21)), rng.randrange(1, 4)
            words += [stem + format(k, "b").zfill(depth) for k in range(1 << depth)]
    words = words[:60]
    rng.shuffle(words)
    if rng.randrange(5) == 0:
        words = [[int(letter) for letter in word] for word in words]
    if rng.randrange(10) == 0:
        bad = rng.choice((None, True, 3, "2", "0a", [0, 2], [True], [-1], [[0]]))
        words.insert(rng.randrange(len(words) + 1), bad)
    return words


def random_set(rng: Random, nesting: int = 0) -> dict:
    kind = rng.randrange(9 if nesting < 2 else 6)
    if kind < 3:
        doc = {"kind": "reduction", "which": ("first", "second", "third")[kind]}
        if kind != 1:
            doc["function"] = _preset(rng)
        if rng.random() < 0.4:
            doc["tree"] = _tree(rng)
        return doc
    if kind == 3:
        tree = _tree(rng)
        labels = {node: _fraction(rng) for node in tree["nodes"] if rng.random() < 0.5}
        return {"kind": "offspring", "tree": tree, "labels": labels,
                "default_label": _fraction(rng)}
    if kind == 4:
        values = list(dict.fromkeys(_fraction(rng) for _ in range(rng.randrange(1, 5))))
        return {"kind": "countable-range", "values": values}
    if kind == 5:
        return {"kind": "dualistic", "measure": _measure(rng, rng.random() < 0.5)}
    if kind == 6:
        return {"kind": "clopen", "words": _clopen_words(rng)}
    if kind == 7:
        return {"kind": "complement", "of": random_set(rng, nesting + 1)}
    prefixes = rng.choice((["0", "10", "11"], ["00", "01", "1"], [""], ["1"], ["000", "001", "01"]))
    chosen = rng.sample(prefixes, rng.randrange(1, len(prefixes) + 1))
    return {"kind": "compose", "complemented": rng.random() < 0.5,
            "parts": [{"prefix": prefix, "set": random_set(rng, nesting + 1)} for prefix in chosen]}


def _entering_head(rng: Random, doc: dict) -> str:
    """A word that enters a graft of the set, if it has any."""
    if doc["kind"] == "compose":
        part = rng.choice(doc["parts"])
        return part["prefix"] + _entering_head(rng, part["set"])
    if doc["kind"] == "complement":
        return _entering_head(rng, doc["of"])
    if doc["kind"] == "clopen":
        word = rng.choice(doc["words"])
        return "".join(map(str, word)) if isinstance(word, (str, list)) else ""
    if doc["kind"] in ("dualistic", "countable-range"):
        n = rng.randrange(1, 5)
        return "0" * n + "1" * n
    return ""


def random_branch(rng: Random, doc: dict) -> dict:
    if doc["kind"] not in ("reduction", "offspring") and rng.random() < 0.7:
        return {"kind": "ev_periodic", "head": _entering_head(rng, doc) + _word(rng, rng.randrange(3)),
                "period": _word(rng, rng.randrange(1, 4))}
    kind = rng.randrange(4)
    periodic = {"kind": "ev_periodic", "head": _word(rng, rng.randrange(4)),
                "period": _word(rng, rng.randrange(1, 4))}
    if kind == 0:
        return periodic
    if kind == 1:
        return {"kind": "stretch", "of": periodic}
    if kind == 2:
        other = {"kind": "ev_periodic", "period": _word(rng, rng.randrange(1, 3))}
        return {"kind": "interleave", "x": periodic, "y": other}
    return {"kind": "baire", "head": [rng.randrange(3) for _ in range(rng.randrange(3))],
            "period": [rng.randrange(3) for _ in range(rng.randrange(1, 3))]}


def draw_calls(seed: int, calls: int, folder: Path) -> list[list[str]]:
    """The argument lists of the seeded calls, documents written to folder."""
    rng = Random(seed)
    out = []
    for index in range(calls):
        set_path = folder / f"set{index}.json"
        doc = random_set(rng)
        set_path.write_text(json.dumps(doc), encoding="utf-8")
        verb = ("measure", "trace", "classify")[index % 3]
        if verb == "measure":
            out.append(["measure", "--set", str(set_path), "--prefix", _word(rng, rng.randrange(6)),
                        "--budget", str(rng.randrange(41))])
            continue
        branch_path = folder / f"branch{index}.json"
        branch_path.write_text(json.dumps(random_branch(rng, doc)), encoding="utf-8")
        if verb == "trace":
            out.append(["trace", "--set", str(set_path), "--branch", str(branch_path),
                        "--steps", str(rng.randrange(1, 61)), "--budget", str(rng.randrange(25))])
        else:
            out.append(["classify", "--set", str(set_path), "--branch", str(branch_path),
                        "--eps", rng.choice(("1/16", "1/64", "1/256")),
                        "--max-depth", str(rng.randrange(20, 161))])
    for suite in VERIFY_SUITES:
        out += [["verify", suite, "--seed", str(suite_seed)] for suite_seed in VERIFY_SEEDS]
    return (out + _long_traces(Random(seed + 1), folder) + _fixed_cases(Random(seed + 2), folder)
            + _stretched_image_cases(folder) + _deep_walk_cases(folder))


def _settling_set(rng: Random, nesting: int = 0) -> tuple[dict, dict]:
    """A set and an eventually periodic point along which it settles: a
    clopen set along any point, a countable-range set along a designated
    point 0^n 1^n 0^w, or a compose document entered through a prefix."""
    kind = rng.randrange(3 if nesting == 0 else 2)
    if kind == 0:
        words = [_word(rng, rng.randrange(8)) for _ in range(rng.randrange(1, 5))]
        point = {"head": _word(rng, rng.randrange(6)), "period": _word(rng, rng.randrange(1, 4))}
        return {"kind": "clopen", "words": words}, point
    if kind == 1:
        values = list(dict.fromkeys(_fraction(rng) for _ in range(rng.randrange(1, 5))))
        n = rng.randrange(1, len(values) + 1)
        return {"kind": "countable-range", "values": values}, {"head": "0" * n + "1" * n, "period": "0"}
    prefixes = rng.choice((["0", "10", "11"], ["00", "01", "1"], ["1"]))
    parts = [(prefix, *_settling_set(rng, nesting + 1)) for prefix in prefixes]
    prefix, _, point = rng.choice(parts)
    doc = {"kind": "compose", "complemented": rng.random() < 0.5,
           "parts": [{"prefix": p, "set": part} for p, part, _ in parts]}
    return doc, {"head": prefix + point["head"], "period": point["period"]}


def _long_traces(rng: Random, folder: Path) -> list[list[str]]:
    """``LONG_TRACES`` traces of 4 097 to 20 000 steps along settling points."""
    out = []
    for index in range(LONG_TRACES):
        doc, point = _settling_set(rng)
        set_path, branch_path = folder / f"long-set{index}.json", folder / f"long-branch{index}.json"
        set_path.write_text(json.dumps(doc), encoding="utf-8")
        branch_path.write_text(json.dumps({"kind": "ev_periodic", **point}), encoding="utf-8")
        out.append(["trace", "--set", str(set_path), "--branch", str(branch_path),
                    "--steps", str(rng.randrange(4097, 20001)), "--budget", str(rng.randrange(25))])
    return out


# Prefix orders of compose documents whose prefixes are comparable: the
# exit-1 message must name the same pair whatever order the check walks in.
COMPARABLE_PREFIXES = (["1", "00", "0"], ["01", "1", "0"], ["0", "01"], ["01", "0"],
                       ["00", "1", "0"], ["1", "0", "0"], ["", "1"], ["10", "", "0"])


def _many_values(rng: Random, count: int) -> list[str]:
    """``count`` distinct values in (0;1), dyadic and not, on both sides of 1/3."""
    values: dict[Fraction, str] = {}
    while len(values) < count:
        q = rng.choice((4, 8, 16, 32, 7, 9, 13, 50, 99))
        p = rng.randrange(1, q)
        values.setdefault(Fraction(p, q), f"{p}/{q}")
    return list(values.values())


def _fixed_cases(rng: Random, folder: Path) -> list[list[str]]:
    """Compose documents with comparable prefixes in several orders, then
    countable-range sets of 12 to 20 values and compose documents over
    them (complemented and not), traced and classified along designated
    points 0^n 1^n 0^w and along points that enter a graft's piece."""
    out = []

    def document(name: str, doc: dict) -> str:
        path = folder / f"fixed-{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    for index, prefixes in enumerate(COMPARABLE_PREFIXES):
        parts = [{"prefix": prefix, "set": {"kind": "clopen", "words": ["1"]}} for prefix in prefixes]
        out.append(["measure", "--set", document(f"comparable{index}", {"kind": "compose", "parts": parts})])
    sets = []
    for index, count in enumerate((12, 16, 20)):
        doc = {"kind": "countable-range", "values": _many_values(rng, count)}
        sets.append((doc, "", count))
        sets.append(({"kind": "compose", "complemented": index % 2 == 1,
                      "parts": [{"prefix": "0", "set": doc},
                                {"prefix": "10", "set": {"kind": "dualistic", "measure": "2/7"}},
                                {"prefix": "11", "set": {"kind": "clopen", "words": ["01"]}}]},
                     "0", count))
    for index, (doc, prefix, count) in enumerate(sets):
        set_path = document(f"set{index}", doc)
        for n in (1, rng.randrange(2, count), count):
            site = prefix + "0" * n + "1" * n
            for head, period in ((site, "0"), (site + "1" + _word(rng, rng.randrange(4)), _word(rng, 2) + "1")):
                branch = document(f"branch{index}-{n}-{len(head)}", {"kind": "ev_periodic", "head": head,
                                                                      "period": period})
                out.append(["trace", "--set", set_path, "--branch", branch, "--steps", str(4 * n + 40)])
                out.append(["classify", "--set", set_path, "--branch", branch, "--max-depth", "120"])
        out.append(["measure", "--set", set_path, "--prefix", prefix + "0" * rng.randrange(count)])
    return out


# Trees where some stretched images leave early: "0" stays on zeros, "10"
# repeats 1, and the last tree keeps only 1 1 (1 1 0)^w below its root.
PRUNED_TREES = ({"nodes": ["", "0", "1", "10", "11"],
                 "policies": {"0": "zeros", "10": {"periodic": "1"}, "11": "full"}},
                {"nodes": ["", "1", "11"], "policies": {"11": {"periodic": "110"}}})
FULL_TREE = {"nodes": [""], "policies": {"": "full"}}
STRETCHED_SETS = (
    {"kind": "offspring", "tree": PRUNED_TREES[0], "labels": {"1": "1/3", "11": "3/4"},
     "default_label": "5/8"},
    {"kind": "offspring", "tree": PRUNED_TREES[1], "labels": {"11": "2/7"}, "default_label": "1/4"},
    {"kind": "offspring", "tree": FULL_TREE, "labels": {"0": "1/4", "01": "2/7"}, "default_label": "1/3"},
    {"kind": "reduction", "which": "second", "tree": PRUNED_TREES[0]},
    {"kind": "reduction", "which": "first", "function": {"preset": "constant", "value": "1/3"},
     "tree": PRUNED_TREES[1]},
    {"kind": "reduction", "which": "third", "function": {"preset": "injective", "eps": "1/8"},
     "tree": PRUNED_TREES[0]},
)
# (base head, its constant letter, classify's --max-depth): the guard of the
# walk is triangular(max(2, max_depth // 4)) letters.
STRETCHED_POINTS = (("", "1", 24), ("1", "0", 60), ("110", "1", 120), ("0101", "0", 20),
                    ("11", "1", 200), ("1011", "0", 40), ("", "1", 12), ("10", "0", 8))


def _stretched_image_cases(folder: Path) -> list[list[str]]:
    """``classify`` and ``trace`` along plain points stretch(w) c^w, on
    explicit offspring documents and the three reductions."""
    out = []
    for index, doc in enumerate(STRETCHED_SETS):
        set_path = folder / f"stretched-set{index}.json"
        set_path.write_text(json.dumps(doc), encoding="utf-8")
        for head, letter, max_depth in STRETCHED_POINTS:
            branch_path = folder / f"stretched-branch{index}-{head}-{letter}.json"
            stretched = "".join(bit * (i + 1) for i, bit in enumerate(head))
            branch_path.write_text(json.dumps({"kind": "ev_periodic", "head": stretched, "period": letter}),
                                   encoding="utf-8")
            out.append(["classify", "--set", str(set_path), "--branch", str(branch_path),
                        "--max-depth", str(max_depth)])
            out.append(["trace", "--set", str(set_path), "--branch", str(branch_path), "--steps", "60"])
    return out


# Deep walks: classify's cross-check walks from the root to its
# certificate's start, triangular(max_depth // 4) letters (125 250 at
# --max-depth 2000) on an offspring set along a stretched image.
DEEP_DEPTHS = ("400", "1000", "2000")
DEEP_SETS = (
    {"kind": "offspring", "tree": FULL_TREE, "default_label": "1/3"},
    STRETCHED_SETS[2],
    {"kind": "reduction", "which": "first", "function": {"preset": "constant", "value": "1/3"}},
    {"kind": "reduction", "which": "second"},
    {"kind": "reduction", "which": "third", "function": {"preset": "injective", "eps": "1/8"}},
)
DEEP_POINTS = ({"kind": "ev_periodic", "period": "1"}, {"kind": "ev_periodic", "period": "10"},
               {"kind": "stretch", "of": {"kind": "ev_periodic", "head": "10", "period": "1"}},
               {"kind": "stretch", "of": {"kind": "ev_periodic", "head": "0110", "period": "0"}})
# Exact sets along points where the certificate's start lies inside a long
# run: a clopen set whose deepest word has 251 letters, and countable-range
# sets whose certificates start at depths 6 to 10, inside runs of 300 or
# more letters, or of a constant tail.
CLOPEN_DEEP = {"kind": "clopen", "words": ["1" * 250 + "0", "0" + "1" * 40]}
EXACT_DEEP_CASES = (
    (CLOPEN_DEEP, {"kind": "ev_periodic", "period": "1"}),
    (CLOPEN_DEEP, {"kind": "ev_periodic", "head": "1" * 300, "period": "0"}),
    (CLOPEN_DEEP, {"kind": "ev_periodic", "head": "0" * 300 + "1", "period": "0"}),
    (CLOPEN_DEEP, {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "10"}}),
    (CLOPEN_DEEP, {"kind": "stretch", "of": {"kind": "ev_periodic", "head": "10", "period": "0"}}),
    ({"kind": "countable-range", "values": ["1/3", "2/5", "3/7"]},
     {"kind": "ev_periodic", "head": "1" * 300, "period": "0"}),
    ({"kind": "countable-range", "values": ["1/3", "2/5", "3/7"]},
     {"kind": "ev_periodic", "head": "0011" + "1" * 300, "period": "0"}),
    ({"kind": "countable-range", "values": ["1/4", "2/7", "5/8", "1/2", "3/5"]},
     {"kind": "ev_periodic", "period": "0"}),
    ({"kind": "countable-range", "values": ["1/4", "2/7", "5/8", "1/2", "3/5"]},
     {"kind": "ev_periodic", "period": "1"}),
)


def _deep_walk_cases(folder: Path) -> list[list[str]]:
    """``classify`` at --max-depth 400, 1 000 or 2 000: the full-tree
    offspring documents and the three reductions along 1^w, (10)^w and a
    stretched point, then clopen and countable-range sets along points
    whose certificate starts inside a long run."""
    cases = [(doc, point) for index, doc in enumerate(DEEP_SETS)
             for point in (*DEEP_POINTS[:2], DEEP_POINTS[2 + index % 2])]
    out = []
    for index, (doc, point) in enumerate(cases + list(EXACT_DEEP_CASES)):
        set_path, branch_path = folder / f"deep-set{index}.json", folder / f"deep-branch{index}.json"
        set_path.write_text(json.dumps(doc), encoding="utf-8")
        branch_path.write_text(json.dumps(point), encoding="utf-8")
        out.append(["classify", "--set", str(set_path), "--branch", str(branch_path),
                    "--max-depth", DEEP_DEPTHS[(index + index // 3) % 3]])
    return out


def run_calls(root: Path, calls: list[list[str]]) -> None:
    """Run each call in-process against root's sources; one JSON line each."""
    sys.path.insert(0, str(root / "src"))
    from cantordensity.cli import main

    for argv in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            # A click-era main exits even on success; the table-driven one returns.
            try:
                main(argv)
                code = 0
            except SystemExit as done:
                code = done.code or 0
        print(json.dumps({"out": stdout.getvalue(), "err": stderr.getvalue(), "code": code}))


def _results(root: Path, cases: Path) -> list[dict]:
    done = subprocess.run([sys.executable, __file__, "--run", str(root), str(cases)],
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs=2, type=Path)
    parser.add_argument("--run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run:
        root, cases = args.roots
        run_calls(root, json.loads(cases.read_text(encoding="utf-8")))
        return 0
    with tempfile.TemporaryDirectory() as folder:
        calls = draw_calls(SEED, CALLS, Path(folder))
        cases = Path(folder) / "calls.json"
        cases.write_text(json.dumps(calls), encoding="utf-8")
        old, new = (_results(root.resolve(), cases) for root in args.roots)
    differing = [index for index, (a, b) in enumerate(zip(old, new)) if a != b]
    if len(old) != len(calls) or len(new) != len(calls):
        differing.append(min(len(old), len(new)))
    codes = [result["code"] for result in new]
    print(f"{len(calls)} calls, exit codes {sorted(set(codes))} "
          f"({codes.count(0)} answered), {len(differing)} differ")
    for index in differing[:5]:
        print(f"call {index}: {' '.join(calls[index])}")
        for side, results in (("old", old), ("new", new)):
            if index < len(results):
                print(f"  {side}: {json.dumps(results[index])[:400]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
