"""Seeded differential of the command line between two source trees.

    python tests/cli_differential.py OLD_ROOT NEW_ROOT

Each root is a checkout holding ``src/cantordensity``. The script draws
``CALLS`` seeded ``measure``, ``trace`` and ``classify`` invocations
on the three reductions (every preset, full and random trees), explicit
offspring sets (dyadic and non-dyadic labels) and countable-range sets,
writes their documents to a temporary folder and runs every call once
per root, in-process in one child interpreter per root. It exits 0 when
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
from pathlib import Path
from random import Random

SEED = 17
CALLS = 600


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


def _set(rng: Random) -> dict:
    kind = rng.randrange(5)
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
    values = list(dict.fromkeys(_fraction(rng) for _ in range(rng.randrange(1, 5))))
    return {"kind": "countable-range", "values": values}


def _branch(rng: Random) -> dict:
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
        set_path.write_text(json.dumps(_set(rng)), encoding="utf-8")
        verb = ("measure", "trace", "classify")[index % 3]
        if verb == "measure":
            out.append(["measure", "--set", str(set_path), "--prefix", _word(rng, rng.randrange(6)),
                        "--budget", str(rng.randrange(41))])
            continue
        branch_path = folder / f"branch{index}.json"
        branch_path.write_text(json.dumps(_branch(rng)), encoding="utf-8")
        if verb == "trace":
            out.append(["trace", "--set", str(set_path), "--branch", str(branch_path),
                        "--steps", str(rng.randrange(1, 61)), "--budget", str(rng.randrange(25))])
        else:
            out.append(["classify", "--set", str(set_path), "--branch", str(branch_path),
                        "--eps", rng.choice(("1/16", "1/64", "1/256")),
                        "--max-depth", str(rng.randrange(20, 161))])
    return out


def run_calls(root: Path, calls: list[list[str]]) -> None:
    """Run each call in-process against root's sources; one JSON line each."""
    sys.path.insert(0, str(root / "src"))
    from cantordensity.cli import main

    for argv in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(argv, standalone_mode=False)
                code = 0
            except SystemExit as done:
                code = done.code
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
