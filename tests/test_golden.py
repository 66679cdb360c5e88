"""Exact stdout bytes of shallow CLI calls, one case per set family.

The expected bytes live in ``cli_golden.json`` next to this file. They
were recorded once and are never regenerated to make a change pass: a
refactor that keeps behavior keeps every byte.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from cantordensity.cli import main

GOLDEN_PATH = Path(__file__).parent / "cli_golden.json"

DOCS = {
    "clopen": {"kind": "clopen", "words": ["01", "110", "0011", "1011"]},
    "dualistic": {"kind": "dualistic", "measure": "3/5"},
    "countable": {"kind": "countable-range", "values": ["1/3", "3/4", "1/5"]},
    "composed": {
        "kind": "compose",
        "complemented": True,
        "parts": [
            {"prefix": "0", "set": {"kind": "dualistic", "measure": "1/5"}},
            {"prefix": "10", "set": {"kind": "clopen", "words": ["1", "01"]}},
        ],
    },
    # One part grafted at the root: the part is the whole set.
    "composed-root": {
        "kind": "compose",
        "parts": [{"prefix": "", "set": {"kind": "dualistic", "measure": "3/5"}}],
    },
    "second": {"kind": "reduction", "which": "second"},
    "first": {
        "kind": "reduction",
        "which": "first",
        "function": {"preset": "constant", "value": "1/3"},
    },
    "third": {
        "kind": "reduction",
        "which": "third",
        "function": {"preset": "injective", "eps": "1/8"},
    },
    "offspring": {
        "kind": "offspring",
        "tree": {"nodes": ["", "0", "1", "10"], "policies": {"0": "full", "10": {"periodic": "1"}}},
        "labels": {"": "1/4", "1": "5/8", "10": "3/16"},
        "default_label": "3/8",
    },
    # Non-dyadic labels along the branch: copies flagged at 1 and 10 hang
    # measured stand-in sets instead of clopen pieces.
    "offspring-thirds": {
        "kind": "offspring",
        "tree": {"nodes": ["", "0", "1", "10"], "policies": {"0": "full", "10": {"periodic": "1"}}},
        "labels": {"": "1/4", "0": "5/8", "1": "1/3", "10": "2/7"},
        "default_label": "3/8",
    },
    # A natural-number tree read through binary streams: the stop leaf 0
    # and the fan_stop leaf 10 are alive nodes without binary children.
    "offspring-nat": {
        "kind": "offspring",
        "tree": {
            "arity": None,
            "nodes": ["", "0", "1", "10", "11"],
            "policies": {"0": "stop", "10": "fan_stop", "11": {"periodic": "01"}},
        },
        "labels": {"": "1/3", "1": "3/8", "11": "1/3"},
        "default_label": "3/8",
    },
    # A copy with a fine dyadic label: flagged at node 1, its exponent 12
    # sits above shallow budgets, so those answers stay inexact.
    "offspring-fine": {
        "kind": "offspring",
        "tree": {"nodes": ["", "0", "1", "10"], "policies": {"0": "full", "10": {"periodic": "1"}}},
        "labels": {"": "1/4", "1": "1365/4096", "10": "3/16"},
        "default_label": "3/8",
    },
    "countable-dyadic": {"kind": "countable-range", "values": ["1/3", "3/8", "1/5"]},
    # One root whose periodic policy keeps 1^299 0: stretch(1^w) falls off
    # the tree only past the depth up to which tail certificates look.
    "offspring-long-cycle": {
        "kind": "offspring",
        "tree": {"nodes": [""], "policies": {"": {"periodic": "1" * 299 + "0"}}},
        "labels": {},
        "default_label": "3/8",
    },
    # stretch(10 1^w) leaves the tree at 101, so the density dies early.
    "offspring-early-death": {
        "kind": "offspring",
        "tree": {"nodes": ["", "0", "1", "10"], "policies": {"0": "zeros", "10": {"periodic": "01"}}},
        "labels": {"1": "1/4"},
        "default_label": "5/8",
    },
    # 0110 followed by (10)^w
    "tail10": {"kind": "ev_periodic", "head": "0110", "period": "10"},
    # 0^2 1^2 0^w, the designated point of the second value
    "designated": {"kind": "ev_periodic", "head": "0011", "period": "0"},
    "inside-graft": {"kind": "ev_periodic", "head": "101", "period": "1"},
    "off-spine": {"kind": "ev_periodic", "head": "011", "period": "0"},
    # 11100 is a word of the 3/5 dualistic set's clopen chunk: from depth
    # 5 on the point sits in a full cylinder.
    "enter-chunk": {"kind": "ev_periodic", "head": "11100", "period": "10"},
    # 101 flags into the copy at node 1; (01)^w then reads the label's
    # binary digits, so the copy empties only after all twelve.
    "walk-fine": {"kind": "ev_periodic", "head": "101", "period": "01"},
    "stretch10": {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "10"}},
    "stretch1": {"kind": "stretch", "of": {"kind": "ev_periodic", "period": "1"}},
    "stretch-offspring": {"kind": "stretch", "of": {"kind": "ev_periodic", "head": "1", "period": "0"}},
    "stretch-thirds": {"kind": "stretch", "of": {"kind": "ev_periodic", "head": "10", "period": "1"}},
    "stretch-nat": {"kind": "stretch", "of": {"kind": "ev_periodic", "head": "11", "period": "01"}},
}

CASES = {
    "clopen-measure-prefix": ("measure", "--set", "@clopen", "--prefix", "0"),
    "dualistic-trace": ("trace", "--set", "@dualistic", "--branch", "@tail10", "--steps", "24"),
    "countable-classify": ("classify", "--set", "@countable", "--branch", "@designated"),
    "countable-dyadic-trace": (
        "trace", "--set", "@countable-dyadic", "--branch", "@designated", "--steps", "12",
    ),
    "compose-measure": ("measure", "--set", "@composed"),
    "compose-classify": ("classify", "--set", "@composed", "--branch", "@inside-graft"),
    "compose-root-graft-classify": ("classify", "--set", "@composed-root", "--branch", "@off-spine"),
    "second-trace": ("trace", "--set", "@second", "--branch", "@stretch10", "--steps", "22"),
    "first-classify": (
        "classify", "--set", "@first", "--branch", "@stretch1", "--max-depth", "30",
    ),
    "third-measure": ("measure", "--set", "@third", "--budget", "10"),
    "third-trace": ("trace", "--set", "@third", "--branch", "@stretch10", "--steps", "20"),
    "offspring-trace": (
        "trace", "--set", "@offspring", "--branch", "@stretch-offspring", "--steps", "16",
    ),
    "offspring-thirds-trace": (
        "trace", "--set", "@offspring-thirds", "--branch", "@stretch-thirds", "--steps", "24",
    ),
    "offspring-fine-measure": (
        "measure", "--set", "@offspring-fine", "--prefix", "1010", "--budget", "8",
    ),
    "offspring-fine-classify": ("classify", "--set", "@offspring-fine", "--branch", "@walk-fine"),
    "offspring-long-cycle-classify": (
        "classify", "--set", "@offspring-long-cycle", "--branch", "@stretch1",
    ),
    "offspring-early-death-classify": (
        "classify", "--set", "@offspring-early-death", "--branch", "@stretch-thirds",
    ),
    "offspring-nat-measure": ("measure", "--set", "@offspring-nat", "--budget", "12"),
    "offspring-nat-trace": (
        "trace", "--set", "@offspring-nat", "--branch", "@stretch-nat", "--steps", "24",
    ),
    # Deep exact traces whose localizations settle at 0 or 1 and stay there.
    "compose-deep-trace": (
        "trace", "--set", "@composed", "--branch", "@inside-graft", "--steps", "160",
    ),
    "dualistic-chunk-trace": (
        "trace", "--set", "@dualistic", "--branch", "@enter-chunk", "--steps", "200",
    ),
    "countable-deep-trace": (
        "trace", "--set", "@countable", "--branch", "@designated", "--steps", "160",
    ),
}


def run_case(name, folder):
    argv = []
    for arg in CASES[name]:
        if arg.startswith("@"):
            path = folder / f"{arg[1:]}.json"
            path.write_text(json.dumps(DOCS[arg[1:]]), encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    return CliRunner().invoke(main, argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name, tmp_path):
    result = run_case(name, tmp_path)
    assert result.exit_code == 0, result.output
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert result.stdout == golden[name]
