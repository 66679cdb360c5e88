"""Random documents through the CLI verbs: every call answers or fails closed.

Set specs of all seven kinds (nested compose and complement, malformed
fields, out-of-range fractions) and branches of all four kinds (nested
stretch and interleave) go through ``measure``, ``trace`` and
``classify`` in-process with small budgets. Each call must exit with 0,
1 or 2; any other exception escaping the command is a traceback.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cantordensity.cli import main

# In range nine times in ten.
FRACTIONS = st.sampled_from(
    ["1/2", "1/3", "3/5", "2/7", "2/5", "3/8", "1/8", "5/16", "7/9"] * 4 + ["0", "1", "4/3", "-1/2"]
)
BITS = st.text(alphabet="01", max_size=4)
JUNK = st.sampled_from([None, 3, -1, True, "x", "1/0", "2", "a1", [], [5], {}, "bogus"])


@st.composite
def trees(draw):
    """A tree document whose explicit nodes all end in a policy leaf,
    binary or over the natural numbers."""
    nat = draw(st.integers(0, 4)) == 0
    letters = ["0", "1", "2"] if nat else ["0", "1"]
    names = ["zeros", "full", "stop", "fan_stop"] if nat else ["zeros", "full"]
    policy = st.one_of(
        st.sampled_from(names),
        st.fixed_dictionaries(
            {"periodic": st.text(alphabet="".join(letters), min_size=1, max_size=3)}
        ),
    )
    nodes, policies, frontier = [""], {}, [""]
    while frontier:
        node = frontier.pop()
        children = []
        if len(node) < 3:
            children = draw(st.lists(st.sampled_from(letters), unique=True))
        nodes.extend(node + c for c in children)
        frontier.extend(node + c for c in children)
        if not children:
            policies[node] = draw(policy)
    doc = {"nodes": nodes, "policies": policies}
    if nat:
        doc["arity"] = None
    return doc


FUNCTIONS = st.one_of(
    st.fixed_dictionaries({"preset": st.just("constant"), "value": FRACTIONS}),
    st.fixed_dictionaries({"preset": st.just("interval"), "a": FRACTIONS, "b": FRACTIONS}),
    st.fixed_dictionaries({"preset": st.just("injective"), "eps": FRACTIONS}),
)
LEAF_SETS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("clopen"), "words": st.lists(BITS, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("dualistic"), "measure": FRACTIONS}),
    st.fixed_dictionaries(
        {"kind": st.just("countable-range"), "values": st.lists(FRACTIONS, max_size=3)}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("offspring"), "tree": trees()},
        optional={
            "labels": st.dictionaries(BITS, FRACTIONS, max_size=3),
            "default_label": FRACTIONS,
            "variant": st.sampled_from(["closed", "open"]),
        },
    ),
    st.fixed_dictionaries(
        {"kind": st.just("reduction"), "which": st.just("second")},
        optional={"tree": trees()},
    ),
    st.fixed_dictionaries(
        {
            "kind": st.just("reduction"),
            "which": st.sampled_from(["first", "third"]),
            "function": FUNCTIONS,
        },
        optional={"tree": trees()},
    ),
)


def _wrap(inner):
    part = st.fixed_dictionaries({"prefix": BITS, "set": inner})
    return st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("compose"), "parts": st.lists(part, min_size=1, max_size=3)},
            optional={"complemented": st.booleans()},
        ),
        st.fixed_dictionaries({"kind": st.just("complement"), "of": inner}),
    )


LEAF_BRANCHES = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("ev_periodic"), "period": st.text(alphabet="01", min_size=1, max_size=3)},
        optional={"head": BITS},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("baire"), "period": st.lists(st.integers(0, 3), min_size=1, max_size=2)},
        optional={"head": st.text(alphabet="0123", max_size=3)},
    ),
)


def _nest_branches(inner):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("stretch"), "of": inner}),
        st.fixed_dictionaries({"kind": st.just("interleave"), "x": inner, "y": inner}),
    )


def _slots(doc) -> list:
    """Every (container, key) pair inside a JSON document."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        return []
    found = []
    for key, value in items:
        found.append((doc, key))
        found.extend(_slots(value))
    return found


@st.composite
def sometimes_broken(draw, documents):
    """A document that, one time in four, has one field at any depth
    replaced by junk or dropped."""
    doc = draw(documents)
    slots = _slots(doc)
    if slots and draw(st.sampled_from([False, False, False, True])):
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JUNK)
    return doc


SETS = sometimes_broken(st.recursive(LEAF_SETS, _wrap, max_leaves=4))
BRANCHES = sometimes_broken(st.recursive(LEAF_BRANCHES, _nest_branches, max_leaves=3))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    spec=SETS,
    branch=BRANCHES,
    budget=st.integers(min_value=0, max_value=6),
    steps=st.integers(min_value=1, max_value=10),
    max_depth=st.integers(min_value=1, max_value=14),
)
def test_cli_verbs_fail_closed(workdir, spec, branch, budget, steps, max_depth):
    set_path = workdir / "set.json"
    branch_path = workdir / "branch.json"
    set_path.write_text(json.dumps(spec), encoding="utf-8")
    branch_path.write_text(json.dumps(branch), encoding="utf-8")
    calls = [
        ["measure", "--set", str(set_path), "--budget", str(budget)],
        ["trace", "--set", str(set_path), "--branch", str(branch_path),
         "--steps", str(steps), "--budget", str(budget)],
        ["classify", "--set", str(set_path), "--branch", str(branch_path),
         "--max-depth", str(max_depth)],
    ]
    for args in calls:
        result = CliRunner().invoke(main, args)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise AssertionError(f"{args[0]} raised {result.exception!r} on {spec} / {branch}")
        assert result.exit_code in (0, 1, 2), (args[0], result.exit_code, result.output)
