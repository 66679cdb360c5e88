"""Every name a source module imports is used in that module, every
name it defines at top level is used somewhere, every class method is
looked up as an attribute somewhere, and every attribute a class
declares or stores on its instances is read somewhere. Outside tests/,
everything in src/ is reached but an allowlist of constructions and
readers that only tests use."""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "cantordensity").glob("*.py"))


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """Imports their scope never reads: one at module level (under ``if
    TYPE_CHECKING:`` too) must be read somewhere in the module, one inside
    a function somewhere in that function."""
    tree = ast.parse(source)
    unused = []
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        imported: dict[str, int] = {}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused.extend((line, name) for name, line in imported.items() if name not in used)
    return [f"{name} (line {line})" for line, name in sorted(unused)]


def test_detector_flags_an_unused_import():
    assert unused_imports("from typing import Iterator\nx = 1\n") == ["Iterator (line 1)"]
    assert unused_imports("from typing import Iterator\ndef f() -> Iterator: ...\n") == []


def test_detector_flags_an_import_its_function_does_not_use():
    # A function's import counts only where that function reads it: here
    # g reads a Fraction that f imports, which is no use of f's import.
    source = ("from typing import Iterator\n"
              "def f():\n    from fractions import Fraction\n    return 1\n"
              "def g() -> Iterator:\n    return Fraction(1)\n")
    assert unused_imports(source) == ["Fraction (line 3)"]
    # Reading it in a function nested inside is a use, and so is reading a
    # module-level import, one under TYPE_CHECKING included, in a function.
    assert unused_imports("from typing import TYPE_CHECKING\nimport json\n"
                          "if TYPE_CHECKING:\n    from fractions import Fraction\n"
                          "def f(x: Fraction):\n    from math import lcm\n"
                          "    def g():\n        return lcm(json.loads(x))\n    return g\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants, without dunder names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not _dunder(name)]


def defined_methods(tree: ast.Module) -> list[str]:
    """The methods of top-level classes, without dunder names."""
    return [
        item.name
        for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not _dunder(item.name)
    ]


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes looked up and names imported in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def looked_up_attributes(tree: ast.Module) -> set[str]:
    """Attribute names looked up in a module: the only way to reach a
    method, so a local variable of the same name does not count."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@functools.cache
def parsed_modules() -> dict[Path, ast.Module]:
    """Every module under src/, tests/ and bench/, parsed once for the
    three checks that read them all."""
    files = [p for folder in ("src", "tests", "bench") for p in sorted((ROOT / folder).rglob("*.py"))]
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}


def unused_definitions() -> list[str]:
    trees = parsed_modules()
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    looked_up = set().union(*(looked_up_attributes(tree) for tree in trees.values()))
    unused = []
    for path in SOURCES:
        unused.extend(f"{path.name}: {name}" for name in defined_names(trees[path])
                      if name not in referenced)
        unused.extend(f"{path.name}: {name}" for name in defined_methods(trees[path])
                      if name not in looked_up)
    return unused


def test_detector_flags_an_unused_definition():
    tree = ast.parse("A = 1\nB = A\ndef f(): ...\n@main.command()\ndef g(): ...\n")
    assert defined_names(tree) == ["A", "B", "f", "g"]
    assert referenced_names(tree) == {"A", "main", "command"}


def test_detector_flags_an_unused_method():
    tree = ast.parse(
        "class C:\n    def used(self): ...\n    def orphan(self): ...\n"
        "    def __len__(self): ...\nC().used()\n"
    )
    assert defined_names(tree) == ["C"]
    assert defined_methods(tree) == ["used", "orphan"]
    assert "orphan" not in looked_up_attributes(tree)
    # A local variable named like a method does not use the method.
    shadowed = ast.parse("class C:\n    def hull(self): ...\nhull = 1\nprint(hull)\n")
    assert "hull" in referenced_names(shadowed)
    assert "hull" not in looked_up_attributes(shadowed)


def test_every_definition_is_used():
    assert unused_definitions() == []


def class_attributes(tree: ast.Module) -> list[str]:
    """The attributes of top-level classes: names assigned in the class
    body (fields, constants, tags) and attributes stored on ``self``
    inside its methods, without dunder names."""
    names = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.Assign):
                names.extend(t.id for t in item.targets if isinstance(t, ast.Name))
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.append(item.target.id)
        for stored in ast.walk(node):
            if (isinstance(stored, ast.Attribute) and isinstance(stored.ctx, ast.Store)
                    and isinstance(stored.value, ast.Name) and stored.value.id == "self"):
                names.append(stored.attr)
    return [name for name in dict.fromkeys(names) if not _dunder(name)]


def read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names read in a module: a store does not count."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}


def unread_attributes() -> list[str]:
    trees = parsed_modules()
    read = set().union(*(read_attributes(tree) for tree in trees.values()))
    return [f"{path.name}: {name}" for path in SOURCES
            for name in class_attributes(trees[path]) if name not in read]


def test_detector_flags_an_unread_class_attribute():
    tree = ast.parse(
        "class C:\n    kind = 'tag'\n    width: int\n    __slots__ = ()\n"
        "    def __init__(self):\n        self.seen = {}\n        self.cache = {}\n"
        "    def look(self):\n        return self.cache\n"
        "kind = 1\nprint(kind)\n"
    )
    assert class_attributes(tree) == ["kind", "width", "seen", "cache"]
    # Reading a global of the same name, or storing the attribute, is no read.
    assert read_attributes(tree) == {"cache"}


def test_every_class_attribute_is_read():
    assert unread_attributes() == []


# What in src/ only tests reach: the constructions kept out of the
# command line's scope, and the readers that tests check them with.
# Anything else that only tests reach does not belong in the package.
TEST_ONLY = {
    "approx.ReparamPresentation", "clopen.union_all", "dyadics.dyadic_rank",
    "jsonio.tree_to_spec", "offspring.offspring_prune", "reductions.solid_analytic",
    "reductions.solid_injective", "reductions.uniformity_pipeline",
    "clopen.ClopenSet.cylinder", "dualistic.DualisticSet.spongy_rate",
    "dualistic.SolidCountableRange.audit", "dyadics.RatInterval.contains",
    "reductions.SolidAnalyticSet.designated_value", "reductions.SolidInjectiveSet.audit",
    "reductions.SolidInjectiveSet.leftovers",
}


def reached_only_by_tests(sources: dict[str, ast.Module], outside: list[ast.Module]) -> list[str]:
    """Top-level names, methods and class attributes of the named source
    modules that no module in ``outside`` reaches. A top-level name is
    reached by a read in its own module, and from another module by an
    import or an attribute lookup: a local variable of the same name
    there does not reach it."""
    imported = {alias.name for tree in outside for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    looked_up = set().union(*map(looked_up_attributes, outside))
    read = set().union(*map(read_attributes, outside))
    found = []
    for module, tree in sources.items():
        reached = imported | looked_up | {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        found.extend(f"{module}.{name}" for name in defined_names(tree) if name not in reached)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                alone = ast.Module(body=[node], type_ignores=[])
                found.extend(f"{module}.{node.name}.{name}" for name in defined_methods(alone)
                             if name not in looked_up)
                found.extend(f"{module}.{node.name}.{name}" for name in class_attributes(alone)
                             if name not in read)
    return found


def test_detector_flags_what_only_tests_reach():
    module = ast.parse("def used(): ...\ndef lonely(): ...\n"
                       "class C:\n    tag = 1\n    def m(self): ...\n    def n(self): ...\n"
                       "used()\n")
    # The user's local variable named like the function does not reach it.
    user = ast.parse("from mod import C\nlonely = C().m()\nprint(lonely)\n")
    assert reached_only_by_tests({"mod": module}, [module, user]) == [
        "mod.lonely", "mod.C.n", "mod.C.tag"]


def test_only_the_allowlist_is_reached_only_by_tests():
    trees = parsed_modules()
    outside = [tree for path, tree in trees.items() if path.relative_to(ROOT).parts[0] != "tests"]
    found = reached_only_by_tests({path.stem: trees[path] for path in SOURCES}, outside)
    assert sorted(found) == sorted(TEST_ONLY)


def imported_modules(source: str) -> set[str]:
    """Modules a package source imports from, relative imports resolved."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                found.add(f"cantordensity.{node.module}")
            elif node.level:
                found.update(f"cantordensity.{alias.name}" for alias in node.names)
            else:
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def test_detector_resolves_relative_imports():
    assert "cantordensity.clopen" in imported_modules("from .clopen import ClopenSet\n")
    assert "cantordensity.clopen" in imported_modules("from . import clopen\n")
    assert "cantordensity.clopen" in imported_modules("import cantordensity.clopen\n")


def test_offspring_copies_do_not_build_clopen_sets():
    # Dyadic copies are segments [0, m) carried as numbers; a piece-based
    # copy would bring the clopen layer back into the evaluator.
    source = (ROOT / "src" / "cantordensity" / "offspring.py").read_text(encoding="utf-8")
    assert "cantordensity.clopen" not in imported_modules(source)


def test_cli_import_leaves_click_out():
    # The command line runs on the standard library alone.
    probe = ("import sys, cantordensity.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    assert done.stdout == "[]\n"


# Each set document in order, and the modules of the package loaded after
# parsing it: every construction is imported where its kind needs it.
_COLD_BASE = {"cli", "jsonio", "oracles", "branches", "dyadics", "words"}
_COLD_DOCUMENTS = [
    ({"kind": "clopen", "words": ["01", "10"]}, _COLD_BASE | {"clopen"}),
    ({"kind": "dualistic", "measure": "1/3"}, _COLD_BASE | {"clopen", "dualistic"}),
    ({"kind": "countable-range", "values": ["1/3", "3/4"]}, _COLD_BASE | {"clopen", "dualistic"}),
    ({"kind": "offspring", "tree": {"nodes": ["", "0"], "policies": {"0": "zeros"}},
      "labels": {"0": "3/8"}, "default_label": "1/4"},
     _COLD_BASE | {"clopen", "dualistic", "offspring", "trees"}),
    ({"kind": "reduction", "which": "second"},
     _COLD_BASE | {"clopen", "dualistic", "offspring", "trees", "approx", "reductions"}),
]


def _modules_after_each(documents: list) -> list[set[str]]:
    """The package's modules loaded in a fresh interpreter after importing
    the CLI and parsing each set document in turn."""
    probe = ("import json, sys, cantordensity.cli\n"
             "from cantordensity import jsonio\n"
             "for doc in json.loads(sys.argv[1]):\n"
             "    jsonio.oracle_from_spec(doc)\n"
             "    print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules\n"
             "                            if m.startswith('cantordensity.'))))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(documents)],
                          capture_output=True, text=True, env=env, check=True, timeout=60)
    return [set(json.loads(line)) for line in done.stdout.splitlines()]


def test_each_document_loads_only_the_constructions_it_needs():
    documents = [doc for doc, _ in _COLD_DOCUMENTS]
    assert _modules_after_each(documents) == [loaded for _, loaded in _COLD_DOCUMENTS]
    # Offspring and reduction documents alone, with dyadic labels, need
    # neither the clopen layer nor the dualistic sets.
    alone = _modules_after_each(documents[3:])
    assert alone[-1] == _COLD_BASE | {"offspring", "trees", "approx", "reductions"}
