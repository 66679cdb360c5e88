"""Every name a source module imports is used in that module, every
name it defines at top level is used somewhere, and every class method
is looked up as an attribute somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "cantordensity").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    assert unused_imports("from typing import Iterator\nx = 1\n") == ["Iterator (line 1)"]
    assert unused_imports("from typing import Iterator\ndef f() -> Iterator: ...\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants, without click commands
    (the CLI reaches them through the group) and dunder names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                and d.func.attr in ("command", "group")
                for d in node.decorator_list
            ):
                continue
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


def unused_definitions() -> list[str]:
    files = [p for folder in ("src", "tests", "bench") for p in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
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
    assert defined_names(tree) == ["A", "B", "f"]
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
