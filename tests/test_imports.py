"""Every name a source module imports is used in that module, and every
name it defines at top level or as a class method is used somewhere."""

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


def defined_names(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and constants and the methods of
    top-level classes, without click commands (the CLI reaches them
    through the group) and dunder names."""
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
            if isinstance(node, ast.ClassDef):
                names.extend(item.name for item in node.body if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


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


def unused_definitions() -> list[str]:
    files = [p for folder in ("src", "tests", "bench") for p in sorted((ROOT / folder).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    referenced = {path: referenced_names(tree) for path, tree in trees.items()}
    unused = []
    for path in SOURCES:
        for name in defined_names(trees[path]):
            if not any(name in names for names in referenced.values()):
                unused.append(f"{path.name}: {name}")
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
    assert defined_names(tree) == ["C", "used", "orphan"]
    assert "orphan" not in referenced_names(tree)


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
