"""Every name a source module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "cantordensity").glob("*.py"))


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
