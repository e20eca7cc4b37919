"""Every name a module under ``src/medcascade`` imports is used in it, so code
that moves between modules leaves no stale import behind.  ``from
__future__`` imports and lines marked ``# noqa`` (an import made only to
probe for a package) are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "medcascade"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from re import (compile,\n    escape)\nimport torch  # noqa: F401\n"
              "os.path.join(escape('x'))\n")
    assert unused_imports(source) == ["compile", "json"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.rglob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
