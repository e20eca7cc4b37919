"""``atomic.py`` is the one module under ``src/medcascade`` that writes a
file: no other module calls ``open()`` with a writing mode (or one the code
computes), ``os.open``, ``os.write``, ``os.replace`` or ``os.rename``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "medcascade"
OS_WRITERS = {"open", "write", "replace", "rename"}


def _mode(call: ast.Call):
    """The mode ``open`` is given: "r" if none, None if not a literal."""
    node = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def raw_writes(source: str) -> list[str]:
    """``line: call`` for each call in ``source`` that writes a file itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode(node)
            if mode is None or set(mode) & set("wax+"):
                found.append(f"{node.lineno}: open")
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id == "os" and func.attr in OS_WRITERS:
            found.append(f"{node.lineno}: os.{func.attr}")
    return found


def test_the_check_finds_each_raw_write():
    source = ("import os\n"
              "open(p)\nopen(p, 'rb')\nopen(p, encoding='utf-8')\nopen(p, mode='r')\n"
              "open(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\nopen(p, 'x')\nopen(p, m)\n"
              "os.open(p, 0)\nos.write(fd, b'')\nos.replace(a, b)\nos.rename(a, b)\n"
              "os.remove(p)\nos.makedirs(d)\n")
    assert raw_writes(source) == [
        "6: open", "7: open", "8: open", "9: open", "10: open",
        "11: os.open", "12: os.write", "13: os.replace", "14: os.rename"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.rglob("*.py")
                                          if p.name != "atomic.py"))
def test_only_atomic_writes_files(module):
    assert raw_writes((SRC / module).read_text(encoding="utf-8")) == []
