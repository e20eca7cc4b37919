"""Every module of the benchmark harness imports against the current
``src/``, so a rename there that breaks the harness fails here instead of
in a benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_perfbench_module_imports(monkeypatch):
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    names = sorted(p.stem for p in PERFBENCH.glob("*.py"))
    assert names
    # the harness imports its own modules by bare name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    for name in names:
        importlib.import_module(name)
    for name in names:   # leave no harness module behind for other tests
        sys.modules.pop(name, None)
