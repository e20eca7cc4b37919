"""Every module of the benchmark harness imports against the current
``src/``, and the workloads that only write files set up against it, so a
rename there that breaks the harness fails here instead of in a benchmark
run."""

import importlib
import sys
from pathlib import Path

import pytest

from medcascade.config import load_config
from medcascade.corpus import load_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = sorted(p.stem for p in PERFBENCH.glob("*.py"))


@pytest.fixture
def harness(monkeypatch):
    """The harness's own modules importable by bare name, as it imports them,
    and none of them left behind for other tests."""
    if not PERFBENCH.is_dir():
        pytest.skip("perfbench/ is not in this checkout")
    assert NAMES
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in NAMES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield
    for name in NAMES:
        sys.modules.pop(name, None)


def test_every_perfbench_module_imports(harness):
    for name in NAMES:
        importlib.import_module(name)


def test_the_file_writing_workloads_set_up(harness, tmp_path):
    # a setup reads the program at run time (a record's labels, the
    # manifest's fields, the config keys it writes), which an import does not
    workloads = importlib.import_module("bench_workloads")
    for workload in (workloads.GridMock(), workloads.BertCell()):
        setup = workload.setup(str(tmp_path / workload.name), seed=1)
        cfg = load_config(setup.config)
        assert len(load_corpus(cfg.corpus)[0]) == len(setup.records) > 0
        setup.close()
