"""The benchmark traces the program by wrapping the functions its
``bench_trace.PATCHES`` list names; a rename in ``src/`` would crash every
traced run, so every target must resolve here."""

import importlib
import importlib.util
import inspect
import os

import pytest

BENCH_TRACE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "bench_trace.py")


def _patches():
    if not os.path.isfile(BENCH_TRACE):
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("_bench_trace_targets", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_every_trace_target_resolves_to_a_function():
    patches = _patches()
    assert patches
    for target, _, _ in patches:
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # a method must be defined on the class itself: the tracer replaces
        # the class's own attribute
        raw = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
        if isinstance(raw, (staticmethod, classmethod)):
            raw = raw.__func__
        assert inspect.isfunction(raw), f"{target} does not name a function"


def test_forward_keeps_the_positional_parameters_the_tracer_reads():
    # bench_trace names and tags a forward span from args[1..3] (ids, mask,
    # training); a reorder would mislabel spans without failing any run
    _patches()
    from medcascade.encoder import NumpyTransformerEncoder
    params = list(inspect.signature(NumpyTransformerEncoder.forward).parameters)
    assert params[:4] == ["self", "ids", "mask", "training"]
