"""The package names the benchmark harness traces must keep resolving.

perfbench/tracing.py wraps each (module, attribute) in its TARGETS: a
function in the module's namespace, or a method looked up in the class's
own __dict__. Its ADMM hook binds constrained_least_squares's arguments
and reads max_iters. A rename that breaks one of these fails here, not
only in the harness's own tests or a refused benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _, _ in TARGETS], ids=[f"{m}.{a}" for m, a, _, _ in TARGETS]
)
def test_traced_target_resolves(module_name, attr):
    module = importlib.import_module(f"lowrank_ar.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(vars(module)[attr])


def test_admm_hook_finds_max_iters():
    solver = importlib.import_module("lowrank_ar.solver")
    params = inspect.signature(solver.constrained_least_squares).parameters
    assert "max_iters" in params
    assert params["max_iters"].default == solver.ADMM_MAX_ITERS
