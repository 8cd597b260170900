"""The benchmark's tracer wraps module attributes of randvol by name.

A rename in randvol that drops one of those attributes would only show
when a traced benchmark run crashes; this test fails first.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.BOUNDARIES]


@pytest.mark.parametrize("module_name,attr", _boundaries())
def test_traced_attribute_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
