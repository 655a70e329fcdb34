"""Every layer the benchmark traces, each ``(module, attr)`` in SPANNED and
COUNTED of ``perfbench/tracing.py``, names a function defined in
``usc.<module>``: a traced run looks each one up with ``getattr``, so a
renamed or deleted function would break it. The tracing module is read
from its file and not installed."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attr", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_is_a_function_of_its_module(module_name, attr):
    module = importlib.import_module(f"usc.{module_name}")
    function = getattr(module, attr, None)
    assert inspect.isfunction(function), f"usc.{module_name}.{attr} is not a function"
    assert function.__module__ == module.__name__
