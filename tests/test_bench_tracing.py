"""The traced benchmark's wrapped names still resolve on the library.

bench/tracing.py wraps each (module, function) of FUNCTIONS and each
(module, class, method) of METHODS by name, so a library name it lists
that is deleted or renamed breaks the traced run.  These tests resolve
every entry as Tracer.install does.
"""

import importlib.util
from pathlib import Path

import pytest

import cpnbergman

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module,attr", tracing.FUNCTIONS)
def test_function_resolves(module, attr):
    assert callable(getattr(getattr(cpnbergman, module), attr))


@pytest.mark.parametrize("module,cls_name,attr,name", tracing.METHODS)
def test_method_resolves(module, cls_name, attr, name):
    assert callable(getattr(getattr(cpnbergman, module), cls_name).__dict__[attr])
