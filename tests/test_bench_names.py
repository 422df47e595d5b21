"""Every library name the benchmark reads resolves on the package.

The workloads in bench/*.py receive the package as `lib` and read names
off it (lib.fit_expansion, lib.RadialMetric.fubini_study, ...); there
were 23 distinct top-level names when this test was written.  A library
deletion or rename that breaks the untraced benchmark would otherwise
show only when the benchmark runs.  The files are parsed with ast, not
imported or run, and each dotted name is resolved as the benchmark
would resolve it.
"""

import ast
from pathlib import Path

import pytest

import cpnbergman

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _dotted(node):
    """('lib', 'A', 'b') for the expression lib.A.b; None unless it is a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else None


def _lib_names():
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
            if dotted and dotted[0] == "lib":
                names.add(dotted[1:])
    return sorted(names)


LIB_NAMES = _lib_names()


def test_the_parse_finds_the_workloads_names():
    top = {dotted[0] for dotted in LIB_NAMES}
    assert {"fit_expansion", "variation_series_eigen", "InverseMSeries", "center"} <= top


@pytest.mark.parametrize("dotted", LIB_NAMES, ids=".".join)
def test_name_resolves(dotted):
    obj = cpnbergman
    for depth, part in enumerate(dotted, 1):
        assert hasattr(obj, part), "lib." + ".".join(dotted[:depth]) + " is gone"
        obj = getattr(obj, part)
