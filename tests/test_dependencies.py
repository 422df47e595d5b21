"""numpy is the only runtime dependency of the library.

A fresh interpreter refuses to import the test-only packages, imports
every cpnbergman module but __main__, and runs CLI commands that reach
the density, the exact layer and the centering.
"""

import os
import subprocess
import sys
from pathlib import Path

import cpnbergman

TEST_ONLY = ("sympy", "mpmath", "scipy", "hypothesis")

SCRIPT = f"""
import importlib, pkgutil, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {TEST_ONLY!r}:
            raise ImportError("test-only package imported: " + name)

sys.meta_path.insert(0, Refuse())
import cpnbergman
for info in pkgutil.iter_modules(cpnbergman.__path__):
    if info.name != "__main__":  # it runs the CLI on import
        importlib.import_module("cpnbergman." + info.name)
from cpnbergman.cli import main
for args in (["fs-check", "--m-max", "3"], ["fs-check", "--n", "2", "--m-max", "2"],
             ["center"], ["variation"]):
    code = main(args)
    if code != 0:
        sys.exit("%s exited %s" % (args, code))
"""


def test_numpy_is_the_only_runtime_dependency():
    src = str(Path(cpnbergman.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "test-only package" not in proc.stderr
