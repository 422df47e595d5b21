"""The CLI alone reads and writes files.

No module of the library but cli.py calls open or imports csv or json:
the library takes and returns values, and the CLI turns files into them
and them into files.
"""

import ast
from pathlib import Path

import pytest

import cpnbergman

PACKAGE = Path(cpnbergman.__file__).parent
FILE_MODULES = {"csv", "json"}


def _file_access(path):
    """(line, what) of each open call and csv or json import in the module at path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call):
            func = node.func
            names = ["open()"] if (getattr(func, "id", None) == "open"
                                   or getattr(func, "attr", None) == "open") else []
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "open()" or name.partition(".")[0] in FILE_MODULES]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_the_cli_touches_files(path):
    found = _file_access(path)
    if path.name == "cli.py":
        assert {name for _, name in found} == {"open()", "csv", "json"}
    else:
        assert found == [], f"{path.name} reads or writes files: {found}"
