"""The README's "Removed names" table names nothing that still exists.

Each backticked identifier in a row's first column must no longer
resolve on `cpnbergman`, or resolve to None (as `__hash__` does once a
class defines `__eq__`).  An entry with a leading dot, or an undotted
one in a row that starts with a dotted `Class.member`, is a member of
that class.  Rows that name parameters, keywords, flags, config keys or
a module are skipped: those names live in signatures, not on the
package.
"""

import re
from pathlib import Path

import pytest

import cpnbergman

README = Path(__file__).parents[1] / "README.md"
SKIP = ("parameter", "keyword", "flag", "config key", "module")
IDENTIFIER = re.compile(r"\.?[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _rows():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| name | use instead |"):].split("\n\n")[0]
    return [line.split(" | ")[0].lstrip("| ") for line in table.splitlines()[2:]]


def _entries():
    out = []
    for first in _rows():
        if any(word in first for word in SKIP):
            continue
        names = [re.sub(r"\(.*\)$", "", name) for name in re.findall(r"`([^`]+)`", first)]
        names = [name for name in names if IDENTIFIER.fullmatch(name)]
        owner = names[0].split(".")[0] if "." in names[0] else None
        for name in names:
            if name.startswith(".") or (owner and "." not in name):
                name = owner + "." + name.lstrip(".")
            out.append(name)
    return out


ENTRIES = _entries()


def test_table_is_read():
    for name in ("integrate_half_line", "fs_weight", "RationalPolynomial.__hash__",
                 "EigenBasisFunction.normalization", "RationalPolynomial.leading_coefficient"):
        assert name in ENTRIES
    assert not any("radial_weight" in name for name in ENTRIES)  # a parameter row


def _resolve(name):
    """The package attribute, or the class member as its MRO defines it:
    getattr on a class would also find the metaclass's __call__."""
    owner, _, member = name.partition(".")
    value = getattr(cpnbergman, owner, None)
    if member and value is not None:
        value = next((vars(k)[member] for k in value.__mro__ if member in vars(k)), None)
    return value


@pytest.mark.parametrize("name", ENTRIES)
def test_removed_name_does_not_resolve(name):
    assert _resolve(name) is None, f"{name} still resolves on cpnbergman"


def test_a_kept_name_resolves():
    assert _resolve("InverseMSeries.reciprocal") is not None
    assert _resolve("InverseMSeries.__eq__") is not None
