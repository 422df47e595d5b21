"""Byte-exact CLI outputs pinned under tests/golden/.

The CLI is documented as byte-deterministic; these files hold the stdout
of each command as it was before the integer variation engine, so any
change to the printed numbers or their layout fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "convert-poly_n1_K3.json": ["convert-poly", "--n", "1", "--K", "3"],
    "convert-poly_n3_K40.json": ["convert-poly", "--n", "3", "--K", "40"],
    "variation_n1_lambda2_J5.json": ["variation", "--n", "1", "--lambda", "2", "--J", "5"],
    "variation_n3_lambda15_J30_kmax3.json": ["variation", "--n", "3", "--lambda", "15",
                                             "--J", "30", "--k-max", "3"],
    "variation_n2_lambda7-3_J12_centered.json": ["variation", "--n", "2", "--lambda", "7/3",
                                                 "--J", "12", "--centered"],
    "polynomiality_n1_k0max6.json": ["polynomiality", "--n", "1", "--k0-max", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    proc = subprocess.run([sys.executable, "-m", "cpnbergman", *CASES[name]],
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()
