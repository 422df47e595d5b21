"""Byte-exact CLI outputs pinned under tests/golden/.

The CLI is documented as byte-deterministic; these files hold the stdout
of each command, so any change to the printed numbers or their layout
fails here.  A change that moves a number on purpose regenerates only the
files it moves, after checking each against the bound for its kind below
(the bounds the latest regenerations were checked against), and records
the files and their measured moves in CHANGES.md:

- density CSVs: every value within 1e-15 relative of the file it replaces
  where the pass is dense (m < 376) and within 1e-13 where it is banded;
  Fubini-Study values within 1e-14 relative of m + 1;
- fit files, which read a density CSV: coefficients within 1e-10
  relative and the residual within 1e-7 relative, and only when that CSV
  was regenerated;
- first-variation files: formula_value byte for byte; fd_value, the
  linearised value, within 1e-14 relative where the closed form is
  nonzero, and below 1e-290 in size where it is an exact 0; rel_diff as
  those two give it;
- fs-check: pass true; --n 1's max_norm_rel_error and
  max_density_deviation each at most 3e-14, --n 2's max_rel_error at most
  1e-15;
- center files: the same iteration count, A within 1e-15 elementwise,
  gauge-diag's A within 2e-13 of the exact -B, and every trace value
  within 2.5e-16 absolute;
- the exact commands (convert-poly, variation, polynomiality, the fit of
  exact samples): byte for byte, never regenerated.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from cli_runner import run_in_process

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "convert-poly_n1_K3.json": ["convert-poly", "--n", "1", "--K", "3"],
    "convert-poly_n3_K40.json": ["convert-poly", "--n", "3", "--K", "40"],
    "variation_n1_lambda2_J5.json": ["variation", "--n", "1", "--lambda", "2", "--J", "5"],
    "variation_n3_lambda15_J30_kmax3.json": ["variation", "--n", "3", "--lambda", "15",
                                             "--J", "30", "--k-max", "3"],
    "variation_n2_lambda7-3_J12_centered.json": ["variation", "--n", "2", "--lambda", "7/3",
                                                 "--J", "12", "--centered"],
    "variation_n3_lambda15_J60_kmax6.json": ["variation", "--n", "3", "--lambda", "15",
                                             "--J", "60", "--k-max", "6"],
    "variation_n2_lambda7-3_J40_centered.json": ["variation", "--n", "2", "--lambda", "7/3",
                                                 "--J", "40", "--centered"],
    "variation_n1_lambda-5-7_J50_unnormalized.json": ["variation", "--n", "1",
                                                      "--lambda=-5/7", "--J", "50",
                                                      "--unnormalized"],
    "polynomiality_n1_k0max6.json": ["polynomiality", "--n", "1", "--k0-max", "6"],
    "polynomiality_n3_k0max5.json": ["polynomiality", "--n", "3", "--k0-max", "5"],
    "fs-check_n1_mmax30.json": ["fs-check", "--n", "1", "--m-max", "30"],
    "density_eigenfunction-bump_eps0.1.csv": ["density", "--metric", "eigenfunction-bump",
                                              "--eps", "0.1", "--m-list", "20,30,40,50,60",
                                              "--grid", "0,0.5,1,2"],
    "density_eigenfunction-bump_eps0.1_m1060.csv": ["density", "--metric",
                                                    "eigenfunction-bump", "--eps", "0.1",
                                                    "--m-list", "1060", "--grid", "0,1,inf"],
    "density_fs_m20000_tol1e-13.csv": ["density", "--metric", "fs", "--m-list", "20000",
                                       "--grid", "0,1,inf", "--tol", "1e-13"],
    "density_fs_m20000_tol1e-14.csv": ["density", "--metric", "fs", "--m-list", "20000",
                                       "--grid", "0,1,inf", "--tol", "1e-14"],
    "density_eigenfunction-bump_eps0.45_m5000.csv": ["density", "--metric",
                                                     "eigenfunction-bump", "--eps", "0.45",
                                                     "--m-list", "5000", "--grid", "0,1,inf"],
    "density_rational-bump_eps0.2_m5000.csv": ["density", "--metric", "rational-bump",
                                               "--eps", "0.2", "--m-list", "5000",
                                               "--grid", "0,0.5,1,2,inf"],
    "density_fs_m1060-1120.csv": ["density", "--metric", "fs", "--m-list", "1060,1120",
                                  "--grid", "0,0.3,1,4,1000"],
    "density_rational-bump_eps0.2_m1060.csv": ["density", "--metric", "rational-bump",
                                               "--eps", "0.2", "--m-list", "1060",
                                               "--grid", "0,0.3,1,4,1000"],
    "fs-check_n2_mmax6.json": ["fs-check", "--n", "2", "--m-max", "6"],
    "center_gauge-diag_0.05.json": ["center", "--potential", "gauge-diag", "--scale", "0.05"],
    "center_eigenbasis-diag_0.05.json": ["center", "--potential", "eigenbasis-diag",
                                         "--scale", "0.05"],
    "center_gauge-diag_0.05_damping0.9.json": ["center", "--potential", "gauge-diag",
                                               "--scale", "0.05", "--damping", "0.9",
                                               "--max-iter", "200"],
    "center_gauge-diag_0.5.json": ["center", "--potential", "gauge-diag", "--scale", "0.5"],
    "first-variation_eigenfunction-bump_eps1_m20.json": ["first-variation", "--phi",
                                                         "eigenfunction-bump", "--eps", "1.0",
                                                         "--m", "20"],
    "first-variation_phi1-poly_0.3_-1.2_1.5_m50_s0.735.json": [
        "first-variation", "--phi", "phi1-poly", "--coeffs", "0.3,-1.2,1.5", "--m", "50",
        "--s", "0.735"],
    "first-variation_rational-bump_eps0.5_m30_s2.5.json": [
        "first-variation", "--phi", "rational-bump", "--eps", "0.5", "--m", "30", "--s", "2.5"],
    "density_eigenfunction-bump_eps0.1_m50-200.csv": [
        "density", "--metric", "eigenfunction-bump", "--eps", "0.1",
        "--m-list", "50,100,200", "--grid", "0,0.3,1,4,1000"],
    "density_phi1-poly_0.01_-0.03_0.005_0.002_m40-200.csv": [
        "density", "--metric", "phi1-poly", "--coeffs", "0.01,-0.03,0.005,0.002",
        "--m-list", "40,60,100,200", "--grid", "0,0.3,1,4,1000"],
    "density_phi1-poly_0_0.05_-0.02.csv": ["density", "--metric", "phi1-poly",
                                           "--coeffs", "0,0.05,-0.02", "--m-list", "20,40",
                                           "--grid", "0,1"],
    "density_rational-bump_eps0.2_m20-37.csv": [
        "density", "--metric", "rational-bump", "--eps", "0.2",
        "--m-list", "20,25,30,34,37", "--grid", "0,0.5,1,2,inf"],
    "density_phi1-poly_0.01_-0.03_0.005_0.002_m20-30.csv": [
        "density", "--metric", "phi1-poly", "--coeffs", "0.01,-0.03,0.005,0.002",
        "--m-list", "20,30", "--grid", "0,0.3,1,4,1000"],
    "density_rational-bump_eps0.2.csv": ["density", "--metric", "rational-bump",
                                         "--eps", "0.2", "--m-list", "20,40,60",
                                         "--grid", "0,0.5,1,2"],
    "fit_eigenfunction-bump_eps0.1_s0.5_K2.json": [
        "fit", "--samples", str(GOLDEN / "density_eigenfunction-bump_eps0.1.csv"),
        "--at-s", "0.5", "--K", "2"],
    "fit_eigenfunction-bump_eps0.1_s0.5_K2_vanishing1e-3.json": [
        "fit", "--samples", str(GOLDEN / "density_eigenfunction-bump_eps0.1.csv"),
        "--at-s", "0.5", "--K", "2", "--vanishing-tol", "1e-3"],
    "fit_exact_m10-30_K2_vanishing1e-8.json": [
        "fit", "--samples", str(GOLDEN / "fit_samples_m10-30_exact.csv"),
        "--n", "1", "--K", "2", "--vanishing-tol", "1e-8"],
}

# CLI failure cases.  name: (args, contents of the file that "{file}" in args names,
# or None, exit code, error type).  Each exits with its code, its error JSON on
# stdout (strict JSON) naming the error's type, and nothing on stderr.
FAILURES = {
    # a non-finite scale
    "center_scale_inf": (["center", "--potential", "gauge-diag", "--scale", "inf"],
                         None, 2, "ValueError"),
    # an infinite tol (it once reported convergence at iteration 0)
    "center_tol_inf": (["center", "--potential", "eigenbasis-diag", "--tol", "inf"],
                       None, 2, "ValueError"),
    # a sample value past float range (read as inf)
    "fit_inf": (["fit", "--samples", "{file}", "--K", "1"],
                "m,value\n10,1.0e400\n20,21.0\n30,31.0\n", 2, "ValueError"),
    # a sample m past float range, read exactly (each once exited 1 with an
    # OverflowError traceback, at float(m) and at m ** -1)
    "fit_m_1e400": (["fit", "--samples", "{file}", "--K", "1"],
                    "m,value\n1e400,2.0\n20,21.0\n30,31.0\n", 2, "ValueError"),
    "fit_m_1e-320": (["fit", "--samples", "{file}", "--K", "1"],
                     "m,value\n1e-320,2.0\n20,21.0\n30,31.0\n", 2, "ValueError"),
    # a sample with a zero denominator (it once exited 1 with a ZeroDivisionError traceback)
    "fit_zero_denominator": (["fit", "--samples", "{file}", "--K", "1"],
                             "m,value\n10,1/0\n20,21\n", 2, "ValueError"),
    # an empty samples CSV (it once exited 1 with a StopIteration traceback)
    "fit_empty": (["fit", "--samples", "{file}"], "", 2, "ValueError"),
    # a density CSV row shorter than its header (it once fitted the m values it had)
    "fit_ragged": (["fit", "--samples", "{file}", "--at-s", "0.5", "--K", "1"],
                   "s,Pi_m10,Pi_m20,Pi_m30\n0.5,11.0,21.0\n", 2, "ValueError"),
    # a density CSV without --at-s (it once exited 0, its s column fitted as m)
    "fit_wide": (["fit", "--samples", "{file}"],
                 "s,Pi_m10,Pi_m20,Pi_m30\n0.5,11.0,21.0,31.0\n1,11.5,21.0,31.0\n"
                 "2,12.0,21.0,31.0\n", 2, "ValueError"),
    # a one-m density CSV without --at-s (it once exited 0, its s column fitted as m)
    "fit_one_m": (["fit", "--samples", "{file}"],
                  "s,Pi_m10\n0.5,11.0\n1,11.5\n2,12.0\n", 2, "ValueError"),
    # a least-squares fit past float range (it once exited 0 and printed coefficients
    # -Infinity and Infinity and "residual": NaN, which is not JSON, with RuntimeWarnings)
    "fit_lstsq_overflow": (["fit", "--samples", "{file}", "--K", "2"],
                           "m,value\n10,1e308\n20,-1e308\n30,1e308\n40,-1e308\n",
                           2, "ValueError"),
    # a first variation whose Laplacian terms overflow (it once exited 0 and printed NaN)
    "first_variation_eps_1e308": (["first-variation", "--phi", "rational-bump",
                                   "--eps", "1e308", "--m", "5"], None, 2, "ValueError"),
    # a closed form past float range (it once exited 1 with an OverflowError traceback)
    "first_variation_coeffs_1e308": (["first-variation", "--phi", "phi1-poly",
                                      "--coeffs", "0,0,1e308", "--m", "1000"],
                                     None, 2, "ValueError"),
    # a zero denominator (it once exited 1 with a ZeroDivisionError traceback)
    "variation_lambda_1_0": (["variation", "--lambda", "1/0"], None, 2, "ValueError"),
    # a NaN scale for the zero potential, which never reads it (it once exited 0
    # and printed "scale": NaN, which is not JSON)
    "center_zero_scale_nan": (["center", "--potential", "zero", "--scale", "nan"],
                              None, 2, "ValueError"),
    # a row shift m u past float range (it once exited 0 with a RuntimeWarning, its
    # log norms -inf)
    "density_shift_overflow": (["density", "--metric", "phi1-poly", "--coeffs", "1e308",
                                "--m-list", "20", "--grid", "0,1"], None, 2, "ValueError"),
    # a metric density with a double zero at p = 1/2 (s = 1), found exactly
    "density_rational_bump_2": (["density", "--metric", "rational-bump", "--eps", "2"],
                                None, 3, "PositivityError"),
    # a metric density that dips to -1e-9 near s = 2.333, between the nodes of a fine grid
    "density_narrow_dip": (["density", "--metric", "phi1-poly", "--coeffs",
                            "0,-0.27019795241713407,-1.3513951806398625"],
                           None, 3, "PositivityError"),
    # section norms past the stated domain (the pass stalls at the rounding level)
    "density_fs_tol_1e-15": (["density", "--m-list", "20000", "--grid", "0", "--tol", "1e-15"],
                             None, 3, "QuadratureError"),
    # the centering solver out of iterations
    "center_max_iter": (["center", "--potential", "eigenbasis-diag", "--scale", "0.05",
                         "--max-iter", "1"], None, 4, "NonConvergenceError"),
    # non-finite config numbers, which json.load reads (their params were once
    # printed as NaN and Infinity, which is not JSON)
    "density_config_tol_nan": (["density", "--config", "{file}"],
                               '{"tol": NaN, "m_list": "5", "grid": "0,1"}', 2, "ValueError"),
    "center_config_scale_1e999": (["center", "--config", "{file}"], '{"scale": 1e999}',
                                  2, "ValueError"),
    # config paths that are numbers, which open() takes for file descriptors (the trace
    # once went to stdout, closing it, and exited 1 with an OSError traceback; the
    # samples were read from stdin)
    "center_config_trace_out_1": (["center", "--config", "{file}"], '{"trace_out": 1}',
                                  2, "ValueError"),
    "fit_config_samples_0": (["fit", "--config", "{file}"], '{"samples": 0}', 2, "ValueError"),
    # a config file that holds JSON but not an object
    "density_config_list": (["density", "--config", "{file}"], "[1, 2]", 2, "ValueError"),
    # an --m-list with no number in it
    "density_m_list_comma": (["density", "--m-list", ",", "--grid", "0"], None, 2, "ValueError"),
    # fs-check at an n it has no check for
    "fs_check_n_3": (["fs-check", "--n", "3"], None, 2, "ValueError"),
    # a potential center does not know
    "center_potential_foo": (["center", "--potential", "foo"], None, 2, "ValueError"),
    # density CSVs read with --at-s: a column that is not Pi_m..., a header and no
    # rows, and no row at the s asked for
    "fit_at_s_column_x": (["fit", "--samples", "{file}", "--at-s", "0.5"],
                          "s,Pi_m10,x\n0.5,11.0,21.0\n", 2, "ValueError"),
    "fit_at_s_header_only": (["fit", "--samples", "{file}", "--at-s", "0.5"],
                             "s,Pi_m10,Pi_m20,Pi_m30\n", 2, "ValueError"),
    "fit_at_s_0.7_absent": (["fit", "--samples", "{file}", "--at-s", "0.7"],
                            "s,Pi_m10,Pi_m20,Pi_m30\n0.5,11.0,21.0,31.0\n", 2, "ValueError"),
    # numbers outside their domain: each once exited 0 with zeros or "pass": true, or
    # ran to exit 3 or 4
    "density_m_list_-1": (["density", "--m-list", "-1", "--grid", "0"], None, 2, "ValueError"),
    "density_tol_0": (["density", "--m-list", "5", "--grid", "0", "--tol", "0"],
                      None, 2, "ValueError"),
    "density_tol_-1": (["density", "--m-list", "5", "--grid", "0", "--tol=-1"],
                       None, 2, "ValueError"),
    "first_variation_m_-3": (["first-variation", "--phi", "fs", "--m=-3"], None, 2, "ValueError"),
    "fs_check_m_max_-1": (["fs-check", "--m-max=-1"], None, 2, "ValueError"),
    "fs_check_n_2_m_max_-1": (["fs-check", "--n", "2", "--m-max=-1"], None, 2, "ValueError"),
    "center_damping_0": (["center", "--damping", "0"], None, 2, "ValueError"),
    "center_damping_-0.5": (["center", "--potential", "eigenbasis-diag", "--damping=-0.5"],
                            None, 2, "ValueError"),
    "center_tol_-1": (["center", "--potential", "eigenbasis-diag", "--tol=-1"],
                      None, 2, "ValueError"),
    "center_damping_1": (["center", "--damping", "1"], None, 2, "ValueError"),
    "center_damping_1.5": (["center", "--potential", "eigenbasis-diag", "--damping", "1.5"],
                           None, 2, "ValueError"),
    "polynomiality_n_0": (["polynomiality", "--n", "0"], None, 2, "ValueError"),
    # non-finite inputs: each once exited 3 or 4, or 2 with numpy's message
    "center_scale_nan": (["center", "--potential", "eigenbasis-diag", "--scale", "nan"],
                         None, 2, "ValueError"),
    "density_eps_inf": (["density", "--metric", "eigenfunction-bump", "--eps", "inf",
                         "--m-list", "5", "--grid", "0"], None, 2, "ValueError"),
    "density_coeffs_nan": (["density", "--metric", "phi1-poly", "--coeffs", "0,0.05,nan",
                            "--m-list", "5", "--grid", "0"], None, 2, "ValueError"),
    # an infinite tol: density returned an unrefined pass
    "density_tol_inf": (["density", "--m-list", "5", "--grid", "0", "--tol", "inf"],
                        None, 2, "ValueError"),
    # negative counts: each once exited 0 with an empty table, or with no iteration at
    # all for the zero potential
    "center_zero_max_iter_-1": (["center", "--potential", "zero", "--max-iter=-1"],
                                None, 2, "ValueError"),
    "center_max_iter_-1": (["center", "--potential", "eigenbasis-diag", "--max-iter=-1"],
                           None, 2, "ValueError"),
    "polynomiality_k0_max_-1": (["polynomiality", "--k0-max=-1"], None, 2, "ValueError"),
    "variation_k_max_-3": (["variation", "--k-max=-3"], None, 2, "ValueError"),
}


def in_a_process(*command):
    """A runner like run_in_process whose every run is command + argv, a process of its own."""
    def run(argv):
        proc = subprocess.run([*command, *argv], capture_output=True, timeout=300)
        return proc.returncode, proc.stdout, proc.stderr.decode()
    return run


def strict_json(text):
    """json.loads(text), refusing NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def failure_outcome(run, name, directory):
    """(exit code, stderr, error type) of FAILURES[name] run by run(argv), its "{file}"
    written under directory; the error type is None unless stdout is a strict error JSON."""
    args, text, _, _ = FAILURES[name]
    path = Path(directory) / f"{name}.csv"
    if text is not None:
        path.write_text(text)
    code, stdout, stderr = run([a.replace("{file}", str(path)) for a in args])
    try:
        kind = strict_json(stdout)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        kind = None
    return code, stderr, kind


def test_readme_table_counts_the_cases():
    counts = Counter(args[0] for args in CASES.values())
    rows = ["| command | cases |", "|---|---|"]
    rows += [f"| `{command}` | {n} |"
             for command, n in sorted(counts.items(), key=lambda item: (-item[1], item[0]))]
    table = "\n".join(rows + [f"| all | {len(CASES)} |"]) + "\n"
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    assert table in readme, "README's golden-case table should read:\n" + table


python_m = in_a_process(sys.executable, "-m", "cpnbergman")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    # in this process, twice: the second run, and every case after the first,
    # meets the library's caches warm, and must print the same bytes
    for _ in range(2):
        assert run_in_process(CASES[name]) == (0, (GOLDEN / name).read_bytes(), "")


def test_entry_point_matches_golden():
    # python -m cpnbergman, in a process of its own (CI runs every case through the
    # installed cpnbergman script, each in a fresh process with cold caches)
    name = "density_rational-bump_eps0.2.csv"
    assert python_m(CASES[name]) == (0, (GOLDEN / name).read_bytes(), "")


def test_center_trace_out_matches_golden(tmp_path):
    trace = tmp_path / "trace.csv"
    assert python_m(["center", "--potential", "gauge-diag", "--scale", "0.05",
                     "--trace-out", str(trace)]) == (
        0, (GOLDEN / "center_gauge-diag_0.05.json").read_bytes(), "")
    assert trace.read_bytes() == (GOLDEN / "center_gauge-diag_0.05_trace.csv").read_bytes()


def test_center_damped_trace_out_matches_golden(tmp_path):
    trace = tmp_path / "trace.csv"
    name = "center_eigenbasis-diag_0.05_damping0.25"
    assert python_m(["center", "--potential", "eigenbasis-diag", "--scale", "0.05",
                     "--damping", "0.25", "--trace-out", str(trace)]) == (
        0, (GOLDEN / f"{name}.json").read_bytes(), "")
    assert trace.read_bytes() == (GOLDEN / f"{name}_trace.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_failure_exits_with_its_code_and_type(name, tmp_path):
    # in this process, twice, as for CASES (CI runs every row in a process of its own)
    _, _, code, kind = FAILURES[name]
    for _ in range(2):
        assert failure_outcome(run_in_process, name, tmp_path) == (code, "", kind)


def test_failure_exit_status_of_a_process(tmp_path):
    # python -m cpnbergman: the exit status the process returns, and its empty stderr
    _, _, code, kind = FAILURES["density_fs_tol_1e-15"]
    assert failure_outcome(python_m, "density_fs_tol_1e-15", tmp_path) == (code, "", kind)


def test_golden_json_is_strict():
    for path in sorted(GOLDEN.glob("*.json")):
        strict_json(path.read_text(encoding="utf-8"))
