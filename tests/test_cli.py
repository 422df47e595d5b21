"""End-to-end command line checks via subprocess, plus the fs-check comparison."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpnbergman import RadialMetric, bergman_density, fit_expansion
from cpnbergman.density import _domain
from cpnbergman.cli import (_COMMANDS, _build_parser, _effective_config, _fit_samples,
                            _fs_norm_rel_error, _max_abs, main)

GOLDEN = Path(__file__).with_name("golden")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cpnbergman", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


class TestConvertPoly:
    def test_third_row(self):
        proc = run_cli("convert-poly", "--n", "1", "--K", "3")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["rows"][2] == ["0/1", "8/1", "10/1", "1/1"]

    def test_deterministic_output(self):
        a = run_cli("convert-poly", "--n", "2", "--K", "4")
        b = run_cli("convert-poly", "--n", "2", "--K", "4")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


class TestVariation:
    def test_first_eigenvalue_series(self):
        proc = run_cli("variation", "--n", "1", "--lambda", "2")
        payload = json.loads(proc.stdout)
        assert payload["series"]["lead"] == 2
        assert payload["series"]["coeffs"][:3] == ["1/1", "1/1", "0/1"]
        assert payload["scan"]["admissible"] == [1]

    def test_rational_eigenvalue_flag(self):
        proc = run_cli("variation", "--n", "1", "--lambda", "7/2", "--J", "3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["lambda"] == "7/2"


class TestPolynomiality:
    def test_table_true_only_at_one(self):
        proc = run_cli("polynomiality", "--n", "1", "--k0-max", "5")
        table = json.loads(proc.stdout)["table"]
        assert [row["polynomial"] for row in table] == [True] + [False] * 4


class TestFsCheck:
    def test_cp1_report_passes(self):
        proc = run_cli("fs-check", "--n", "1", "--m-max", "8")
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert payload["max_density_deviation"] < 1e-9

    def test_norm_error_in_log_space_past_underflow(self):
        # at m = 1120 the smallest Beta norms are 0.0 as floats, so a linear
        # ratio is 0/0; the log-space comparison still sees the error
        m = 1120
        res = bergman_density(RadialMetric.fubini_study(), m, [0.0])
        assert np.exp(res.log_norms).min() == 0.0
        assert _fs_norm_rel_error(res.log_norms, m) < 1e-10
        skewed = res.log_norms.copy()
        skewed[m // 2] += 1e-6
        assert _fs_norm_rel_error(skewed, m) == pytest.approx(1e-6, rel=1e-3)

    def test_nan_fails_the_check(self):
        m = 1120
        logn = np.full(m + 1, np.nan)
        assert _fs_norm_rel_error(logn, m) == math.inf
        assert max(0.0, _max_abs([0.0, np.nan])) == math.inf

    def test_cp2_monomial_identity(self):
        proc = run_cli("fs-check", "--n", "2", "--m-max", "3")
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True

    def test_cp2_checks_every_index_up_to_m_max(self):
        # --n 2 once checked m <= 6 only, whatever --m-max said, and printed "m_max": 6
        proc = run_cli("fs-check", "--n", "2", "--m-max", "9")
        payload = json.loads(proc.stdout)
        assert proc.returncode == 0
        assert payload["m_max"] == 9
        assert payload["pass"] is True


class TestDensityAndFit:
    def test_density_csv_then_fit(self, tmp_path):
        csv_path = tmp_path / "dens.csv"
        proc = run_cli(
            "density",
            "--metric", "eigenfunction-bump",
            "--eps", "0.1",
            "--m-list", "20,30,40,50,60",
            "--grid", "0,0.5,1.0",
            "--out", str(csv_path),
        )
        assert proc.returncode == 0, proc.stderr
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[0] == "s"

        fit = run_cli(
            "fit",
            "--samples", str(csv_path),
            "--at-s", "0.5",
            "--n", "1",
            "--K", "2",
        )
        assert fit.returncode == 0, fit.stderr
        payload = json.loads(fit.stdout)
        a1 = float(payload["coeffs"][1])
        assert abs(a1 - 1.0) < 0.1

    def test_fit_at_s_inf_reads_the_inf_row(self, tmp_path, capsys):
        # abs(inf - inf) is nan, so the s = inf row written by density was
        # never selected: "no grid row at s = inf (closest is 0.0)", exit 2
        csv_path = tmp_path / "dens.csv"
        assert main(["density", "--metric", "eigenfunction-bump", "--eps", "0.1",
                     "--m-list", "20,30,40,50", "--grid", "0,1,inf", "--out", str(csv_path)]) == 0
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert rows[2][0] == "inf"
        want = list(zip([20, 30, 40, 50], map(float, rows[2][1:])))
        assert _fit_samples(csv_path, math.inf) == want
        assert main(["fit", "--samples", str(csv_path), "--at-s", "inf", "--K", "2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["coeffs"]) == 3

    def test_fit_at_s_nan_exit_2(self, tmp_path, capsys):
        # a nan at_s once fitted the s = 0 row and exited 0
        csv_path = tmp_path / "dens.csv"
        assert main(["density", "--metric", "fs", "--m-list", "20,30,40",
                     "--grid", "0,1", "--out", str(csv_path)]) == 0
        assert main(["fit", "--samples", str(csv_path), "--at-s", "nan"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError" and "nan" in error["message"]

    @pytest.mark.parametrize("at_s", ["0.5", "7.0"])
    def test_fit_nan_s_row_exit_2(self, tmp_path, capsys, at_s):
        # a first row at s = nan was never replaced (gap < nan is false) and
        # passed the 1e-9 check, so every at_s fitted that row
        csv_path = tmp_path / "dens.csv"
        csv_path.write_text("s,Pi_m10,Pi_m20\nnan,1,2\n0.5,3,4\n")
        with pytest.raises(ValueError, match="s = nan"):
            _fit_samples(csv_path, float(at_s))
        assert main(["fit", "--samples", str(csv_path), "--at-s", at_s, "--K", "1"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError" and "s = nan" in error["message"]

    @pytest.mark.parametrize("row", ["0.5,11.0,21.0", "0.5,11.0,21.0,31.0,41.0"],
                             ids=["short", "long"])
    def test_fit_ragged_row_exit_2(self, tmp_path, capsys, row):
        # a row with fewer or more cells than its header once fitted the m
        # values it had in common with it (K = 1 on two samples) and exited 0
        csv_path = tmp_path / "dens.csv"
        csv_path.write_text(f"s,Pi_m10,Pi_m20,Pi_m30\n0.0,1.0,2.0,3.0\n{row}\n")
        message = f"line 3 has {row.count(',') + 1} cells, its header 4"
        with pytest.raises(ValueError, match=message):
            _fit_samples(csv_path, 0.5)
        assert main(["fit", "--samples", str(csv_path), "--at-s", "0.5", "--K", "1"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError" and message in error["message"]

    def test_fit_m_0_sample_exit_2(self, tmp_path, capsys):
        # m = 0 is in the density's domain, but a fit over it once raised
        # ZeroDivisionError and exited 1 with a traceback
        csv_path = tmp_path / "dens.csv"
        assert main(["density", "--m-list", "0,10,20", "--grid", "0,1",
                     "--out", str(csv_path)]) == 0
        capsys.readouterr()
        two_column = tmp_path / "samples.csv"
        two_column.write_text("m,value\n0,1.0\n10,11.0\n20,21.0\n")
        for args in (["--samples", str(csv_path), "--at-s", "1", "--K", "1"],
                     ["--samples", str(two_column), "--K", "1"]):
            assert main(["fit", *args]) == 2
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["type"] == "ValueError" and "m must be positive" in error["message"]

    def test_fit_empty_samples_exit_2(self, tmp_path, capsys):
        # an empty file once exited 1 with a StopIteration traceback
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("")
        assert main(["fit", "--samples", str(csv_path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError" and error["message"] == "samples CSV is empty"

    @pytest.mark.parametrize("m_list,header", [("10,20,30", "s,Pi_m10,Pi_m20,Pi_m30"),
                                               ("10", "s,Pi_m10")])
    def test_fit_density_csv_without_at_s_exit_2(self, tmp_path, capsys, m_list, header):
        # without --at-s the file is read as m, value rows: a density CSV once
        # exited 0 there, its s column fitted as m, and with one m column it still did
        csv_path = tmp_path / "dens.csv"
        assert main(["density", "--m-list", m_list, "--grid", "0.5,1,2",
                     "--out", str(csv_path)]) == 0
        capsys.readouterr()
        assert main(["fit", "--samples", str(csv_path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == (f"samples CSV line 1 is '{header}': expected the header "
                                    "m,value (a density CSV needs --at-s)")

    def test_fit_non_finite_sample_exit_2(self, tmp_path, capsys):
        # 1.0e400 reads as inf: the fit once printed NaN, which is not JSON, and exited 0
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("m,value\n10,1.0e400\n20,21.0\n30,31.0\n")
        assert main(["fit", "--samples", str(csv_path), "--K", "1"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert "sample value must be finite, got inf at m = 10" in error["message"]

    @pytest.mark.parametrize("m, shown", [("1e400", "1e+400"), ("1e-320", "1e-320")])
    def test_fit_m_past_float_range_exit_2(self, tmp_path, capsys, m, shown):
        # m reads exactly: 1e400 once exited 1 with an OverflowError traceback at
        # float(m), and 1e-320 at m ** -1
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text(f"m,value\n{m},2.0\n20,21.0\n30,31.0\n")
        assert main(["fit", "--samples", str(csv_path), "--K", "1"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == (f"sample m = {shown} is outside float range: "
                                    "m and m^-1 must be finite, and m^1 finite and nonzero")

    def test_density_deterministic(self, tmp_path):
        out = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            proc = run_cli(
                "density",
                "--metric", "rational-bump",
                "--eps", "0.2",
                "--m-list", "12",
                "--grid", "0,1,4",
                "--out", str(path),
            )
            assert proc.returncode == 0
            out.append(path.read_bytes())
        assert out[0] == out[1]


class TestSamplesReader:
    """_fit_samples, the one reader of fit's m,value files and density CSVs."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("m,value\n10,11.0\n\n20,21.0\n30,31.0\n")  # a blank row is skipped
        samples = _fit_samples(path, None)
        assert samples == [(10, 11.0), (20, 21.0), (30, 31.0)]
        fit = fit_expansion(samples, 1, 2)
        assert fit.coeffs == pytest.approx([1.0, 1.0, 0.0], abs=1e-10)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,value\n10\n")
        with pytest.raises(ValueError, match="line 2 has 1 cells, its header 2$"):
            _fit_samples(path, None)
        path.write_text("m\n10\n")
        with pytest.raises(ValueError, match="line 1 is 'm': expected the header m,value$"):
            _fit_samples(path, None)
        # an empty file once raised StopIteration
        path.write_text("")
        with pytest.raises(ValueError, match="samples CSV is empty"):
            _fit_samples(path, None)
        # a density CSV once passed, its s column read as m, with one m column as with
        # three, and so did a row's third cell
        for header, row in (("s,Pi_m10,Pi_m20,Pi_m30", "0.5,11.0,21.0,31.0"),
                            ("s,Pi_m10", "0.5,11.0")):
            path.write_text(f"{header}\n{row}\n")
            with pytest.raises(ValueError, match=f"line 1 is '{header}': expected the header "
                               r"m,value \(a density CSV needs --at-s\)"):
                _fit_samples(path, None)
        path.write_text("n,value\n10,11.0\n")
        with pytest.raises(ValueError, match="line 1 is 'n,value': expected the header m,value$"):
            _fit_samples(path, None)
        path.write_text("m,value\n10,1/0\n")  # once a ZeroDivisionError
        with pytest.raises(ValueError, match=r"zero denominator: Fraction\(1, 0\)$"):
            _fit_samples(path, None)
        path.write_text("m,value\n10,11.0\n\n10,11.0,99\n")
        with pytest.raises(ValueError, match="line 4 has 3 cells, its header 2$"):
            _fit_samples(path, None)

    @pytest.mark.parametrize("header, row, at_s", [("m,value", "10,11.0", None),
                                                   ("s,Pi_m10", "0.5,11.0", 0.5)],
                             ids=["m-value", "density"])
    def test_one_row_rule_for_both_formats(self, tmp_path, header, row, at_s):
        # a whitespace-only row was an error in m,value files and skipped in density CSVs
        path = tmp_path / "samples.csv"
        path.write_bytes(f"{header}\r\n   \r\n{row}\r\n,\t\r\n".encode())
        assert _fit_samples(path, at_s) == [(10, 11.0)]
        path.write_text(f"{header}\n\n{row},99\n")
        with pytest.raises(ValueError, match="samples CSV line 3 has 3 cells, its header 2$"):
            _fit_samples(path, at_s)


class TestFirstVariationCommand:
    def test_eigenfunction_report(self):
        proc = run_cli(
            "first-variation",
            "--phi", "eigenfunction-bump",
            "--eps", "1.0",
            "--m", "20",
        )
        payload = json.loads(proc.stdout)
        assert abs(payload["formula_value"]) < 1e-6
        assert payload["m"] == 20


class TestCenterCommand:
    def test_gauge_potential_with_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        proc = run_cli(
            "center",
            "--potential", "gauge-diag",
            "--scale", "0.05",
            "--trace-out", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["converged"] is True
        assert payload["residual_norm"] < 1e-8
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,step_norm,residual_norm"
        assert len(lines) == payload["iterations"] + 2


class TestConfigMerge:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "K": 2}))
        proc = run_cli("convert-poly", "--config", str(cfg), "--K", "3")
        payload = json.loads(proc.stdout)
        assert len(payload["rows"]) == 3

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "K": 2}))
        proc = run_cli("convert-poly", "--config", str(cfg))
        payload = json.loads(proc.stdout)
        assert payload["n"] == 2

    def test_every_flag_is_a_config_key(self, tmp_path):
        # a config key is the flag name, written with dashes or underscores
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        cfg = tmp_path / "cfg.json"
        for name, subparser in sub.choices.items():
            for action in subparser._actions:
                flag = action.option_strings[-1] if action.option_strings else ""
                if not flag.startswith("--") or flag in ("--help", "--config", "--out"):
                    continue
                # a switch takes only true or false from a config
                value = True if action.const is True else "from-config"
                for key in (flag[2:], flag[2:].replace("-", "_")):
                    cfg.write_text(json.dumps({key: value}))
                    ns = parser.parse_args([name, "--config", str(cfg)])
                    merged = _effective_config(ns, _COMMANDS[name][1])
                    assert merged[action.dest] == value, (name, key)

    def test_lambda_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "lambda": "7/3", "J": 12, "centered": True}))
        proc = run_cli("variation", "--config", str(cfg))
        assert proc.returncode == 0, proc.stdout
        golden = GOLDEN / "variation_n2_lambda7-3_J12_centered.json"
        assert proc.stdout == golden.read_text(encoding="utf-8")

    def test_center_has_no_eta(self, tmp_path, capsys):
        # the C0 threshold is gone: neither the flag nor the config key exists
        with pytest.raises(SystemExit) as info:
            main(["center", "--eta", "2"])
        assert info.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.1}))
        assert main(["center", "--config", str(cfg)]) == 2
        assert "unknown config key 'eta'" in json.loads(capsys.readouterr().out)["error"]["message"]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        proc = run_cli("convert-poly", "--config", str(cfg))
        assert proc.returncode == 2

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_switch_takes_only_a_boolean(self, tmp_path, capsys, value):
        # bool("false") is True: a string must not turn the switch on
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"centered": value, "unnormalized": False}))
        assert main(["variation", "--config", str(cfg)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert "'centered' is a switch" in error["message"]

    @pytest.mark.parametrize("command,key,value", [
        ("convert-poly", "n", 1.7), ("convert-poly", "K", True),
        ("variation", "J", 12.5), ("center", "max_iter", "4.0"), ("polynomiality", "k0_max", None),
    ])
    def test_integer_parameter_rejects_non_integers(self, tmp_path, capsys, command, key, value):
        # int(1.7) would truncate to the n = 1 table, where --n 1.7 exits 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("command,config,key", [
        ("center", {"tol": True, "potential": "eigenbasis-diag"}, "tol"),
        ("first-variation", {"phi": "eigenfunction-bump", "eps": False}, "eps"),
        ("center", {"scale": None}, "scale"),
        ("density", {"metric": "rational-bump", "eps": [0.1], "m_list": "5", "grid": "0"}, "eps"),
        ("fit", {"samples": "unread.csv", "at_s": True}, "at_s"),
    ])
    def test_float_parameter_rejects_non_numbers(self, tmp_path, capsys, command, config, key):
        # float(True) is 1.0: {"tol": true} once ran a solve at tol 1.0 and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert repr(key) in error["message"]

    def test_integral_config_numbers_are_integers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1.0, "K": "3"}))
        assert main(["convert-poly", "--config", str(cfg)]) == 0
        golden = GOLDEN / "convert-poly_n1_K3.json"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


class TestErrorChannels:
    def test_config_error_exit_2(self):
        proc = run_cli("density", "--metric", "no-such-family", "--m-list", "5")
        assert proc.returncode == 2
        err = json.loads(proc.stdout or proc.stderr)
        assert "error" in err

    def test_density_grid_outside_domain_exit_2(self, capsys):
        # this grid once printed a number, nan and nan and exited 0
        args = ["density", "--metric", "eigenfunction-bump", "--eps", "0.1", "--m-list", "30",
                "--grid=-0.5,nan,inf"]
        assert main(args) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError" and "outside [0, inf]" in error["message"]

    @pytest.mark.parametrize("args", [
        ["density", "--m-list", "-1", "--grid", "0"],
        ["density", "--m-list", "5", "--grid", "0", "--tol", "0"],
        ["density", "--m-list", "5", "--grid", "0", "--tol=-1"],
        ["first-variation", "--phi", "fs", "--m=-3"],
        ["fs-check", "--m-max=-1"],
        ["fs-check", "--n", "2", "--m-max=-1"],
        ["center", "--damping", "0"],
        ["center", "--potential", "eigenbasis-diag", "--damping=-0.5"],
        ["center", "--potential", "eigenbasis-diag", "--tol=-1"],
        ["center", "--damping", "1"],
        ["center", "--potential", "eigenbasis-diag", "--damping", "1.5"],
        # non-finite inputs: each once exited 3 or 4, or 2 with numpy's message
        ["center", "--potential", "eigenbasis-diag", "--scale", "nan"],
        ["density", "--metric", "eigenfunction-bump", "--eps", "inf", "--m-list", "5",
         "--grid", "0"],
        ["density", "--metric", "phi1-poly", "--coeffs", "0,0.05,nan", "--m-list", "5",
         "--grid", "0"],
        # an infinite tol: center once reported converged at iteration 0, with A = 0,
        # and density returned an unrefined pass
        ["center", "--potential", "eigenbasis-diag", "--tol", "inf"],
        ["density", "--m-list", "5", "--grid", "0", "--tol", "inf"],
        ["polynomiality", "--n", "0"],
        # negative counts: each once exited 0 with an empty table, or with
        # no iteration at all for the zero potential
        ["center", "--potential", "zero", "--max-iter=-1"],
        ["center", "--potential", "eigenbasis-diag", "--max-iter=-1"],
        ["polynomiality", "--k0-max=-1"],
        ["variation", "--k-max=-3"],
    ])
    def test_outside_the_domain_exit_2(self, capsys, args):
        # each once exited 0 with zeros or "pass": true, or ran to exit 3 or 4
        assert main(args) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"

    @pytest.mark.parametrize("flags,message", [
        (["--K=-1"], "K = -1 is negative"),
        (["--vanishing-tol", "nan"], "tol must be positive"),
        (["--vanishing-tol", "0"], "tol must be positive"),
        (["--vanishing-tol", "inf"], "tol must be positive and finite"),
    ])
    def test_fit_outside_the_domain_exit_2(self, tmp_path, capsys, flags, message):
        # --K -1 once exited 2 on numpy's "cond is not defined on empty arrays",
        # and --vanishing-tol nan or inf exited 0 with "tol": NaN or Infinity,
        # which is not JSON
        samples = tmp_path / "samples.csv"
        samples.write_text("m,value\n20,21\n30,31\n40,41\n")
        assert main(["fit", "--samples", str(samples)] + flags) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    @pytest.mark.parametrize("potential", ["zero", "gauge-diag", "eigenbasis-diag"])
    def test_non_finite_scale_exit_2_with_empty_stderr(self, potential, scale):
        # the diagonal potentials once printed numpy's "invalid value"
        # RuntimeWarnings on stderr before the non-finite Phi was rejected, and
        # the zero potential, which never reads scale, exited 0 with "scale": NaN
        proc = run_cli("center", "--potential", potential, "--scale", scale)
        assert proc.returncode == 2
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == f"scale must be finite, got {scale}"

    def test_lambda_zero_denominator_exit_2(self):
        # Fraction("1/0") once escaped as a ZeroDivisionError traceback, exit 1
        proc = run_cli("variation", "--lambda", "1/0")
        assert proc.returncode == 2
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == "lambda = 1/0 has a zero denominator"

    def test_computation_error_exit_3(self):
        proc = run_cli(
            "density", "--metric", "eigenfunction-bump", "--eps", "0.9", "--m-list", "5"
        )
        assert proc.returncode == 3
        err = json.loads(proc.stdout or proc.stderr)
        assert err["error"]["type"] == "PositivityError"

    def test_quadrature_error_exit_3_with_empty_stderr(self):
        # the shifted rows of this bump overflow past the stated domain
        proc = run_cli("density", "--metric", "eigenfunction-bump", "--eps", "0.45",
                       "--m-list", "26000", "--grid", "0")
        assert proc.returncode == 3
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "QuadratureError"
        assert error["message"].endswith("; the stated domain for perturbed metrics is "
                                         + _domain("perturbed metrics") + ")")

    def test_nonconvergence_exit_4(self):
        proc = run_cli(
            "center",
            "--potential", "eigenbasis-diag",
            "--scale", "0.05",
            "--tol", "1e-14",
            "--max-iter", "2",
        )
        assert proc.returncode == 4
        err = json.loads(proc.stdout or proc.stderr)
        assert err["error"]["type"] == "NonConvergenceError"
        assert err["error"]["iterations"] == 2

    def test_no_centre_exit_4_before_the_first_step(self, capsys):
        # |Phi| = 1 is past sqrt(3)/2 > |R|: this once ran all 50 steps and
        # stopped at the residual 1 - sqrt(3)/2
        args = ["center", "--potential", "eigenbasis-diag", "--scale", "1"]
        assert main(args) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "NonConvergenceError"
        assert "|Phi| = 1 is not below sqrt(3)/2" in error["message"]
        assert error["iterations"] == 0
        assert error["residual_norm"] == pytest.approx(1.0, rel=1e-15)
