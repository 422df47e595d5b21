"""End-to-end command line checks, run in process through cli_runner, plus the
fs-check comparison."""

import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest
from cli_runner import run_in_process

from cpnbergman import RadialMetric, bergman_density, fit_expansion
from cpnbergman.density import _domain
from cpnbergman.cli import (_COMMANDS, _build_parser, _effective_config, _fit_samples,
                            _fs_norm_rel_error, _max_abs)

GOLDEN = Path(__file__).with_name("golden")


def cli_json(argv, code=0):
    """The JSON that the command line prints on argv, which must exit with code and
    leave stderr empty."""
    exit_code, out, err = run_in_process(argv)
    assert (exit_code, err) == (code, ""), out
    return json.loads(out)


class TestConvertPoly:
    def test_third_row(self):
        payload = cli_json(["convert-poly", "--n", "1", "--K", "3"])
        assert payload["rows"][2] == ["0/1", "8/1", "10/1", "1/1"]

    def test_deterministic_output(self):
        a = run_in_process(["convert-poly", "--n", "2", "--K", "4"])
        b = run_in_process(["convert-poly", "--n", "2", "--K", "4"])
        assert a == b and a[0] == 0


class TestVariation:
    def test_first_eigenvalue_series(self):
        payload = cli_json(["variation", "--n", "1", "--lambda", "2"])
        assert payload["series"]["lead"] == 2
        assert payload["series"]["coeffs"][:3] == ["1/1", "1/1", "0/1"]
        assert payload["scan"]["admissible"] == [1]

    def test_rational_eigenvalue_flag(self):
        assert cli_json(["variation", "--n", "1", "--lambda", "7/2", "--J", "3"])["lambda"] == "7/2"


class TestPolynomiality:
    def test_table_true_only_at_one(self):
        table = cli_json(["polynomiality", "--n", "1", "--k0-max", "5"])["table"]
        assert [row["polynomial"] for row in table] == [True] + [False] * 4


class TestFsCheck:
    def test_cp1_report_passes(self):
        payload = cli_json(["fs-check", "--n", "1", "--m-max", "8"])
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
        assert cli_json(["fs-check", "--n", "2", "--m-max", "3"])["pass"] is True

    def test_cp2_checks_every_index_up_to_m_max(self):
        # --n 2 once checked m <= 6 only, whatever --m-max said, and printed "m_max": 6
        payload = cli_json(["fs-check", "--n", "2", "--m-max", "9"])
        assert payload["m_max"] == 9
        assert payload["pass"] is True


class TestDensityAndFit:
    def test_density_csv_then_fit(self, tmp_path):
        csv_path = tmp_path / "dens.csv"
        assert run_in_process(["density", "--metric", "eigenfunction-bump", "--eps", "0.1",
                               "--m-list", "20,30,40,50,60", "--grid", "0,0.5,1.0",
                               "--out", str(csv_path)]) == (0, b"", "")
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[0] == "s"

        payload = cli_json(["fit", "--samples", str(csv_path), "--at-s", "0.5", "--n", "1",
                            "--K", "2"])
        a1 = float(payload["coeffs"][1])
        assert abs(a1 - 1.0) < 0.1

    def test_fit_at_s_inf_reads_the_inf_row(self, tmp_path):
        # abs(inf - inf) is nan, so the s = inf row written by density was
        # never selected: "no grid row at s = inf (closest is 0.0)", exit 2
        csv_path = tmp_path / "dens.csv"
        assert run_in_process(["density", "--metric", "eigenfunction-bump", "--eps", "0.1",
                               "--m-list", "20,30,40,50", "--grid", "0,1,inf",
                               "--out", str(csv_path)])[0] == 0
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert rows[2][0] == "inf"
        want = list(zip([20, 30, 40, 50], map(float, rows[2][1:])))
        assert _fit_samples(csv_path, math.inf) == want
        assert len(cli_json(["fit", "--samples", str(csv_path), "--at-s", "inf",
                             "--K", "2"])["coeffs"]) == 3

    def test_fit_at_s_nan_exit_2(self, tmp_path):
        # a nan at_s once fitted the s = 0 row and exited 0
        csv_path = tmp_path / "dens.csv"
        assert run_in_process(["density", "--metric", "fs", "--m-list", "20,30,40",
                               "--grid", "0,1", "--out", str(csv_path)])[0] == 0
        error = cli_json(["fit", "--samples", str(csv_path), "--at-s", "nan"], 2)["error"]
        assert error["type"] == "ValueError" and "nan" in error["message"]

    @pytest.mark.parametrize("at_s", ["0.5", "7.0"])
    def test_fit_nan_s_row_exit_2(self, tmp_path, at_s):
        # a first row at s = nan was never replaced (gap < nan is false) and
        # passed the 1e-9 check, so every at_s fitted that row
        csv_path = tmp_path / "dens.csv"
        csv_path.write_text("s,Pi_m10,Pi_m20\nnan,1,2\n0.5,3,4\n")
        with pytest.raises(ValueError, match="s = nan"):
            _fit_samples(csv_path, float(at_s))
        error = cli_json(["fit", "--samples", str(csv_path), "--at-s", at_s, "--K", "1"],
                         2)["error"]
        assert error["type"] == "ValueError" and "s = nan" in error["message"]

    @pytest.mark.parametrize("row", ["0.5,11.0,21.0", "0.5,11.0,21.0,31.0,41.0"],
                             ids=["short", "long"])
    def test_fit_ragged_row_exit_2(self, tmp_path, row):
        # a row with fewer or more cells than its header once fitted the m
        # values it had in common with it (K = 1 on two samples) and exited 0
        csv_path = tmp_path / "dens.csv"
        csv_path.write_text(f"s,Pi_m10,Pi_m20,Pi_m30\n0.0,1.0,2.0,3.0\n{row}\n")
        message = f"line 3 has {row.count(',') + 1} cells, its header 4"
        with pytest.raises(ValueError, match=message):
            _fit_samples(csv_path, 0.5)
        error = cli_json(["fit", "--samples", str(csv_path), "--at-s", "0.5", "--K", "1"],
                         2)["error"]
        assert error["type"] == "ValueError" and message in error["message"]

    def test_fit_m_0_sample_exit_2(self, tmp_path):
        # m = 0 is in the density's domain, but a fit over it once raised
        # ZeroDivisionError and exited 1 with a traceback
        csv_path = tmp_path / "dens.csv"
        assert run_in_process(["density", "--m-list", "0,10,20", "--grid", "0,1",
                               "--out", str(csv_path)])[0] == 0
        two_column = tmp_path / "samples.csv"
        two_column.write_text("m,value\n0,1.0\n10,11.0\n20,21.0\n")
        for args in (["--samples", str(csv_path), "--at-s", "1", "--K", "1"],
                     ["--samples", str(two_column), "--K", "1"]):
            error = cli_json(["fit", *args], 2)["error"]
            assert error["type"] == "ValueError" and "m must be positive" in error["message"]

    def test_fit_empty_samples_exit_2(self, tmp_path):
        # an empty file once exited 1 with a StopIteration traceback
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("")
        error = cli_json(["fit", "--samples", str(csv_path)], 2)["error"]
        assert error["type"] == "ValueError" and error["message"] == "samples CSV is empty"

    @pytest.mark.parametrize("m_list,header", [("10,20,30", "s,Pi_m10,Pi_m20,Pi_m30"),
                                               ("10", "s,Pi_m10")])
    def test_fit_density_csv_without_at_s_exit_2(self, tmp_path, m_list, header):
        # without --at-s the file is read as m, value rows: a density CSV once
        # exited 0 there, its s column fitted as m, and with one m column it still did
        csv_path = tmp_path / "dens.csv"
        assert run_in_process(["density", "--m-list", m_list, "--grid", "0.5,1,2",
                               "--out", str(csv_path)])[0] == 0
        error = cli_json(["fit", "--samples", str(csv_path)], 2)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == (f"samples CSV line 1 is '{header}': expected the header "
                                    "m,value (a density CSV needs --at-s)")

    def test_fit_non_finite_sample_exit_2(self, tmp_path):
        # 1.0e400 reads as inf: the fit once printed NaN, which is not JSON, and exited 0
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text("m,value\n10,1.0e400\n20,21.0\n30,31.0\n")
        error = cli_json(["fit", "--samples", str(csv_path), "--K", "1"], 2)["error"]
        assert error["type"] == "ValueError"
        assert "sample value must be finite, got inf at m = 10" in error["message"]

    @pytest.mark.parametrize("m, shown", [("1e400", "1e+400"), ("1e-320", "1e-320")])
    def test_fit_m_past_float_range_exit_2(self, tmp_path, m, shown):
        # m reads exactly: 1e400 once exited 1 with an OverflowError traceback at
        # float(m), and 1e-320 at m ** -1
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text(f"m,value\n{m},2.0\n20,21.0\n30,31.0\n")
        error = cli_json(["fit", "--samples", str(csv_path), "--K", "1"], 2)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == (f"sample m = {shown} is outside float range: "
                                    "m and m^-1 must be finite, and m^1 finite and nonzero")

    def test_density_deterministic(self, tmp_path):
        out = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert run_in_process(["density", "--metric", "rational-bump", "--eps", "0.2",
                                   "--m-list", "12", "--grid", "0,1,4",
                                   "--out", str(path)])[0] == 0
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
        payload = cli_json(["first-variation", "--phi", "eigenfunction-bump", "--eps", "1.0",
                            "--m", "20"])
        assert abs(payload["formula_value"]) < 1e-6
        assert payload["m"] == 20


class TestCenterCommand:
    def test_gauge_potential_with_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        payload = cli_json(["center", "--potential", "gauge-diag", "--scale", "0.05",
                            "--trace-out", str(trace)])
        assert payload["converged"] is True
        assert payload["residual_norm"] < 1e-8
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,step_norm,residual_norm"
        assert len(lines) == payload["iterations"] + 2


class TestConfigMerge:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "K": 2}))
        assert len(cli_json(["convert-poly", "--config", str(cfg), "--K", "3"])["rows"]) == 3

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "K": 2}))
        assert cli_json(["convert-poly", "--config", str(cfg)])["n"] == 2

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
        golden = GOLDEN / "variation_n2_lambda7-3_J12_centered.json"
        assert run_in_process(["variation", "--config", str(cfg)]) == (0, golden.read_bytes(), "")

    def test_center_has_no_eta(self, tmp_path):
        # the C0 threshold is gone: neither the flag nor the config key exists
        code, out, err = run_in_process(["center", "--eta", "2"])
        assert (code, out) == (2, b"") and "unrecognized arguments: --eta 2" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.1}))
        error = cli_json(["center", "--config", str(cfg)], 2)["error"]
        assert "unknown config key 'eta'" in error["message"]

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run_in_process(["convert-poly", "--config", str(cfg)])[0] == 2

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_switch_takes_only_a_boolean(self, tmp_path, value):
        # bool("false") is True: a string must not turn the switch on
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"centered": value, "unnormalized": False}))
        error = cli_json(["variation", "--config", str(cfg)], 2)["error"]
        assert "'centered' is a switch" in error["message"]

    @pytest.mark.parametrize("command,key,value", [
        ("convert-poly", "n", 1.7), ("convert-poly", "K", True),
        ("variation", "J", 12.5), ("center", "max_iter", "4.0"), ("polynomiality", "k0_max", None),
    ])
    def test_integer_parameter_rejects_non_integers(self, tmp_path, command, key, value):
        # int(1.7) would truncate to the n = 1 table, where --n 1.7 exits 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert cli_json([command, "--config", str(cfg)], 2)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("command,config,key", [
        ("center", {"tol": True, "potential": "eigenbasis-diag"}, "tol"),
        ("first-variation", {"phi": "eigenfunction-bump", "eps": False}, "eps"),
        ("center", {"scale": None}, "scale"),
        ("density", {"metric": "rational-bump", "eps": [0.1], "m_list": "5", "grid": "0"}, "eps"),
        ("fit", {"samples": "unread.csv", "at_s": True}, "at_s"),
    ])
    def test_float_parameter_rejects_non_numbers(self, tmp_path, command, config, key):
        # float(True) is 1.0: {"tol": true} once ran a solve at tol 1.0 and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        error = cli_json([command, "--config", str(cfg)], 2)["error"]
        assert error["type"] == "ValueError"
        assert repr(key) in error["message"]

    def test_integral_config_numbers_are_integers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1.0, "K": "3"}))
        golden = (GOLDEN / "convert-poly_n1_K3.json").read_bytes()
        assert run_in_process(["convert-poly", "--config", str(cfg)]) == (0, golden, "")


class TestErrorChannels:
    def test_config_error_exit_2(self):
        assert "error" in cli_json(["density", "--metric", "no-such-family", "--m-list", "5"], 2)

    @pytest.mark.parametrize("argv,message", [
        (["density", "--no-such", "1"], "unrecognized arguments: --no-such 1"),
        ([], "the following arguments are required: command"),
    ], ids=["unknown-flag", "no-command"])
    def test_usage_error_exit_2(self, argv, message):
        # argparse's usage and message on stderr, and no JSON
        code, out, err = run_in_process(argv)
        assert (code, out) == (2, b"")
        assert err.startswith("usage: cpnbergman") and err.endswith(message + "\n")

    def test_density_grid_outside_domain_exit_2(self):
        # this grid once printed a number, nan and nan and exited 0
        args = ["density", "--metric", "eigenfunction-bump", "--eps", "0.1", "--m-list", "30",
                "--grid=-0.5,nan,inf"]
        error = cli_json(args, 2)["error"]
        assert error["type"] == "ValueError" and "outside [0, inf]" in error["message"]

    @pytest.mark.parametrize("flags,message", [
        (["--K=-1"], "K = -1 is negative"),
        (["--vanishing-tol", "nan"], "tol must be positive"),
        (["--vanishing-tol", "0"], "tol must be positive"),
        (["--vanishing-tol", "inf"], "tol must be positive and finite"),
    ])
    def test_fit_outside_the_domain_exit_2(self, tmp_path, flags, message):
        # --K -1 once exited 2 on numpy's "cond is not defined on empty arrays",
        # and --vanishing-tol nan or inf exited 0 with "tol": NaN or Infinity,
        # which is not JSON
        samples = tmp_path / "samples.csv"
        samples.write_text("m,value\n20,21\n30,31\n40,41\n")
        error = cli_json(["fit", "--samples", str(samples)] + flags, 2)["error"]
        assert error["type"] == "ValueError"
        assert message in error["message"]

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    @pytest.mark.parametrize("potential", ["zero", "gauge-diag", "eigenbasis-diag"])
    def test_non_finite_scale_exit_2_with_empty_stderr(self, potential, scale):
        # the diagonal potentials once printed numpy's "invalid value"
        # RuntimeWarnings on stderr before the non-finite Phi was rejected, and
        # the zero potential, which never reads scale, exited 0 with "scale": NaN
        error = cli_json(["center", "--potential", potential, "--scale", scale], 2)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == f"scale must be finite, got {scale}"

    def test_lambda_zero_denominator_exit_2(self):
        # Fraction("1/0") once escaped as a ZeroDivisionError traceback, exit 1
        error = cli_json(["variation", "--lambda", "1/0"], 2)["error"]
        assert error["type"] == "ValueError"
        assert error["message"] == "lambda = 1/0 has a zero denominator"

    def test_computation_error_exit_3(self):
        err = cli_json(["density", "--metric", "eigenfunction-bump", "--eps", "0.9",
                        "--m-list", "5"], 3)
        assert err["error"]["type"] == "PositivityError"

    def test_quadrature_error_exit_3_with_empty_stderr(self):
        # tol 1e-14 is past the stated domain at m = 20000: the pass stalls
        error = cli_json(["density", "--metric", "eigenfunction-bump", "--eps", "0.1",
                          "--m-list", "20000", "--grid", "0", "--tol", "1e-14"], 3)["error"]
        assert error["type"] == "QuadratureError"
        assert error["message"].endswith("; the stated domain for perturbed metrics is "
                                         + _domain("perturbed metrics") + ")")

    def test_nonconvergence_exit_4(self):
        err = cli_json(["center", "--potential", "eigenbasis-diag", "--scale", "0.05",
                        "--tol", "1e-14", "--max-iter", "2"], 4)
        assert err["error"]["type"] == "NonConvergenceError"
        assert err["error"]["iterations"] == 2

    def test_no_centre_exit_4_before_the_first_step(self):
        # |Phi| = 1 is past sqrt(3)/2 > |R|: this once ran all 50 steps and
        # stopped at the residual 1 - sqrt(3)/2
        error = cli_json(["center", "--potential", "eigenbasis-diag", "--scale", "1"], 4)["error"]
        assert error["type"] == "NonConvergenceError"
        assert "|Phi| = 1 is not below sqrt(3)/2" in error["message"]
        assert error["iterations"] == 0
        assert error["residual_norm"] == pytest.approx(1.0, rel=1e-15)
