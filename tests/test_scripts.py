"""The experiment scripts under scripts/, called through their main()."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEigenvalueScan:
    def test_default_run_passes_its_gate(self, tmp_path, capsys):
        scan = _load("run_eigenvalue_scan")
        assert scan.main(["--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "n=3 admissible=[1]" in captured.out
        assert captured.err == ""
        assert (tmp_path / "eigenvalue_scan_n3.json").exists()

    def test_mismatch_fails_and_names_the_level(self, tmp_path, capsys, monkeypatch):
        # the checks were bare asserts, which python -O skips
        scan = _load("run_eigenvalue_scan")
        closed_form = scan.sigma_prime_closed_form

        def off_at_n2_k3(n, k, J):
            series = closed_form(n, k, J)
            return series * 2 if (n, k) == (2, 3) else series

        monkeypatch.setattr(scan, "sigma_prime_closed_form", off_at_n2_k3)
        monkeypatch.setattr(scan, "admissible_eigenvalue_scan", lambda n, k_max, J: {1, 4})
        assert scan.main(["--out-dir", str(tmp_path), "--n-max", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["eigenvalue scan failed at n=1 k=4: scan and division criterion disagree",
                       "eigenvalue scan failed at n=2 k=3: series differs from the closed form",
                       "eigenvalue scan failed at n=2 k=4: scan and division criterion disagree"]


class TestPerturbedA1:
    def test_default_run_passes_its_gate(self, tmp_path, capsys):
        a1 = _load("run_perturbed_a1")
        assert a1.main(["--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "eps=0.1 worst |a1_fit - rho/2| = 4.248e-03" in out
        assert (tmp_path / "perturbed_a1_eps0.05.csv").exists()

    def test_poor_fit_fails_and_names_the_bump(self, tmp_path, capsys):
        # m = 4..6 is far too small for a K = 2 fit: the gap is 3.8e-2 at
        # eps = 0.1, while eps = 0.05 stays under the gate at 6.4e-3
        a1 = _load("run_perturbed_a1")
        assert a1.main(["--out-dir", str(tmp_path), "--m-list", "4,5,6", "--K", "2"]) == 1
        err = capsys.readouterr().err
        assert "eps=0.1 (3.763e-02)" in err
        assert "eps=0.05" not in err


class TestCenteringTrace:
    def test_default_run_passes_its_gate(self, tmp_path, capsys):
        trace = _load("run_centering_trace")
        assert trace.main(["--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "gauge_diag: converged=True iters=4" in captured.out
        assert captured.err == ""
        assert (tmp_path / "centering_trace_gauge_diag.csv").exists()

    def test_unconverged_solve_fails_and_names_the_potential(self, tmp_path, capsys):
        # zero is exact at A = 0; the other two need four iterations
        trace = _load("run_centering_trace")
        assert trace.main(["--out-dir", str(tmp_path), "--max-iter", "1"]) == 1
        err = capsys.readouterr().err
        assert "eigenbasis_diag: not converged after 1 iterations" in err
        assert "gauge_diag: not converged" in err
        assert "zero" not in err
        assert (tmp_path / "centering_trace_eigenbasis_diag.csv").exists()

    def test_slow_steps_and_a_missed_fixed_point_fail(self):
        trace = _load("run_centering_trace")
        _, phi, B = trace.potentials(0.05)[2]
        state = trace.center(phi)
        assert trace.gate(state, B) == ""
        slow = replace(state, trace=state.trace[:2] + ((2, 0.6 * state.trace[1][1], 0.0),))
        assert trace.gate(slow, B) == "step ratio 0.600 above 1/2"
        near = trace.TracelessHermitian((1.0 + 1e-7) * B.matrix)
        assert trace.gate(state, near).startswith("A misses -B by 3.5")

    def test_a_state_off_the_closed_form_centre_fails(self):
        # eigenbasis_diag reaches A* within 1.2e-12; moving A by 1e-6 trips the gate
        trace = _load("run_centering_trace")
        _, phi, _ = trace.potentials(0.05)[1]
        state = trace.center(phi)
        centre = trace.closed_form_centre([0.0, 0.0, 0.05])
        assert trace.gate(state, None, centre) == ""
        moved = replace(state, A=trace.TracelessHermitian(state.A.matrix + np.diag([1e-6, -1e-6])))
        assert trace.gate(moved, None, centre).startswith("A misses the closed-form centre by 1.0")
