"""The experiment scripts under scripts/, called through their main()."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
