"""Command-line interface: exit codes, report schema, determinism, CSV."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthologic.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLatticeCheck:
    def test_quantum_pattern_and_exit_zero(self, capsys):
        code, out = run_cli(
            capsys, "lattice-check", "--dim1", "3", "--trials", "40", "--seed", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "orthologic/1"
        results = report["results"]
        assert results["orthomodular"]["holds"]
        assert results["distributive"]["failures"] > 0
        assert results["distributive"]["counterexample"] is not None
        assert not results["nondistributivity_witness"]["holds"]
        assert results["compatibility_criteria"]["agree"]
        assert results["de_morgan"]["holds"]

    def test_classical_all_laws_hold(self, capsys):
        code, out = run_cli(capsys, "lattice-check", "--classical", "--omega", "4")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["distributive"]
        assert results["orthomodular"]
        assert results["absorption"]
        assert results["atomic"]
        assert results["de_morgan"]

    def test_classical_past_the_old_cap(self, capsys):
        code, out = run_cli(capsys, "lattice-check", "--classical", "--omega", "7")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["prop_count"] == 128
        assert results["expected_pattern"]

    def test_byte_identical_reports_for_same_config(self, capsys):
        argv = ["lattice-check", "--dim1", "3", "--trials", "25", "--seed", "7"]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_different_seed_changes_report(self, capsys):
        _, first = run_cli(capsys, "lattice-check", "--trials", "25", "--seed", "1")
        _, second = run_cli(capsys, "lattice-check", "--trials", "25", "--seed", "2")
        assert first != second

    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattice-check", "--bogus"])
        assert exc.value.code == 2


class TestCompositeVerify:
    def test_quantum_untwisted(self, capsys):
        code, out = run_cli(
            capsys,
            "composite-verify",
            "--dim1", "3", "--dim2", "3", "--seed", "42", "--trials", "10",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert all(r["passed"] for r in results["axioms"])
        assert results["isomorphism"]["target"] == "H1xH2"
        assert results["isomorphism"]["passed"]

    def test_twisted(self, capsys):
        code, out = run_cli(
            capsys,
            "composite-verify",
            "--dim1", "3", "--dim2", "3", "--seed", "42", "--trials", "8", "--twist",
        )
        assert code == 0
        assert json.loads(out)["results"]["isomorphism"]["target"] == "H1xH2"

    def test_conjugated_first_factor_targets_dual(self, capsys):
        code, out = run_cli(
            capsys,
            "composite-verify",
            "--dim1", "3", "--dim2", "3", "--seed", "1", "--trials", "8",
            "--conjugate-h1",
        )
        assert code == 0
        assert json.loads(out)["results"]["isomorphism"]["target"] == "H1*xH2"

    def test_classical_product(self, capsys):
        code, out = run_cli(
            capsys, "composite-verify", "--classical", "--n1", "2", "--n2", "3"
        )
        assert code == 0
        classical = json.loads(out)["results"]["classical"]
        assert classical["passed"]
        assert classical["prop_count"] == 64

    def test_largest_exhaustive_product(self, capsys):
        code, out = run_cli(
            capsys, "composite-verify", "--classical", "--n1", "3", "--n2", "4"
        )
        assert code == 0
        classical = json.loads(out)["results"]["classical"]
        assert classical["prop_count"] == 4096
        assert classical["passed"]

    def test_small_quantum_dims_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["composite-verify", "--dim1", "2", "--dim2", "3"])
        assert exc.value.code == 2

    def test_deterministic(self, capsys):
        argv = [
            "composite-verify",
            "--dim1", "3", "--dim2", "3", "--seed", "9", "--trials", "6",
        ]
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestTruthDemo:
    def test_default_values(self, capsys):
        code, out = run_cli(capsys, "truth-demo")
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["value"] - 0.75) < 1e-12
        assert abs(results["complement_value"] - 0.25) < 1e-12
        assert results["classification"] == "probabilistic"

    def test_energy_table(self, capsys):
        code, out = run_cli(capsys, "truth-demo", "--energies", "--nmax", "5")
        assert code == 0
        energies = json.loads(out)["results"]["energies"]
        assert energies == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]

    def test_eigenfunction_csv_has_parity_symmetric_columns(self, capsys, tmp_path):
        target = tmp_path / "eig.csv"
        code, _ = run_cli(
            capsys,
            "truth-demo", "--eigenfunctions", "--nmax", "3", "--csv", str(target),
        )
        assert code == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "psi0", "psi1", "psi2", "psi3"]
        data = np.array([[float(x) for x in row] for row in rows[1:]])
        assert np.allclose(data[:, 0], -data[::-1, 0])
        for n in range(4):
            column = data[:, n + 1]
            assert np.allclose(column, (-1) ** n * column[::-1], atol=1e-9)

    def test_eigenfunctions_without_csv_is_usage_error(self, capsys):
        code = main(["truth-demo", "--eigenfunctions"])
        capsys.readouterr()
        assert code == 2

    def test_curve_csv(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _ = run_cli(capsys, "truth-demo", "--curve-csv", str(target))
        assert code == 0
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "p"]
        for row in rows[1:]:
            _, x, p = (float(v) for v in row)
            assert p * p / 2 + x * x / 2 == pytest.approx(0.5, abs=1e-9)


class TestToleranceOverride:
    def test_env_override_still_verifies(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOLOGIC_TOL", "1e-7")
        code, out = run_cli(
            capsys, "lattice-check", "--dim1", "3", "--trials", "10", "--seed", "3"
        )
        assert code == 0
        assert json.loads(out)["results"]["orthomodular"]["holds"]

    def test_absurdly_loose_tolerance_is_a_verification_failure(self, capsys, monkeypatch):
        # with eps_eq = 0.9 the inclusion bound 0.9 sqrt(3) exceeds the unit
        # residual of the C^3 witness's two planes, which then compare
        # equal, so the pattern check trips
        monkeypatch.setenv("ORTHOLOGIC_TOL", "0.9")
        code, out = run_cli(
            capsys, "lattice-check", "--dim1", "3", "--trials", "15", "--seed", "3"
        )
        assert code == 1
        assert json.loads(out)["results"]["nondistributivity_witness"]["holds"]

    def test_invalid_env_value_is_usage_error(self, capsys, monkeypatch):
        for raw in ("0", "1", "-1e-8", "nan", "abc"):  # eps_eq must lie in (0, 1)
            monkeypatch.setenv("ORTHOLOGIC_TOL", raw)
            with pytest.raises(SystemExit) as exc:
                main(["lattice-check", "--trials", "5"])
            assert exc.value.code == 2, raw
            assert "invalid ORTHOLOGIC_TOL" in capsys.readouterr().err

    def test_tight_tolerance_still_verifies(self, capsys, monkeypatch):
        # eps_eq = 1e-12 gives eps_rank = 1e-13, still well above rounding
        monkeypatch.setenv("ORTHOLOGIC_TOL", "1e-12")
        for dim in ("8", "16"):
            code, out = run_cli(capsys, "lattice-check", "--dim1", dim, "--trials", "20")
            assert code == 0
            assert json.loads(out)["results"]["expected_pattern"]
        code, out = run_cli(capsys, "composite-verify", "--twist", "--trials", "5")
        assert code == 0
        assert json.loads(out)["results"]["isomorphism"]["passed"]

    def test_bad_classical_sizes_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattice-check", "--classical", "--omega", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["composite-verify", "--classical", "--n1", "0"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["composite-verify", "--trials", "0"],
        ["composite-verify", "--trials", "-1"],
        ["lattice-check", "--trials", "0"],
        ["lattice-check", "--trials", "-3"],
        ["truth-demo", "--nmax", "1"],
        ["composite-verify", "--classical", "--n1", "3", "--n2", "5"],
        ["composite-verify", "--classical", "--n1", "13", "--n2", "1"],
        ["lattice-check", "--classical", "--omega", "9"],
    ],
)
def test_vacuous_or_invalid_runs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_module_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "orthologic", "composite-verify", "--classical",
         "--n1", "1", "--n2", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["classical"]["passed"]
