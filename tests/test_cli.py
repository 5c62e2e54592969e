"""Command-line interface: exit codes, report schema, determinism, CSV."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthologic import cli, laws
from orthologic import subspace as sub
from orthologic.cli import main
from orthologic.core import DEFAULT_TOL, Tolerance, random_vector, subseed
from orthologic.errors import InvalidDimension, PreconditionViolated


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

    def test_eigenfunctions_without_csv_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["truth-demo", "--eigenfunctions", "--output", str(target)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: --eigenfunctions requires --csv PATH" in captured.err
        assert not target.exists()

    def test_csv_without_eigenfunctions_is_usage_error(self, capsys, tmp_path):
        table, target = tmp_path / "eig.csv", tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["truth-demo", "--csv", str(table), "--output", str(target)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: --csv requires --eigenfunctions" in captured.err
        assert list(tmp_path.iterdir()) == []

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
        ["lattice-check", "--dim1", "1"],
        ["truth-demo", "--curve-samples", "0"],
        ["truth-demo", "--curve-samples", "-4"],
    ],
)
def test_vacuous_or_invalid_runs_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice-check", "--dim1", "3", "--trials", "5", "--output"],
        ["truth-demo", "--eigenfunctions", "--csv"],
        ["truth-demo", "--curve-csv"],
    ],
)
def test_unwritable_path_is_a_usage_error(capsys, tmp_path, argv):
    code = main(argv + [str(tmp_path / "missing" / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice-check", "--dim1", "3", "--trials", "5"],
        ["lattice-check", "--classical", "--omega", "5"],
        ["composite-verify", "--dim1", "3", "--dim2", "3", "--trials", "5"],
        ["composite-verify", "--classical", "--n1", "3", "--n2", "4"],
        ["truth-demo"],
    ],
)
def test_an_unwritable_output_stops_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a report function ran")

    for name in ("_quantum_lattice_report", "_classical_lattice_report", "canonical_h",
                 "OscillatorModel"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.cl, "PhaseSpace", refuse)
    assert main(argv + ["--output", str(tmp_path / "missing" / "out.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] No such file or directory: ")


@pytest.mark.parametrize("bad", ["--curve-csv", "--output"])
def test_a_usage_error_writes_no_file(capsys, tmp_path, bad):
    argv = ["truth-demo", "--eigenfunctions", "--csv", str(tmp_path / "ok.csv"),
            "--curve-csv", str(tmp_path / "curve.csv"), bad, str(tmp_path / "missing" / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_output_file_holds_the_stdout_bytes(capsys, tmp_path):
    argv = ["composite-verify", "--dim1", "3", "--dim2", "3", "--trials", "5", "--seed", "4"]
    code, out = run_cli(capsys, *argv)
    target = tmp_path / "report.json"
    assert main(argv + ["--output", str(target)]) == code == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode("utf-8")


def test_library_error_inside_a_command_exits_one(capsys, monkeypatch):
    def refuse(*args):
        raise InvalidDimension("refused on purpose")

    monkeypatch.setattr(laws, "check_orthomodular", refuse)
    code = main(["lattice-check", "--dim1", "3", "--trials", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: refused on purpose\n"


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


# The per-trial fold lattice-check ran before it checked each law's trials
# as one batch, with the single-instance samplers of that time: the
# reference the batched report must reproduce.


def oracle_nested_pair(d, seed):
    rng = np.random.default_rng(seed)
    kq = int(rng.integers(1, d + 1))
    q = sub.random_subspace(d, kq, seed)
    kp = int(rng.integers(0, kq + 1))
    return sub.random_subspace_of(q, kp, seed + 1), q


def oracle_mixed_pair(d, mode, seed):
    if mode == 0:
        return sub.compatible_pair(d, seed)
    if mode == 1:
        (p,) = sub.random_family((d,), seed, proper=True)
        return p, sub.ortho(p)
    if mode == 2:
        return oracle_nested_pair(d, seed)
    p, q = sub.random_family((d, d), seed, proper=True)
    return p, q


def oracle_covering_instance(d, seed):
    rng = np.random.default_rng(seed)
    a = sub.random_subspace(d, int(rng.integers(0, d - 1)), seed)
    return a, sub.Ray.from_vector(random_vector(d, seed + 1))


ORACLE_SAMPLERS = {
    "orthomodular": lambda d, t, s: oracle_nested_pair(d, s),
    "distributive": lambda d, t, s: sub.random_family((d, d, d), s, proper=True),
    "compatibility_criteria": lambda d, t, s: oracle_mixed_pair(d, t % 4, s),
    "de_morgan": lambda d, t, s: (sub.random_family((d, d, d), s, proper=True),),
    "modular_pairs": lambda d, t, s: sub.random_family((d, d), s, proper=True),
    "covering": lambda d, t, s: oracle_covering_instance(d, s),
}


def per_trial_report(d, trials, seed, tol):
    results: dict = {}
    expected = True
    for check in cli._LATTICE_CHECKS:
        stats = {"failures": 0, "trials": 0, "worst_residual": 0.0, "counterexample": None}
        for t in range(max(1, trials // check.per)):
            s = subseed(seed, check.tag, t)
            try:
                report = check.check(*ORACLE_SAMPLERS[check.key](d, t, s), s, tol)
            except PreconditionViolated:
                continue
            stats["trials"] += 1
            stats["worst_residual"] = max(stats["worst_residual"], report.worst_residual)
            if not report.holds:
                stats["failures"] += 1
                if stats["counterexample"] is None:
                    stats["counterexample"] = report.counterexample
        stats["holds"] = stats["agree"] = stats["failures"] == 0
        results[check.key] = {field: stats[field] for field in check.fields}
        expected = expected and stats["holds"] == check.holds
    witness = laws.nondistributivity_witness(tol=tol).to_json()
    results["nondistributivity_witness"] = witness
    results["expected_pattern"] = expected and not witness["holds"]
    return results


def report_every_statistic(monkeypatch):
    """Make every check report all its statistics; a trial count only where
    each instance is one trial (the covering and modular-pair reports count
    candidates and samples)."""
    counted = ("orthomodular", "distributive", "compatibility_criteria", "de_morgan")
    checks = tuple(
        check._replace(fields=("holds", "failures", "worst_residual", "counterexample")
                       + (("trials",) if check.key in counted else ()))
        for check in cli._LATTICE_CHECKS
    )
    monkeypatch.setattr(cli, "_LATTICE_CHECKS", checks)


def batched_and_per_trial(d, trials, seed, tol=DEFAULT_TOL):
    return cli._quantum_lattice_report(d, trials, seed, tol), per_trial_report(d, trials, seed, tol)


class TestBatchedReportOracle:
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("trials", [1, 3, 40])
    def test_batched_report_equals_the_per_trial_fold(self, d, trials):
        for seed in (0, 7, 2024) if d < 16 else (0, 7):
            batched, oracle = batched_and_per_trial(d, trials, seed)
            assert batched == oracle, (d, trials, seed)

    def test_every_statistic_agrees(self, monkeypatch):
        report_every_statistic(monkeypatch)
        for d, trials, seed in ((3, 40, 1), (8, 40, 2), (16, 20, 3)):
            batched, oracle = batched_and_per_trial(d, trials, seed)
            assert batched == oracle
            assert batched["distributive"]["failures"] > 0

    @pytest.mark.parametrize("d", [3, 8])
    def test_agrees_under_a_broken_join(self, monkeypatch, d):
        # join(p, q) = p: orthomodularity, de Morgan and covering fail on
        # some trials and not others, with residuals and counterexamples
        report_every_statistic(monkeypatch)
        monkeypatch.setattr(sub, "join", lambda p, q, tol=DEFAULT_TOL: p)
        for trials in (3, 40):
            batched, oracle = batched_and_per_trial(d, trials, 5)
            assert batched == oracle
        assert 0 < batched["orthomodular"]["failures"] < 40
        assert batched["orthomodular"]["worst_residual"] > 0.5
        assert batched["de_morgan"]["counterexample"] is not None
        assert not batched["covering"]["holds"]

    def test_agrees_under_a_lossy_join(self, monkeypatch):
        # a join that loses its last direction when it spans four fails
        # each de Morgan law on different trials
        report_every_statistic(monkeypatch)
        join = sub.join

        def lossy(p, q, tol=DEFAULT_TOL):
            cut = (lambda b: b[:, :3] if b.shape[1] == 4 else b)
            j = join(p, q, tol)
            bases = tuple(map(cut, j.basis)) if isinstance(j.basis, tuple) else cut(j.basis)
            return sub.Subspace(j.ambient_dim, bases)

        monkeypatch.setattr(sub, "join", lossy)
        batched, oracle = batched_and_per_trial(6, 100, 8)
        assert batched == oracle
        assert 0 < batched["de_morgan"]["failures"] < 100

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_samplers_draw_each_trial_alone(self, d):
        trials = np.arange(13)
        seeds = np.array([subseed(4, "samplers", t) for t in trials], dtype=object)
        batches = {
            "orthomodular": cli._nested_pair(d, seeds),
            "compatibility_criteria": cli._mixed_pair(d, trials % 4, seeds),
            "covering": cli._covering_instance(d, seeds),
        }
        def subspaces(args):
            return [x.subspace if isinstance(x, sub.Ray) else x for x in args]

        for key, batch in batches.items():
            for t, s in zip(trials.tolist(), seeds):
                for b, x in zip(subspaces(batch), subspaces(ORACLE_SAMPLERS[key](d, t, s))):
                    assert np.array_equal(b.basis[t], x.basis), (key, t)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_agrees_where_covering_skips_instances(self, monkeypatch, d):
        # meet(a, ray) = ray where dim a is even: those covering instances
        # fall outside the law's hypothesis and are skipped (all of them at
        # d = 2, where dim a = 0); a join that drops q makes the rest fail
        report_every_statistic(monkeypatch)
        meet = sub.meet

        def broken_meet(p, q, tol=DEFAULT_TOL):
            met = meet(p, q, tol)
            if isinstance(p.basis, tuple):
                bases = zip(p.basis, q.basis, met.basis)
                kept = tuple(m if a.shape[1] % 2 else b for a, b, m in bases)
                return sub.Subspace(p.ambient_dim, kept)
            return met if p.dim % 2 else q

        monkeypatch.setattr(sub, "meet", broken_meet)
        monkeypatch.setattr(sub, "join", lambda p, q, tol=DEFAULT_TOL: p)
        batched, oracle = batched_and_per_trial(d, 200, 11)
        assert batched == oracle
        # 20 instances: the even-dimensional ones skipped, the rest failing
        failures = batched["covering"]["failures"]
        assert failures == 0 if d == 2 else 0 < failures < 20


class TestToleranceFloor:
    def test_below_what_doubles_resolve_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOLOGIC_TOL", "1e-14")
        with pytest.raises(SystemExit) as exc:
            main(["lattice-check", "--dim1", "8", "--trials", "40"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "invalid ORTHOLOGIC_TOL" in captured.err and captured.out == ""

    def test_the_floor_itself_verifies(self, capsys, monkeypatch):
        assert cli.MIN_TOL == 1000 * np.finfo(float).eps  # about 2.2e-13
        Tolerance(eps_eq=1e-14)  # the library still takes any eps_eq in (0, 1)
        monkeypatch.setenv("ORTHOLOGIC_TOL", repr(cli.MIN_TOL))
        for dim in ("3", "8", "16"):
            code, out = run_cli(capsys, "lattice-check", "--dim1", dim, "--trials", "40")
            assert code == 0, dim
            assert json.loads(out)["results"]["expected_pattern"]
