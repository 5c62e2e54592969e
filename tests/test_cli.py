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
from orthologic.core import DEFAULT_TOL, Tolerance, random_vector, trial_generators
from orthologic.errors import InvalidDimension


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

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_a_distributive_sampled_triple_does_not_fail_the_run(self, capsys, d):
        # at --trials 1 --seed 7 the one sampled triple is distributive for
        # d = 3 and 16: the witness in C^d carries the verdict
        code, out = run_cli(capsys, "lattice-check", "--dim1", str(d), "--trials", "1",
                            "--seed", "7")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["distributive"]["holds"] == (d in (3, 16))
        assert results["expected_pattern"] and not results["nondistributivity_witness"]["holds"]
        inputs = results["nondistributivity_witness"]["counterexample"]["inputs"]
        assert {p["ambient_dim"] for p in inputs.values()} == {d}

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
            "truth-demo", "--nmax", "3", "--eigenfunctions-csv", str(target),
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

    def test_absurdly_loose_tolerance_still_fails_the_witness(self, capsys, monkeypatch):
        # the witness compares a ray with a plane, which no eps_eq < 1
        # equates, so the pattern still holds at eps_eq = 0.9
        monkeypatch.setenv("ORTHOLOGIC_TOL", "0.9")
        code, out = run_cli(
            capsys, "lattice-check", "--dim1", "3", "--trials", "15", "--seed", "3"
        )
        assert code == 0
        witness = json.loads(out)["results"]["nondistributivity_witness"]
        assert not witness["holds"]
        sides = [sub.subspace_from_json(witness["counterexample"][k]) for k in ("left", "right")]
        assert [side.dim for side in sides] == [1, 2]

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
        ["truth-demo", "--eigenfunctions-csv"],
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


@pytest.mark.parametrize("code,message", [(21, "Is a directory"), (13, "Permission denied")])
def test_an_output_that_cannot_be_opened_is_a_usage_error(capsys, monkeypatch, tmp_path, code,
                                                          message):
    def refuse(*args, **kwargs):
        raise AssertionError("a report function ran")

    monkeypatch.setattr(cli, "_quantum_lattice_report", refuse)
    if code == 21:
        path = tmp_path  # an existing directory
    else:
        # as root, open grants every write
        path = tmp_path / "out.json"

        def refuse_open(file, *args, **kwargs):
            raise PermissionError(code, message, file)

        monkeypatch.setattr(cli, "open", refuse_open, raising=False)
    assert main(["lattice-check", "--dim1", "3", "--trials", "5", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {code}] {message}: {str(path)!r}\n"


def test_a_path_below_a_file_is_not_a_directory(capsys, tmp_path):
    (tmp_path / "afile").write_text("kept\n")
    path = tmp_path / "afile" / "x.json"
    assert main(["lattice-check", "--trials", "2", "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 20] Not a directory: {str(path)!r}\n"
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("option", ["--output", "--eigenfunctions-csv", "--curve-csv"])
def test_an_empty_path_is_a_usage_error(capsys, monkeypatch, tmp_path, option):
    # an empty path names no file: it is refused, not taken as no path
    monkeypatch.chdir(tmp_path)
    assert main(["truth-demo", "--nmax", "2", option, ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


def test_the_path_check_leaves_a_dangling_link_as_it_was(capsys, monkeypatch, tmp_path):
    # the check opens the link's target, creating it, and removes the
    # target again when a later path fails
    monkeypatch.chdir(tmp_path)
    Path("link").symlink_to(tmp_path / "target.csv")
    assert main(["truth-demo", "--eigenfunctions-csv", "link", "--curve-csv", "missing/c"]) == 2
    assert capsys.readouterr().out == ""
    assert os.path.islink("link") and not os.path.lexists("target.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]


@pytest.mark.parametrize("bad", ["--curve-csv", "--output"])
def test_a_usage_error_writes_no_file(capsys, tmp_path, bad):
    argv = ["truth-demo", "--eigenfunctions-csv", str(tmp_path / "ok.csv"),
            "--curve-csv", str(tmp_path / "curve.csv"), bad, str(tmp_path / "missing" / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("first,second", [("--output", "--curve-csv"),
                                          ("--eigenfunctions-csv", "--output"),
                                          ("--eigenfunctions-csv", "--curve-csv")])
@pytest.mark.parametrize("spelling", ["folder/../same", "link"])
def test_two_outputs_at_one_path_are_a_usage_error(capsys, monkeypatch, tmp_path, first, second,
                                                   spelling):
    # each file would hold only what was written to it last
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "same")
    with pytest.raises(SystemExit) as exc:
        main(["truth-demo", first, "same", second, spelling])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error: output paths must name distinct files" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "link"]


def replay_argv(report):
    """The argv that reruns ``report``: its command, each config option (a
    flag where its value is a bool) and the CSV paths its results name."""
    argv, results = [report["command"]], report["results"]
    paths = [(k, results[k]) for k in ("eigenfunctions_csv", "curve_csv") if k in results]
    for name, value in [*report["config"].items(), *paths]:
        option = "--" + name.replace("_", "-")
        if value is True:
            argv.append(option)
        elif value is not False:
            argv += [option, str(value)]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice-check", "--dim1", "3", "--trials", "5", "--seed", "2"],
        ["lattice-check", "--classical", "--omega", "3"],
        ["composite-verify", "--dim1", "3", "--dim2", "4", "--trials", "3", "--seed", "5",
         "--twist", "--conjugate-h2"],
        ["composite-verify", "--classical", "--n1", "2", "--n2", "2"],
        ["truth-demo", "--nmax", "3", "--energies", "--curve-samples", "5",
         "--curve-csv", "curve.csv"],
    ],
)
def test_the_config_is_every_parsed_option_but_the_paths(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    options = vars(cli.build_parser().parse_args(argv))
    assert report["command"] == options.pop("command")
    assert report["config"] == {k: v for k, v in options.items() if k not in cli._PATHS}
    assert run_cli(capsys, *replay_argv(report)) == (0, out)


def test_a_truth_demo_report_replays(capsys, tmp_path):
    # rerun with its config and the CSV paths its results name, a report
    # writes the same CSV bytes
    code, out = run_cli(capsys, "truth-demo", "--nmax", "3", "--curve-samples", "7",
                        "--eigenfunctions-csv", str(tmp_path / "eig.csv"),
                        "--curve-csv", str(tmp_path / "curve.csv"))
    assert code == 0
    report = json.loads(out)
    assert sorted(report["config"]) == ["curve_samples", "energies", "nmax"]
    csvs = [report["results"][key] for key in ("eigenfunctions_csv", "curve_csv")]
    written = [Path(path).read_bytes() for path in csvs]
    for path in csvs:
        os.remove(path)
    assert run_cli(capsys, *replay_argv(report)) == (0, out)
    assert [Path(path).read_bytes() for path in csvs] == written
    assert len(written[1].splitlines()) == 1 + 7


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


def module_stdout(cwd, *argv):
    """The stdout bytes of ``python -m orthologic`` on argv, run in cwd."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "orthologic", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, cwd=cwd, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_module_entry_point(tmp_path):
    out = module_stdout(tmp_path, "composite-verify", "--classical", "--n1", "1", "--n2", "2")
    assert json.loads(out)["results"]["classical"]["passed"]


class TestSharedParser:
    """main parses with one parser per process and finds the command's
    handler by name when it is called."""

    def test_interleaved_runs_in_one_process(self, capsys, tmp_path):
        first = ["lattice-check", "--dim1", "3", "--trials", "5", "--seed", "2"]
        code, out = run_cli(capsys, *first)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["lattice-check", "--trials", "0"])
        assert exc.value.code == 2
        assert "--trials must be at least 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        assert run_cli(capsys, "composite-verify", "--classical", "--n1", "2", "--n2", "3")[0] == 0
        assert run_cli(capsys, *first) == (0, out)
        assert out.encode("utf-8") == module_stdout(tmp_path, *first)

    def test_three_calls_build_at_most_one_parser(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        for argv in (["truth-demo"], ["lattice-check", "--classical", "--omega", "2"],
                     ["truth-demo", "--nmax", "3"]):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(built) <= 1

    def test_a_rebound_handler_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_truth_demo", lambda args, tol: ({"rebound": True}, False))
        assert main(["truth-demo"]) == 1
        assert json.loads(capsys.readouterr().out)["results"] == {"rebound": True}

    def test_help_is_formatted_for_the_terminal_at_call_time(self, capsys, monkeypatch):
        def help_of(parse):
            with pytest.raises(SystemExit) as exc:
                parse(["lattice-check", "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        monkeypatch.setenv("COLUMNS", "200")
        wide = help_of(main)
        monkeypatch.setenv("COLUMNS", "40")
        narrow = help_of(main)
        assert narrow == help_of(cli.build_parser().parse_args)
        assert narrow != wide


# The per-trial fold lattice-check ran before it checked each law's trials
# as one batch, on the single-instance samplers, each trial's generator
# drawing its instance and then handed to its checker: the reference the
# batched report must reproduce.


def oracle_nested_pair(d, rng):
    kq = int(rng.integers(2, d + 1))
    kp = int(rng.integers(1, kq))
    q = sub.random_subspace(d, kq, rng)
    return sub.random_subspace_of(q, kp, rng), q


def oracle_mixed_pair(d, mode, rng):
    if mode == 0:
        return sub.compatible_pair(d, rng)
    if mode == 1:
        (p,) = sub.random_family((d,), rng, proper=True)
        return p, sub.ortho(p)
    if mode == 2:
        return oracle_nested_pair(d, rng)
    p, q = sub.random_family((d, d), rng, proper=True)
    return p, q


def oracle_covering_instance(d, rng):
    a = sub.random_subspace(d, int(rng.integers(0, d - 1)), rng)
    return a, sub.Ray(sub.span_of([random_vector(d, rng)]))


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
        n = max(1, trials // check.per)
        for t, rng in enumerate(trial_generators(seed, check.tag, n)):
            report = check.check(*ORACLE_SAMPLERS[check.key](d, t, rng), rng, tol)
            stats["trials"] += report.trials
            stats["failures"] += report.failures
            stats["worst_residual"] = max(stats["worst_residual"], report.worst_residual)
            if stats["counterexample"] is None:
                stats["counterexample"] = report.counterexample
        stats["holds"] = stats["agree"] = stats["failures"] == 0
        results[check.key] = {field: stats[field] for field in check.fields}
        expected = expected and (stats["holds"] or not check.votes)
    witness = laws.nondistributivity_witness(d, tol).to_json()
    results["nondistributivity_witness"] = witness
    results["expected_pattern"] = expected and not witness["holds"]
    return results


def report_every_statistic(monkeypatch):
    """Make every check report all its statistics."""
    checks = tuple(
        check._replace(fields=("holds", "failures", "trials", "worst_residual", "counterexample"))
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

    def test_a_passing_law_reports_its_worst_residual(self, capsys):
        # the residual of every trial within the hypothesis counts, not
        # only that of a failing one
        code, out = run_cli(capsys, "lattice-check", "--dim1", "8", "--trials", "100",
                            "--seed", "101")
        orthomodular = json.loads(out)["results"]["orthomodular"]
        assert code == 0 and orthomodular["holds"]
        residuals = []
        for rng in trial_generators(101, "lattice-om", 100):
            p, q = oracle_nested_pair(8, rng)
            rebuilt = sub.join(p, sub.meet(q, sub.ortho(p)))
            residuals.append(sub.projector_distance(rebuilt, q))
        assert orthomodular["worst_residual"] == max(residuals) > 0

    @pytest.mark.parametrize("d", [3, 8])
    def test_agrees_under_a_broken_join(self, monkeypatch, d):
        # join(p, q) = p: orthomodularity, de Morgan and covering fail, with
        # residuals and counterexamples, orthomodularity on every trial (every
        # nested pair is proper), the compatibility criteria on some trials
        # and not others
        report_every_statistic(monkeypatch)
        monkeypatch.setattr(sub, "join", lambda p, q, tol=DEFAULT_TOL: p)
        for trials in (3, 40):
            batched, oracle = batched_and_per_trial(d, trials, 5)
            assert batched == oracle
        assert batched["orthomodular"]["failures"] == 40
        assert 0 < batched["compatibility_criteria"]["failures"] < 40
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

        def rngs():  # a fresh set of the same generators
            return trial_generators(4, "samplers", 13)

        batches = {
            "orthomodular": cli._nested_pair(d, rngs()),
            "compatibility_criteria": cli._mixed_pair(d, trials % 4, rngs()),
            "covering": cli._covering_instance(d, rngs()),
        }
        def subspaces(args):
            return [x.subspace if isinstance(x, sub.Ray) else x for x in args]

        for key, batch in batches.items():
            for t, rng in zip(trials.tolist(), rngs()):
                for b, x in zip(subspaces(batch), subspaces(ORACLE_SAMPLERS[key](d, t, rng))):
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


def count_built_generators(monkeypatch) -> list:
    """The seed of every generator built from now on: numpy's default_rng
    hands a generator back unchanged, and so builds none for it."""
    built = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        if not isinstance(seed, np.random.Generator):
            built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return built


class TestSampling:
    """Each trial draws from its own generator, keyed by (seed, check, trial)."""

    def test_seeds_sample_different_instances(self, capsys):
        # XOR-ing the trial index into the seed made seeds 0 to 3 one set of
        # instances, with one set of statistics
        stats = set()
        for seed in range(4):
            code, out = run_cli(capsys, "lattice-check", "--dim1", "8", "--trials", "100",
                                "--seed", str(seed))
            results = json.loads(out)["results"]
            assert code == 0
            stats.add((results["orthomodular"]["worst_residual"],
                       results["de_morgan"]["worst_residual"]))
        assert len(stats) == 4

    def test_two_seeds_share_no_nested_pair(self):
        (p0, q0), (p1, q1) = (cli._nested_pair(8, trial_generators(s, "lattice-om", 100))
                              for s in (0, 1))
        for first, second in ((p0, p1), (q0, q1)):
            assert not {b.tobytes() for b in first.basis} & {b.tobytes() for b in second.basis}

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_nested_pairs_are_proper(self, d):
        # p = 0 or p = q would hold orthomodularity by construction
        p, q = cli._nested_pair(d, trial_generators(0, "lattice-om", 200))
        assert np.all(p.dim > 0) and np.all(p.dim < q.dim)
        assert np.all(sub.leq(p, q))

    @pytest.mark.parametrize("d", [3, 8])
    def test_lattice_check_builds_one_generator_per_trial(self, monkeypatch, d):
        built = count_built_generators(monkeypatch)
        cli._quantum_lattice_report(d, 100, 0, DEFAULT_TOL)
        assert len(built) == sum(max(1, 100 // c.per) for c in cli._LATTICE_CHECKS) == 420

    @pytest.mark.parametrize("trials, swept", [(25, 25), (4, 10)])
    def test_composite_verify_builds_one_generator_per_trial(self, capsys, monkeypatch,
                                                              trials, swept):
        built = count_built_generators(monkeypatch)
        code, _ = run_cli(capsys, "composite-verify", "--dim1", "3", "--dim2", "3", "--twist",
                          "--trials", str(trials))
        # six sampled axiom batches, the isomorphism's factor subspaces, the
        # twist and the two linearity probes of the basis map
        assert code == 0 and len(built) == 6 * swept + trials + 1 + 2


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
