"""Command-line front door: verification suites and demos.

Three subcommands, each emitting a machine-readable JSON report (and
CSV files on request):

  lattice-check      lattice laws on random subspace instances, or
                     exhaustively on a finite classical phase space
  composite-verify   composite-system axioms plus the product/tensor
                     isomorphism, classical or quantum
  truth-demo         oscillator energies, truth values, eigenfunctions

The laws themselves are defined in ``laws`` and the composite axioms
in ``composite``; lattice-check runs each sampled law as one entry of
_LATTICE_CHECKS (sampler, checker, reported fields), drawing a law's
trials as one batch and checking it with one call: its lattice ops make
one stacked numpy call per group of equally shaped bases.  The quantum
composite-verify runs the same way: one batched axiom sweep over the
larger of its two trial counts, folded into both axiom reports
(``results.axioms`` and ``results.isomorphism.axioms``), then the
isomorphism trials as one batch.

Exit codes: 0 when the expected pattern holds, 1 on verification
failure, 2 on usage errors (including --trials or --curve-samples below
1, classical sizes past MAX_PRODUCT_POINTS or MAX_OMEGA, and an output
path that cannot be written).  Identical
configuration (including the seed) yields a byte-identical report; all
randomness is derived from the single --seed flag via
subseed(seed, command_name, trial_index).
The environment variable ORTHOLOGIC_TOL overrides eps_eq globally; values
below MIN_TOL, under what double precision resolves, are usage errors.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import classical as cl
from . import laws
from . import subspace as sub
from .composite import canonical_h, sweep_axioms, verify_tensor_isomorphism
# Not called here; kept as the module binding that bench/tracer.py patches.
from .composite import verify_axioms  # noqa: F401
from .core import DEFAULT_TOL, Tolerance, random_unitary, subseed, subseeds
from .errors import OrthologicError, PreconditionViolated
from .oscillator import (
    OscillatorModel,
    energies,
    hermite_eigenfunction,
    ladder_operators,
    proposition_from_eigenstates,
)
from .truth import EPS_PROB, truth_value

SCHEMA = "orthologic/1"
# At eps_eq = 1e-14 rounding alone fails de Morgan and the modular pairs at d = 8.
MIN_TOL = 1000 * float(np.finfo(float).eps)


def _tolerance() -> Tolerance:
    raw = os.environ.get("ORTHOLOGIC_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        if not float(raw) >= MIN_TOL:
            raise ValueError(f"need eps_eq >= {MIN_TOL:.3g}")
        return Tolerance(eps_eq=float(raw))
    except ValueError as exc:
        print(f"error: invalid ORTHOLOGIC_TOL: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(args, config: tuple, results: dict) -> None:
    """Write the report: the command, the config arguments named in
    ``config`` and the results, to --output or standard output."""
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": {name: getattr(args, name) for name in config},
        "results": results,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _check_writable(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing would raise, as
    far as it shows without creating the file."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _nested_pair(d: int, seed: np.ndarray):
    rngs = [np.random.default_rng(s) for s in seed]
    kq = np.array([rng.integers(1, d + 1) for rng in rngs])
    q = sub.random_subspace(d, kq, seed)
    kp = [rng.integers(0, k + 1) for rng, k in zip(rngs, kq)]
    return sub.random_subspace_of(q, kp, seed + 1), q


def _mixed_pair(d: int, mode: np.ndarray, seed: np.ndarray):
    """Pairs mixing compatible-by-construction and generic ones, one per
    seed, by its mode: 0 compatible, 1 (p, p'), 2 nested, 3 generic."""
    draws = {}
    for m in set(mode.tolist()):
        s = seed[mode == m]
        if m == 0:
            p, q = sub.compatible_pair(d, s)
        elif m == 1:
            (p,) = sub.random_family((d,), s, proper=True)
            q = sub.ortho(p)
        elif m == 2:
            p, q = _nested_pair(d, s)
        else:
            p, q = sub.random_family((d, d), s, proper=True)
        draws[m] = iter(zip(p.elements(), q.elements()))
    p, q = zip(*(next(draws[m]) for m in mode.tolist()))
    return sub.Subspace.batch(d, p), sub.Subspace.batch(d, q)


def _covering_instance(d: int, seed: np.ndarray):
    """Subspaces of dimension below d - 1 and rays, for the covering law."""
    a = sub.random_subspace(d, [np.random.default_rng(s).integers(0, d - 1) for s in seed], seed)
    return a, sub.Ray(sub.random_ray(d, seed + 1))


class _Check(NamedTuple):
    """One sampled lattice-check law: ``sample(d, trials, seeds, tol)`` draws
    the batches, one element per trial, that ``check(*batches, seeds, tol)``
    turns into one LawReport."""

    key: str  # result key
    tag: str  # subseed name of the trials
    per: int  # one trial per ``per`` of --trials, at least one
    sample: Callable
    check: Callable
    fields: tuple  # the LawReport fields it reports ("agree" is "holds")
    holds: bool = True  # the verdict the paper predicts


# Samplers and checkers are looked up by name when a check runs, so a
# rebound module function (as the benchmark tracer installs) is used.
_LATTICE_CHECKS = (
    _Check(
        "orthomodular", "lattice-om", 1,
        lambda d, t, s, tol: _nested_pair(d, s),
        lambda p, q, s, tol: laws.check_orthomodular(p, q, tol),
        ("holds", "trials", "worst_residual"),
    ),
    _Check(
        "distributive", "lattice-dist", 1,
        lambda d, t, s, tol: sub.random_family((d, d, d), s, proper=True),
        lambda a, b, c, s, tol: laws.check_distributive(a, b, c, tol),
        ("holds", "failures", "trials", "counterexample"),
        holds=False,
    ),
    _Check(
        "compatibility_criteria", "lattice-compat", 1,
        lambda d, t, s, tol: _mixed_pair(d, t % 4, s),
        lambda p, q, s, tol: laws.check_compatibility_criteria(p, q, tol),
        ("agree", "trials"),
    ),
    _Check(
        "de_morgan", "lattice-dm", 1,
        lambda d, t, s, tol: (sub.random_family((d, d, d), s, proper=True),),
        lambda family, s, tol: laws.check_de_morgan(family, tol),
        ("holds", "worst_residual"),
    ),
    _Check(
        "modular_pairs", "lattice-mp", 10,
        lambda d, t, s, tol: sub.random_family((d, d), s, proper=True),
        lambda p, q, s, tol: laws.is_modular_pair(p, q, samples=8, seed=s, tol=tol),
        ("holds",),
    ),
    _Check(
        "covering", "lattice-cov", 10,
        lambda d, t, s, tol: _covering_instance(d, s),
        lambda a, ray, s, tol: laws.check_covering(ray, a, tol),
        ("holds",),
    ),
)


def _quantum_lattice_report(d: int, trials: int, seed: int, tol: Tolerance) -> dict:
    results: dict = {}
    expected = True
    for check in _LATTICE_CHECKS:
        n = max(1, trials // check.per)
        seeds = subseeds(seed, check.tag, n)
        try:
            report = check.check(*check.sample(d, np.arange(n), seeds, tol), seeds, tol)
        except PreconditionViolated:  # every instance outside the law's hypothesis
            report = laws.LawReport(check.key, True, trials=0)
        stats = {f: getattr(report, "holds" if f == "agree" else f) for f in check.fields}
        results[check.key] = stats
        expected = expected and report.holds == check.holds
    witness = laws.nondistributivity_witness(tol=tol).to_json()
    results["nondistributivity_witness"] = witness
    results["expected_pattern"] = expected and not witness["holds"]
    return results


def _classical_lattice_report(omega: int, tol: Tolerance) -> dict:
    """Every law on every pair or triple of propositions, each decided by
    broadcasting batches: col and row hold all 2^omega bitmasks along one
    axis each, so a checker call on (col, row) covers every pair."""
    space = cl.PhaseSpace(tuple(f"w{k}" for k in range(omega)))
    masks = np.arange(1 << omega)
    col, row = cl.ClassicalProp(space, masks[:, None]), cl.ClassicalProp(space, masks[None, :])
    ok_dist = all(
        laws.check_triple_distributive(cl.ClassicalProp(space, a), col, row).holds
        for a in range(1 << omega)
    )
    # p = q meet s runs over every nested pair p <= q
    ok_om = laws.check_orthomodular(cl.prop_and(col, row), col).holds
    ok_absorb = bool(
        np.all(cl.prop_or(col, cl.prop_and(col, row)).members == col.members)
        and np.all(cl.prop_and(col, cl.prop_or(col, row)).members == col.members)
    )
    nonzero = cl.ClassicalProp(space, masks[1:, None])
    atoms = cl.ClassicalProp(space, 1 << np.arange(omega)[None, :])
    below = cl.prop_and(nonzero, atoms).members == atoms.members
    ok_atomic = bool(np.all(np.any(below, axis=1)))
    ok_dm = laws.check_de_morgan((col, row), tol).holds
    return {
        "omega": omega,
        "prop_count": len(masks),
        "distributive": ok_dist,
        "orthomodular": ok_om,
        "absorption": ok_absorb,
        "atomic": ok_atomic,
        "de_morgan": ok_dm,
        "expected_pattern": ok_dist and ok_om and ok_absorb and ok_atomic and ok_dm,
    }


def cmd_lattice_check(args, tol: Tolerance) -> int:
    if args.classical:
        results = _classical_lattice_report(args.omega, tol)
    else:
        results = _quantum_lattice_report(args.dim1, args.trials, args.seed, tol)
    _emit(args, ("classical", "dim1", "omega", "trials", "seed"), results)
    return 0 if results["expected_pattern"] else 1


def cmd_composite_verify(args, tol: Tolerance) -> int:
    if args.classical:
        s1 = cl.PhaseSpace(tuple(f"a{k}" for k in range(args.n1)))
        s2 = cl.PhaseSpace(tuple(f"b{k}" for k in range(args.n2)))
        h1 = cl.canonical_h_classical(1, s1, s2)
        h2 = cl.canonical_h_classical(2, s1, s2)
        _, iso = cl.product_space_isomorphism(s1, s2, h1, h2)
        results = {"classical": iso.to_json()}
        passed = iso.passed
    else:
        twist = None
        if args.twist:
            twist = random_unitary(args.dim1 * args.dim2, subseed(args.seed, "twist", 0))
        h1 = canonical_h(1, args.dim1, args.dim2, twist=twist, conjugate=args.conjugate_h1, tol=tol)
        h2 = canonical_h(2, args.dim1, args.dim2, twist=twist, conjugate=args.conjugate_h2, tol=tol)
        # one axiom sweep serves both reports, each folding a prefix of it
        axiom_trials = max(10, args.trials // 2)
        sweep = sweep_axioms(h1, h2, max(args.trials, axiom_trials), args.seed, tol)
        axioms = sweep.reports(args.trials)
        iso = verify_tensor_isomorphism(sweep, args.trials, axiom_trials)
        results = {
            "axioms": [r.to_json() for r in axioms],
            "isomorphism": iso.to_json(),
        }
        passed = all(r.passed for r in axioms) and iso.passed
    config = ("classical", "dim1", "dim2", "n1", "n2", "trials", "seed", "twist",
              "conjugate_h1", "conjugate_h2")
    _emit(args, config, results)
    return 0 if passed else 1


def cmd_truth_demo(args, tol: Tolerance) -> int:
    model = OscillatorModel(n_max=args.nmax)
    dim = model.levels
    state = np.zeros(dim, dtype=complex)
    state[0] = np.sqrt(3.0 / 4.0)
    state[1] = np.sqrt(1.0 / 4.0)
    ground = proposition_from_eigenstates({0}, dim)
    tv = truth_value(state, ground, tol)
    tv_complement = truth_value(state, sub.ortho(ground), tol)
    results: dict = {
        "state": sub.complex_to_json(state),
        "proposition": [0],
        "value": tv.value,
        "classification": tv.classification,
        "complement_value": tv_complement.value,
        "complement_classification": tv_complement.classification,
    }
    if args.energies:
        _, _, _, hamiltonian = ladder_operators(model)
        results["energies"] = [float(e) for e in energies(model)]
        results["hamiltonian_diagonal"] = [float(x.real) for x in np.diag(hamiltonian)]
    if args.eigenfunctions:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x"] + [f"psi{n}" for n in range(dim)])
            columns = [hermite_eigenfunction(model, n) for n in range(dim)]
            for row, x in enumerate(model.grid):
                writer.writerow([f"{x:.12g}"] + [f"{col[row]:.12g}" for col in columns])
        results["eigenfunctions_csv"] = args.csv
    if args.curve_csv:
        times = [k * 0.05 for k in range(args.curve_samples)]
        sample = cl.sample_oscillator_curve(1.0, 0.0, 1.0, 1.0, times)
        with open(args.curve_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "p"])
            for t, (x, p) in zip(sample.times, sample.states):
                writer.writerow([f"{t:.12g}", f"{x:.12g}", f"{p:.12g}"])
        results["curve_csv"] = args.curve_csv
    _emit(args, ("nmax",), results)
    ok = max(abs(tv.value - 0.75), abs(tv_complement.value - 0.25)) < EPS_PROB
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthologic",
        description="verification suites for classical and quantum propositional systems",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_lat = subparsers.add_parser("lattice-check", help="lattice-law verification")
    p_lat.add_argument("--dim1", type=int, default=3, help="ambient dimension (quantum)")
    p_lat.add_argument("--trials", type=int, default=200)
    p_lat.add_argument("--seed", type=int, default=0)
    p_lat.add_argument("--classical", action="store_true")
    p_lat.add_argument("--omega", type=int, default=4, help="|phase space| (classical)")
    p_lat.add_argument("--output", default=None)
    p_lat.set_defaults(func=cmd_lattice_check)

    p_comp = subparsers.add_parser("composite-verify", help="composite-system verification")
    p_comp.add_argument("--dim1", type=int, default=3)
    p_comp.add_argument("--dim2", type=int, default=3)
    p_comp.add_argument("--trials", type=int, default=50)
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--twist", action="store_true", help="twist by a seeded random unitary")
    p_comp.add_argument("--conjugate-h1", action="store_true", dest="conjugate_h1")
    p_comp.add_argument("--conjugate-h2", action="store_true", dest="conjugate_h2")
    p_comp.add_argument("--classical", action="store_true")
    p_comp.add_argument("--n1", type=int, default=2, help="|first phase space| (classical)")
    p_comp.add_argument("--n2", type=int, default=3, help="|second phase space| (classical)")
    p_comp.add_argument("--output", default=None)
    p_comp.set_defaults(func=cmd_composite_verify)

    p_truth = subparsers.add_parser("truth-demo", help="oscillator truth-value demo")
    p_truth.add_argument("--nmax", type=int, default=8)
    p_truth.add_argument("--energies", action="store_true")
    p_truth.add_argument("--eigenfunctions", action="store_true")
    p_truth.add_argument("--csv", default=None)
    p_truth.add_argument("--curve-csv", default=None, dest="curve_csv")
    p_truth.add_argument("--curve-samples", type=int, default=200, dest="curve_samples")
    p_truth.add_argument("--output", default=None)
    p_truth.set_defaults(func=cmd_truth_demo)
    return parser


# Largest exhaustive classical sizes.  composite-verify proves 2^12
# composite propositions in well under a second; lattice-check checks
# its 2^(3 omega) triples as 2^omega batches of 4^omega, measured on a
# 2-core x86 machine at 0.05 s for omega = 6, 0.15 s for 7 and 1.1 s
# for 8; omega = 9 would take about 11 s.
MAX_PRODUCT_POINTS = 12
MAX_OMEGA = 8


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("lattice-check", "composite-verify"):
        if not args.classical and args.trials < 1:
            parser.error("--trials must be at least 1 for the quantum branch")
    if args.command == "lattice-check":
        if not args.classical and args.dim1 < 2:
            parser.error("--dim1 must be at least 2 for the quantum branch")
        if args.classical and args.omega < 1:
            parser.error("--omega must be at least 1")
        if args.classical and args.omega > MAX_OMEGA:
            parser.error(f"--omega must be at most {MAX_OMEGA}")
    if args.command == "composite-verify":
        if not args.classical and (args.dim1 < 3 or args.dim2 < 3):
            parser.error("--dim1/--dim2 must be at least 3 for the quantum branch")
        if args.classical and (args.n1 < 1 or args.n2 < 1):
            parser.error("--n1/--n2 must be at least 1")
        if args.classical and args.n1 * args.n2 > MAX_PRODUCT_POINTS:
            parser.error(f"--n1 times --n2 must be at most {MAX_PRODUCT_POINTS}")
    if args.command == "truth-demo" and args.nmax < 2:
        parser.error("--nmax must be at least 2")
    if args.command == "truth-demo" and args.curve_samples < 1:
        parser.error("--curve-samples must be at least 1")
    if args.command == "truth-demo" and args.eigenfunctions and not args.csv:
        parser.error("--eigenfunctions requires --csv PATH")
    if args.command == "truth-demo" and args.csv and not args.eigenfunctions:
        parser.error("--csv requires --eigenfunctions")
    tol = _tolerance()
    try:
        # a usage error writes no file and runs no work: every output path is checked first
        for path in (getattr(args, "csv", None), getattr(args, "curve_csv", None), args.output):
            if path:
                _check_writable(path)
        return args.func(args, tol)
    except OrthologicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an --output, --csv or --curve-csv path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
