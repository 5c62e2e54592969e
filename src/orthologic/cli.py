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
_LATTICE_CHECKS (sampler, checker, reported fields).

Exit codes: 0 when the expected pattern holds, 1 on verification
failure, 2 on usage errors (including --trials below 1 and classical
sizes past MAX_PRODUCT_POINTS or MAX_OMEGA).  Identical
configuration (including the seed) yields a byte-identical report; all
randomness is derived from the single --seed flag via
subseed(seed, command_name, trial_index).
The environment variable ORTHOLOGIC_TOL overrides eps_eq globally.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import classical as cl
from . import laws
from . import subspace as sub
from .composite import canonical_h, verify_axioms, verify_tensor_isomorphism
from .core import DEFAULT_TOL, Tolerance, random_unitary, random_vector, subseed
from .errors import OrthologicError, PreconditionViolated
from .oscillator import (
    OscillatorModel,
    energies,
    hermite_eigenfunction,
    ladder_operators,
    proposition_from_eigenstates,
)
from .truth import truth_value

SCHEMA = "orthologic/1"


def _tolerance() -> Tolerance:
    raw = os.environ.get("ORTHOLOGIC_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
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


def _nested_pair(d: int, seed: int):
    rng = np.random.default_rng(seed)
    kq = int(rng.integers(1, d + 1))
    q = sub.random_subspace(d, kq, seed)
    kp = int(rng.integers(0, kq + 1))
    return sub.random_subspace_of(q, kp, seed + 1), q


def _mixed_pair(d: int, mode: int, seed: int):
    """Pair sampler mixing compatible-by-construction and generic pairs."""
    if mode == 0:
        return sub.compatible_pair(d, seed)
    if mode == 1:
        (p,) = sub.random_family((d,), seed, proper=True)
        return p, sub.ortho(p)
    if mode == 2:
        return _nested_pair(d, seed)
    p, q = sub.random_family((d, d), seed, proper=True)
    return p, q


def _covering_instance(d: int, seed: int):
    """A subspace of dimension below d - 1 and a ray, for the covering law."""
    rng = np.random.default_rng(seed)
    a = sub.random_subspace(d, int(rng.integers(0, d - 1)), seed)
    return a, sub.Ray.from_vector(random_vector(d, seed + 1))


class _Check(NamedTuple):
    """One sampled lattice-check law: ``sample(d, trial, seed, tol)`` draws
    the arguments that ``check(*args, seed, tol)`` turns into a LawReport."""

    key: str  # result key
    tag: str  # subseed name of the trials
    per: int  # one trial per ``per`` of --trials, at least one
    sample: Callable
    check: Callable
    fields: tuple  # the statistics it reports (see _quantum_lattice_report)
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
        # Trial reports are folded in one by one; only the first
        # counterexample is kept.
        stats = {"failures": 0, "trials": 0, "worst_residual": 0.0, "counterexample": None}
        for t in range(max(1, trials // check.per)):
            s = subseed(seed, check.tag, t)
            try:
                report = check.check(*check.sample(d, t, s, tol), s, tol)
            except PreconditionViolated:  # an instance outside the law's hypothesis
                continue
            stats["trials"] += 1
            stats["worst_residual"] = max(stats["worst_residual"], report.worst_residual)
            if not report.holds:
                stats["failures"] += 1
                if stats["counterexample"] is None:
                    stats["counterexample"] = report.counterexample
        # compatibility_criteria reports its verdict as "agree"
        stats["holds"] = stats["agree"] = stats["failures"] == 0
        results[check.key] = {field: stats[field] for field in check.fields}
        expected = expected and stats["holds"] == check.holds
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


def cmd_lattice_check(args) -> int:
    tol = _tolerance()
    if args.classical:
        results = _classical_lattice_report(args.omega, tol)
    else:
        results = _quantum_lattice_report(args.dim1, args.trials, args.seed, tol)
    _emit(args, ("classical", "dim1", "omega", "trials", "seed"), results)
    return 0 if results["expected_pattern"] else 1


def cmd_composite_verify(args) -> int:
    tol = _tolerance()
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
        axioms = verify_axioms(h1, h2, trials=args.trials, seed=args.seed, tol=tol)
        iso = verify_tensor_isomorphism(
            h1, h2, trials=args.trials, seed=args.seed, tol=tol, axiom_trials=max(10, args.trials // 2)
        )
        results = {
            "axioms": [r.to_json() for r in axioms],
            "isomorphism": iso.to_json(),
        }
        passed = all(r.passed for r in axioms) and iso.passed
    config = ("classical", "dim1", "dim2", "n1", "n2", "trials", "seed", "twist",
              "conjugate_h1", "conjugate_h2")
    _emit(args, config, results)
    return 0 if passed else 1


def cmd_truth_demo(args) -> int:
    tol = _tolerance()
    model = OscillatorModel(n_max=args.nmax)
    dim = model.levels
    state = np.zeros(dim, dtype=complex)
    state[0] = np.sqrt(3.0 / 4.0)
    state[1] = np.sqrt(1.0 / 4.0)
    ground = proposition_from_eigenstates({0}, dim)
    tv = truth_value(state, ground, tol)
    tv_complement = truth_value(state, sub.ortho(ground), tol)
    results: dict = {
        "state": [[float(z.real), float(z.imag)] for z in state],
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
        if not args.csv:
            print("--eigenfunctions requires --csv PATH", file=sys.stderr)
            return 2
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
    ok = abs(tv.value - 0.75) < 1e-12 and abs(tv_complement.value - 0.25) < 1e-12
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
    try:
        return args.func(args)
    except OrthologicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
