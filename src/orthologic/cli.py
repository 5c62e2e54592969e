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

``main`` parses with one parser per process, built on its first call,
and looks the command's handler (``cmd_*``) up by name at call time, so
a rebound handler takes effect on the next call.  A handler returns
``(results, passed)``; ``main`` writes the report (``_emit``) and turns
``passed`` into the exit code.

Exit codes: 0 when the expected pattern holds, 1 on verification
failure, 2 on usage errors (including --trials or --curve-samples below
1, classical sizes past MAX_PRODUCT_POINTS or MAX_OMEGA, two output
paths naming one file, and an output path that ``open`` refuses, the
empty path among them, with open's own error).
Identical configuration (including the seed) yields a byte-identical
report; all randomness is derived from the single --seed flag: trial t
of a check named ``name`` draws from trial_generators(seed, name, n)[t].
The environment variable ORTHOLOGIC_TOL overrides eps_eq globally;
values below MIN_TOL, under what double precision resolves, are usage
errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import classical as cl
from . import laws
from . import subspace as sub
from .composite import axiom_to_json, canonical_h, sweep_axioms, verify_tensor_isomorphism
# Not called here; kept as the module binding that bench/tracer.py patches.
from .composite import verify_axioms  # noqa: F401
from .core import DEFAULT_TOL, Tolerance, generators, random_unitary, trial_generators
from .errors import OrthologicError
from .oscillator import (
    OscillatorModel,
    energies,
    hermite_eigenfunction,
    ladder_operators,
    phase_curve,
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


# The options naming an output file: left out of the config, and checked
# to be distinct and writable before any work runs.
_PATHS = ("output", "eigenfunctions_csv", "curve_csv")


def _emit(args, results: dict) -> None:
    """Write the report: the command, its config (every parsed option but
    the command and _PATHS) and the results, to --output or stdout."""
    config = {k: v for k, v in vars(args).items() if k != "command" and k not in _PATHS}
    report = {"schema": SCHEMA, "command": args.command, "config": config, "results": results}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _nested_pair(d: int, seed: np.ndarray):
    """Nested pairs p < q with 0 < dim p < dim q, one per seed: each
    generator draws dim q from 2..d and dim p from 1..dim q - 1, then q's
    frame and p's frame inside q."""
    rngs = generators(seed)
    kq = [int(rng.integers(2, d + 1)) for rng in rngs]
    kp = [int(rng.integers(1, k)) for rng, k in zip(rngs, kq)]
    q = sub.random_subspace(d, kq, rngs)
    return sub.random_subspace_of(q, kp, rngs), q


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
    rngs = generators(seed)
    a = sub.random_subspace(d, [int(rng.integers(0, d - 1)) for rng in rngs], rngs)
    return a, sub.Ray(sub.random_ray(d, rngs))


class _Check(NamedTuple):
    """One sampled lattice-check law: ``sample(d, trials, rngs)`` draws
    the batches, one element per trial, that ``check(*batches, rngs, tol)``
    turns into one LawReport; both take the same trial generators."""

    key: str  # result key
    tag: str  # trial_generators name of the trials
    per: int  # one trial per ``per`` of --trials, at least one
    sample: Callable
    check: Callable
    fields: tuple  # the LawReport fields it reports ("agree" is "holds")
    votes: bool = True  # whether expected_pattern needs it to hold


# Samplers and checkers are looked up by name when a check runs, so a
# rebound module function (as the benchmark tracer installs) is used.
_LATTICE_CHECKS = (
    _Check(
        "orthomodular", "lattice-om", 1,
        lambda d, t, s: _nested_pair(d, s),
        lambda p, q, s, tol: laws.check_orthomodular(p, q, tol),
        ("holds", "trials", "worst_residual"),
    ),
    _Check(
        "distributive", "lattice-dist", 1,
        lambda d, t, s: sub.random_family((d, d, d), s, proper=True),
        lambda a, b, c, s, tol: laws.check_distributive(a, b, c, tol),
        ("holds", "failures", "trials", "counterexample"),
        votes=False,  # a sampled triple may be distributive: the witness decides
    ),
    _Check(
        "compatibility_criteria", "lattice-compat", 1,
        lambda d, t, s: _mixed_pair(d, t % 4, s),
        lambda p, q, s, tol: laws.check_compatibility_criteria(p, q, tol),
        ("agree", "trials"),
    ),
    _Check(
        "de_morgan", "lattice-dm", 1,
        lambda d, t, s: (sub.random_family((d, d, d), s, proper=True),),
        lambda family, s, tol: laws.check_de_morgan(family, tol),
        ("holds", "worst_residual"),
    ),
    _Check(
        "modular_pairs", "lattice-mp", 10,
        lambda d, t, s: sub.random_family((d, d), s, proper=True),
        lambda p, q, s, tol: laws.is_modular_pair(p, q, samples=8, seed=s, tol=tol),
        ("holds",),
    ),
    _Check(
        "covering", "lattice-cov", 10,
        lambda d, t, s: _covering_instance(d, s),
        lambda a, ray, s, tol: laws.check_covering(ray, a, tol),
        ("holds",),
    ),
)


def _quantum_lattice_report(d: int, trials: int, seed: int, tol: Tolerance) -> dict:
    results: dict = {}
    expected = True
    for check in _LATTICE_CHECKS:
        n = max(1, trials // check.per)
        rngs = trial_generators(seed, check.tag, n)
        report = check.check(*check.sample(d, np.arange(n), rngs), rngs, tol)
        stats = {f: getattr(report, "holds" if f == "agree" else f) for f in check.fields}
        results[check.key] = stats
        expected = expected and (report.holds or not check.votes)
    witness = laws.nondistributivity_witness(d, tol).to_json()
    results["nondistributivity_witness"] = witness
    results["expected_pattern"] = expected and not witness["holds"]
    return results


def _classical_lattice_report(omega: int, tol: Tolerance) -> dict:
    """Every law on every pair or triple of propositions, each decided by
    broadcasting batches: col and row hold all 2^omega bitmasks along one
    axis each, so a checker call on (col, row) covers every pair, and the
    calls on the boxes of cl.rotation_cover check every triple identity."""
    space = cl.PhaseSpace(tuple(f"w{k}" for k in range(omega)))
    masks = np.arange(1 << omega, dtype=np.min_scalar_type((1 << omega) - 1))
    col, row = cl.ClassicalProp(space, masks[:, None]), cl.ClassicalProp(space, masks[None, :])
    ok_dist = all(
        laws.check_triple_distributive(
            cl.ClassicalProp(space, masks[lo:, None, None]),
            cl.ClassicalProp(space, masks[None, lo:hi, None]),
            cl.ClassicalProp(space, masks[None, None, lo:])).holds
        for lo, hi in cl.rotation_cover(len(masks))
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


def cmd_lattice_check(args, tol: Tolerance) -> tuple:
    if args.classical:
        results = _classical_lattice_report(args.omega, tol)
    else:
        results = _quantum_lattice_report(args.dim1, args.trials, args.seed, tol)
    return results, results["expected_pattern"]


def cmd_composite_verify(args, tol: Tolerance) -> tuple:
    if args.classical:
        s1 = cl.PhaseSpace(tuple(f"a{k}" for k in range(args.n1)))
        s2 = cl.PhaseSpace(tuple(f"b{k}" for k in range(args.n2)))
        h1 = cl.canonical_h_classical(1, s1, s2)
        h2 = cl.canonical_h_classical(2, s1, s2)
        _, iso = cl.product_space_isomorphism(h1, h2)
        results = {"classical": iso.to_json()}
        passed = iso.passed
    else:
        twist = None
        if args.twist:
            twist = random_unitary(args.dim1 * args.dim2, *trial_generators(args.seed, "twist", 1))
        h1 = canonical_h(1, args.dim1, args.dim2, twist=twist, conjugate=args.conjugate_h1, tol=tol)
        h2 = canonical_h(2, args.dim1, args.dim2, twist=twist, conjugate=args.conjugate_h2, tol=tol)
        # one axiom sweep serves both reports, each folding a prefix of it
        axiom_trials = max(10, args.trials // 2)
        sweep = sweep_axioms(h1, h2, max(args.trials, axiom_trials), args.seed, tol)
        axioms = sweep.reports(args.trials)
        iso = verify_tensor_isomorphism(sweep, args.trials, axiom_trials)
        results = {
            "axioms": [axiom_to_json(r) for r in axioms],
            "isomorphism": iso.to_json(),
        }
        passed = all(r.holds for r in axioms) and iso.passed
    return results, passed


def _write_csv(path: str, header: list, rows) -> None:
    """Write ``header`` and then ``rows`` of numbers, each as %.12g."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" for v in row] for row in rows)


def cmd_truth_demo(args, tol: Tolerance) -> tuple:
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
    if args.eigenfunctions_csv is not None:
        columns = [hermite_eigenfunction(model, n) for n in range(dim)]
        _write_csv(args.eigenfunctions_csv, ["x"] + [f"psi{n}" for n in range(dim)],
                   ([x] + [col[row] for col in columns] for row, x in enumerate(model.grid)))
        results["eigenfunctions_csv"] = args.eigenfunctions_csv
    if args.curve_csv is not None:
        times = [k * 0.05 for k in range(args.curve_samples)]
        _write_csv(args.curve_csv, ["t", "x", "p"], phase_curve(model, 1.0, 0.0, times))
        results["curve_csv"] = args.curve_csv
    return results, max(abs(tv.value - 0.75), abs(tv_complement.value - 0.25)) < EPS_PROB


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

    p_truth = subparsers.add_parser("truth-demo", help="oscillator truth-value demo")
    p_truth.add_argument("--nmax", type=int, default=8)
    p_truth.add_argument("--energies", action="store_true")
    p_truth.add_argument("--eigenfunctions-csv", default=None, dest="eigenfunctions_csv")
    p_truth.add_argument("--curve-csv", default=None, dest="curve_csv")
    p_truth.add_argument("--curve-samples", type=int, default=200, dest="curve_samples")
    p_truth.add_argument("--output", default=None)
    return parser


# Largest exhaustive classical sizes, measured in process on a 2-core x86
# machine.  composite-verify builds each factor map's table by doubling and
# is bound by eta's 2^N x N boolean matrix: 0.3 ms of 0.7-1.0 ms at 1x12.
# lattice-check checks the triple law on the boxes of classical.rotation_cover,
# about a third of the 2^(3 omega) triples, on bitmasks of the smallest
# unsigned dtype that holds 2^omega - 1 (np.uint8 up to the cap): medians of
# 1.0 ms for omega = 6, 5.2 ms for 7, 32 ms for 8 and 0.58 s for 9 (np.uint16).
MAX_PRODUCT_POINTS = 12
MAX_OMEGA = 8


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
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
    paths = [path for path in (getattr(args, name, None) for name in _PATHS) if path is not None]
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        parser.error("output paths must name distinct files")
    tol = _tolerance()
    try:
        # a usage error writes no file and runs no work: open checks every
        # output path first, and a file the check creates is removed again
        for path in paths:
            created = not os.path.exists(path)
            open(path, "a").close()
            if created:  # a dangling link keeps its link and loses the target
                os.remove(os.path.realpath(path))
        results, passed = globals()["cmd_" + args.command.replace("-", "_")](args, tol)
        _emit(args, results)
        return 0 if passed else 1
    except OrthologicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
