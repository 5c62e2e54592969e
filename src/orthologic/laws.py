"""Decidable checkers for lattice laws.

Every checker returns a LawReport carrying the verdict, the number of
trials, the worst numerical residual seen, and, on failure, a
re-checkable counterexample (serialized inputs plus both evaluated
sides).  The checkers work both on quantum propositions (Subspace) and
classical ones (ClassicalProp); the classical power-set lattice
satisfies every law here, the subspace lattice does not.

A classical argument may be a batch (a ClassicalProp holding an array
of bitmasks), and the same checker bodies then decide the law on every
element at once, broadcasting the arguments against each other: the
sides are equal when every element is, p <= q when every element is
included, and the residual is the largest number of points in which
the two sides differ.  When a batch fails, the counterexample holds the
inputs and sides of its first failing element (in C order over the
broadcast shape) as single propositions, so it replays through the same
checker on scalars.  A subspace batch is checked element by element: the
counts add up, worst_residual is the largest, and the counterexample is
the first failing element's.

Compatibility of two subspaces is decided lattice-theoretically by the
constructive criterion (a meet b) join (a' meet b) = b; the second
criterion (a join b') meet b = a meet b and the projector-commutator
test are exposed separately, and check_compatibility_criteria checks
that the three routes agree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import classical as cl
from . import subspace as sub
from .core import DEFAULT_TOL, Tolerance, each, orthonormal_bases
from .errors import DimensionMismatch, PreconditionViolated
from .subspace import Ray, Subspace

__all__ = [
    "LawReport",
    "check_distributive",
    "nondistributivity_witness",
    "check_orthomodular",
    "compatible",
    "compatible_second_criterion",
    "commuting_projectors",
    "check_compatibility_criteria",
    "check_de_morgan",
    "check_foulis_distributivity",
    "check_triple_distributive",
    "check_covering",
    "is_modular_pair",
]


@dataclass
class LawReport:
    """Verdict of a single lattice-law check."""

    law_name: str
    holds: bool
    trials: int = 1
    applicable: bool = True
    worst_residual: float = 0.0
    counterexample: Optional[dict] = None
    detail: dict = field(default_factory=dict)
    failures: Optional[int] = None  # failing elements of a batch; else 0 or 1

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = int(not self.holds)

    def to_json(self) -> dict:
        out = {
            "law_name": self.law_name,
            "holds": self.holds,
            "trials": self.trials,
            "applicable": self.applicable,
            "worst_residual": self.worst_residual,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.detail:
            out["detail"] = self.detail
        return out


def _most_bits(masks) -> float:
    """The largest number of set bits among the bitmasks ``masks`` (an int
    or an integer array): one shift per bit up to the highest set one."""
    count = 0
    while np.any(masks):
        count, masks = count + (masks & 1), masks >> 1
    return float(np.max(count))


def _first_failure(inputs: dict, left, right, failed):
    """The inputs and both sides at the first element, in C order over
    the broadcast shape, where the sides differ, as single propositions.
    A single proposition is its own first element."""
    differ = left.members != right.members
    shape = np.broadcast_shapes(np.shape(differ), *(np.shape(p.members) for p in inputs.values()))
    at = np.unravel_index(np.argmax(np.broadcast_to(differ, shape)), shape)

    def element(p):
        return cl.ClassicalProp(p.space, int(np.broadcast_to(p.members, shape)[at]))

    return {k: element(p) for k, p in inputs.items()}, element(left), element(right)


def _first_failed(inputs: dict, left, right, failed):
    """The first element of each subspace batch that ``failed`` marks; a
    single subspace is its own first element."""

    def element(p):
        batch = isinstance(p.basis, tuple)
        return Subspace(p.ambient_dim, p.basis[np.argmax(failed)]) if batch else p

    return {k: element(p) for k, p in inputs.items()}, element(left), element(right)


# The lattice operations of each proposition type, chosen once per check
# by _lattice().  Each entry looks its module function up when called, so
# a rebound module function (as the benchmark tracer installs) is used.
_SUBSPACE = SimpleNamespace(
    join=lambda a, b, tol: sub.join(a, b, tol),
    meet=lambda a, b, tol: sub.meet(a, b, tol),
    ortho=lambda a, tol: sub.ortho(a),
    equal=lambda a, b, tol: sub.equal(a, b, tol),
    leq=lambda a, b, tol: sub.leq(a, b, tol),
    residual=lambda a, b: sub.projector_distance(a, b),
    serialize=lambda a: sub.subspace_to_json(a),
    first_failure=_first_failed,
)
_CLASSICAL = SimpleNamespace(
    join=lambda a, b, tol: cl.prop_or(a, b),
    meet=lambda a, b, tol: cl.prop_and(a, b),
    ortho=lambda a, tol: cl.prop_not(a),
    equal=lambda a, b, tol: bool(np.all(a.members == b.members)),
    leq=lambda a, b, tol: bool(np.all(b.contains(a))),
    residual=lambda a, b: _most_bits(a.members ^ b.members),
    serialize=lambda a: a.to_json(),
    first_failure=_first_failure,
)


def _lattice(sample) -> SimpleNamespace:
    """The lattice operations for propositions of the type of ``sample``."""
    if isinstance(sample, Subspace):
        return _SUBSPACE
    if isinstance(sample, cl.ClassicalProp):
        return _CLASSICAL
    raise TypeError(f"unsupported proposition type {type(sample)!r}")


def _fold(op, items, tol):
    """op over items from the left: op(op(x0, x1), x2) and so on."""
    return functools.reduce(lambda x, y: op(x, y, tol), items)


def _distributive_sides(join, meet, a, b, c, tol):
    """Both sides of a join (b meet c) = (a join b) meet (a join c); with
    join and meet exchanged, both sides of its dual."""
    return join(a, meet(b, c, tol), tol), meet(join(a, b, tol), join(a, c, tol), tol)


def _counterexample(ops, inputs: dict, left, right, failed=True) -> dict:
    inputs, left, right = ops.first_failure(inputs, left, right, failed)
    ce = {"inputs": {k: ops.serialize(v) for k, v in inputs.items()}}
    ce["left"] = ops.serialize(left)
    ce["right"] = ops.serialize(right)
    return ce


def _report(law_name: str, failed, **fields) -> LawReport:
    """The report of a law failing on the elements ``failed`` marks."""
    fields.setdefault("trials", int(np.size(failed)))
    return LawReport(law_name, not np.any(failed), failures=int(np.count_nonzero(failed)), **fields)


def _compare(ops, law_name: str, inputs: dict, left, right, tol, applies=True) -> LawReport:
    """The report of the identity left = right where it ``applies``, with
    the residual and a counterexample where it fails."""
    failed = np.logical_and(applies, np.logical_not(ops.equal(left, right, tol)))
    report = _report(law_name, failed)
    if not report.holds:
        report.worst_residual = float(np.max(ops.residual(left, right), where=failed, initial=0.0))
        report.counterexample = _counterexample(ops, inputs, left, right, failed)
    return report


def check_distributive(a, b, c, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Check a join (b meet c) = (a join b) meet (a join c).

    Holds for every classical triple; fails for generic subspace
    triples, which is the structural split between the two logics.
    """
    ops = _lattice(a)
    left, right = _distributive_sides(ops.join, ops.meet, a, b, c, tol)
    return _compare(ops, "distributive", {"a": a, "b": b, "c": c}, left, right, tol)


def nondistributivity_witness(
    psi1=None, psi2=None, psi3=None, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """The classic worked three-subspace configuration in C^3.

    With rays p1 = <psi1>, p2 = <psi2> and the plane p3 = span{psi2,
    psi3} (so p2 <= p3), evaluates the two groupings
    p3 join (p1 meet p2) and (p3 join p1) meet (p1 join p2), which land
    on span{psi2, psi3} and span{psi1, psi2}: two incomparable planes,
    recorded side by side in the report.  Defaults to the coordinate
    basis of C^3.
    """
    if psi1 is None:
        psi1, psi2, psi3 = np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]
    p1 = sub.span_of([psi1], tol)
    p2 = sub.span_of([psi2], tol)
    p3 = sub.span_of([psi2, psi3], tol)
    left = sub.join(p3, sub.meet(p1, p2, tol), tol)
    right = sub.meet(sub.join(p3, p1, tol), sub.join(p1, p2, tol), tol)
    holds = sub.equal(left, right, tol)
    report = LawReport(
        "distributive",
        holds,
        worst_residual=sub.projector_distance(left, right),
        detail={"left_dim": left.dim, "right_dim": right.dim},
    )
    report.counterexample = _counterexample(
        _SUBSPACE, {"p1": p1, "p2": p2, "p3": p3}, left, right
    )
    return report


def check_orthomodular(p, q, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """For p <= q, check q = p join (q meet p')."""
    ops = _lattice(p)
    nested = ops.leq(p, q, tol)
    if not np.any(nested):
        return LawReport("orthomodular", True, trials=int(np.size(nested)), applicable=False)
    rebuilt = ops.join(p, ops.meet(q, ops.ortho(p, tol), tol), tol)
    return _compare(ops, "orthomodular", {"p": p, "q": q}, rebuilt, q, tol, applies=nested)


def compatible(a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Compatibility via (a meet b) join (a' meet b) = b."""
    rebuilt = sub.join(
        sub.meet(a, b, tol), sub.meet(sub.ortho(a), b, tol), tol
    )
    return sub.equal(rebuilt, b, tol)


def compatible_second_criterion(
    a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Compatibility via (a join b') meet b = a meet b."""
    left = sub.meet(sub.join(a, sub.ortho(b), tol), b, tol)
    return sub.equal(left, sub.meet(a, b, tol), tol)


def commuting_projectors(
    a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Operator-side oracle: ||PQ - QP||_2 <= eps_rank, meet's bound on sines."""
    return sub.commutator_norm(a, b) <= tol.eps_rank


def check_compatibility_criteria(
    a: Subspace, b: Subspace, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """Check that both lattice criteria and the projector oracle agree."""
    verdicts = (
        compatible(a, b, tol),
        compatible_second_criterion(a, b, tol),
        commuting_projectors(a, b, tol),
    )
    agree = (verdicts[0] == verdicts[1]) & (verdicts[1] == verdicts[2])
    return _report("compatibility_criteria", np.logical_not(agree))


def check_de_morgan(family, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Check both de Morgan laws on a family: the complement of the join
    is the meet of the complements, and the complement of the meet is the
    join of the complements.

    Each is decided by ``equal``, complement side first; the residual is
    the worse side distance, the counterexample the first failing law."""
    ops = _lattice(family[0])
    orthos = [ops.ortho(a, tol) for a in family]
    sides = [
        (ops.ortho(_fold(ops.join, family, tol), tol), _fold(ops.meet, orthos, tol)),
        (ops.ortho(_fold(ops.meet, family, tol), tol), _fold(ops.join, orthos, tol)),
    ]
    worst = max(float(np.max(ops.residual(left, right))) for left, right in sides)
    same = [ops.equal(left, right, tol) for left, right in sides]
    failed = np.logical_not(np.logical_and(*same))
    report = _report("de_morgan", failed, worst_residual=worst)
    if not report.holds:  # the first failing law at the first failing element
        at = np.argmax(failed)
        left, right = next(side for side, ok in zip(sides, same) if not np.ravel(ok)[at])
        inputs = {f"a{k}": a for k, a in enumerate(family)}
        report.counterexample = _counterexample(ops, inputs, left, right, failed)
    return report


def check_foulis_distributivity(
    b, family, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """For b compatible with every a_i, check
    join_i (b meet a_i) = b meet (join_i a_i)."""
    ops = _lattice(b)
    family = list(family)
    if ops is _SUBSPACE:
        if not all(compatible(b, a, tol) for a in family):
            return LawReport("foulis_distributivity", True, applicable=False)
    if not family:
        return LawReport("foulis_distributivity", True, applicable=False)
    left = _fold(ops.join, [ops.meet(b, a, tol) for a in family], tol)
    right = ops.meet(b, _fold(ops.join, family, tol), tol)
    inputs = {"b": b, **{f"a{k}": a for k, a in enumerate(family)}}
    report = _compare(ops, "foulis_distributivity", inputs, left, right, tol)
    report.trials = len(family)
    return report


def check_triple_distributive(a, b, c, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """If some element is compatible with the other two, the triple must
    satisfy all six distributivity identities."""
    ops = _lattice(a)
    if ops is _SUBSPACE:
        hypothesis = (
            (compatible(a, b, tol) and compatible(a, c, tol))
            or (compatible(b, a, tol) and compatible(b, c, tol))
            or (compatible(c, a, tol) and compatible(c, b, tol))
        )
        if not hypothesis:
            return LawReport("triple_distributive", True, applicable=False)
    worst = 0.0
    for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
        for join, meet in ((ops.join, ops.meet), (ops.meet, ops.join)):
            left, right = _distributive_sides(join, meet, x, y, z, tol)
            residual = ops.residual(left, right)
            if not ops.equal(left, right, tol):
                report = LawReport("triple_distributive", False, worst_residual=residual)
                report.counterexample = _counterexample(
                    ops, {"a": a, "b": b, "c": c}, left, right
                )
                return report
            worst = max(worst, residual)
    return LawReport("triple_distributive", True, trials=6, worst_residual=worst)


def check_covering(p: Ray, a: Subspace, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Covering property of atoms: with a meet p = 0, nothing sits
    strictly between a and a join p.

    Quantifying over all intermediate subspaces is out of numerical
    reach, so the check asserts the dimension consequence
    dim(a join p) = dim(a) + 1 and verifies that sampled candidates
    (a itself, a join p, and a joined with perturbed rays of the gap)
    all collapse onto one of the two endpoints.
    """
    ray = p.subspace
    inside = sub.meet(a, ray, tol).dim == 0  # of a batch, the elements checked
    if not np.any(inside):
        raise PreconditionViolated("the atom must intersect a only in zero")
    top = sub.join(a, ray, tol)
    holds = top.dim == a.dim + 1
    candidates = [a, top]
    for c in (0.25, 0.5, 0.75):  # rays of the gap: p plus c times a's first direction
        mix = each(lambda r, b: r + c * (b[..., :1] if b.shape[-1] else np.zeros_like(r)),
                   ray.basis, a.basis)
        span = each(lambda m: orthonormal_bases(m, tol), mix)
        candidates.append(sub.join(a, Subspace(a.ambient_dim, span), tol))
    for b in candidates:
        between = np.logical_and(sub.leq(a, b, tol), sub.leq(b, top, tol))
        holds = holds & (np.logical_not(between) | sub.equal(b, a, tol) | sub.equal(b, top, tol))
    failed = np.logical_and(inside, np.logical_not(holds))
    report = _report(
        "covering",
        failed,
        trials=len(candidates) * np.count_nonzero(inside),
        detail={"dim_a": np.asarray(a.dim).tolist(), "dim_join": np.asarray(top.dim).tolist()},
    )
    if not report.holds:
        report.counterexample = _counterexample(_SUBSPACE, {"a": a, "p": ray}, a, top, failed)
    return report


def is_modular_pair(
    p: Subspace, q: Subspace, samples: int = 20, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """Check (p join r) meet q = (p meet q) join r for sampled r <= q.

    In finite dimension every pair is modular, so this checker doubles
    as a consistency test of the lattice operations themselves.  All
    samples of all elements are checked as one batch; an element's
    trials and worst residual end at its first failing sample.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch("ambient dims differ")
    seeds = seed if isinstance(seed, np.ndarray) else np.array([seed], dtype=object)
    trial = np.arange(samples)

    def repeat(x):  # each element once per sample
        bases = x.basis if isinstance(x.basis, tuple) else (x.basis,)
        return Subspace(x.ambient_dim, tuple(b for b in bases for _ in trial))

    ps, qs = repeat(p), repeat(q)
    offsets = np.array([s + 7919 * t for s in seeds for t in range(samples)], dtype=object)
    r = sub.random_subspace_of(qs, np.tile(trial, len(seeds)) % (qs.dim + 1), offsets)
    left = sub.meet(sub.join(ps, r, tol), qs, tol)
    right = sub.join(repeat(sub.meet(p, q, tol)), r, tol)
    ok = sub.equal(left, right, tol).reshape(-1, samples)
    counted = trial <= np.where(ok.all(axis=1), samples, np.argmin(ok, axis=1))[:, None]
    residual = sub.projector_distance(left, right).reshape(ok.shape)
    report = _report("modular_pair", np.logical_not(ok.all(axis=1)), trials=int(counted.sum()),
                     worst_residual=float(np.max(residual, where=counted, initial=0.0)))
    if not report.holds:
        report.counterexample = _counterexample(
            _SUBSPACE, {"p": ps, "q": qs, "r": r}, left, right, np.ravel(counted & ~ok))
    return report
