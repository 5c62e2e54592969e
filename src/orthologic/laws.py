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
checker on scalars.

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
from .core import DEFAULT_TOL, Tolerance
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


def _first_failure(inputs: dict, left, right):
    """The inputs and both sides at the first element, in C order over
    the broadcast shape, where the sides differ, as single propositions.
    A single proposition is its own first element."""
    differ = left.members != right.members
    shape = np.broadcast_shapes(np.shape(differ), *(np.shape(p.members) for p in inputs.values()))
    at = np.unravel_index(np.argmax(np.broadcast_to(differ, shape)), shape)

    def element(p):
        return cl.ClassicalProp(p.space, int(np.broadcast_to(p.members, shape)[at]))

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
    first_failure=lambda inputs, left, right: (inputs, left, right),
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


def _counterexample(ops, inputs: dict, left, right) -> dict:
    inputs, left, right = ops.first_failure(inputs, left, right)
    ce = {"inputs": {k: ops.serialize(v) for k, v in inputs.items()}}
    ce["left"] = ops.serialize(left)
    ce["right"] = ops.serialize(right)
    return ce


def _compare(ops, law_name: str, inputs: dict, left, right, tol) -> LawReport:
    """The report of the identity left = right, with the residual and a
    counterexample when it fails."""
    if ops.equal(left, right, tol):
        return LawReport(law_name, True)
    report = LawReport(law_name, False, worst_residual=ops.residual(left, right))
    report.counterexample = _counterexample(ops, inputs, left, right)
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
    if not ops.leq(p, q, tol):
        return LawReport("orthomodular", True, applicable=False)
    rebuilt = ops.join(p, ops.meet(q, ops.ortho(p, tol), tol), tol)
    return _compare(ops, "orthomodular", {"p": p, "q": q}, rebuilt, q, tol)


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
    return LawReport("compatibility_criteria", verdicts[0] == verdicts[1] == verdicts[2])


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
    worst = max(ops.residual(left, right) for left, right in sides)
    failed = [(left, right) for left, right in sides if not ops.equal(left, right, tol)]
    report = LawReport("de_morgan", not failed, worst_residual=worst)
    if failed:
        inputs = {f"a{k}": a for k, a in enumerate(family)}
        report.counterexample = _counterexample(ops, inputs, *failed[0])
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
    if sub.meet(a, ray, tol).dim != 0:
        raise PreconditionViolated("the atom must intersect a only in zero")
    top = sub.join(a, ray, tol)
    holds = top.dim == a.dim + 1
    candidates = [a, top]
    for k in range(3):
        mix = ray.basis[:, 0] + 0.25 * (k + 1) * (
            a.basis[:, 0] if a.dim else np.zeros(a.ambient_dim)
        )
        candidate = sub.join(a, sub.span_of([mix], tol), tol)
        candidates.append(candidate)
    for b in candidates:
        between = sub.leq(a, b, tol) and sub.leq(b, top, tol)
        if between and not (sub.equal(b, a, tol) or sub.equal(b, top, tol)):
            holds = False
    report = LawReport(
        "covering",
        holds,
        trials=len(candidates),
        detail={"dim_a": a.dim, "dim_join": top.dim},
    )
    if not holds:
        report.counterexample = _counterexample(
            _SUBSPACE, {"a": a, "p": ray}, a, top
        )
    return report


def is_modular_pair(
    p: Subspace, q: Subspace, samples: int = 20, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """Check (p join r) meet q = (p meet q) join r for sampled r <= q.

    In finite dimension every pair is modular, so this checker doubles
    as a consistency test of the lattice operations themselves.
    """
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch("ambient dims differ")
    worst = 0.0
    for trial in range(samples):
        r = sub.random_subspace_of(q, trial % (q.dim + 1), seed + 7919 * trial)
        left = sub.meet(sub.join(p, r, tol), q, tol)
        right = sub.join(sub.meet(p, q, tol), r, tol)
        worst = max(worst, sub.projector_distance(left, right))
        if not sub.equal(left, right, tol):
            report = LawReport(
                "modular_pair", False, trials=trial + 1, worst_residual=worst
            )
            report.counterexample = _counterexample(
                _SUBSPACE, {"p": p, "q": q, "r": r}, left, right
            )
            return report
    return LawReport("modular_pair", True, trials=samples, worst_residual=worst)
