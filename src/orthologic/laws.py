"""Decidable checkers for lattice laws.

Every checker returns a LawReport carrying the verdict, the number of
trials, the worst numerical residual seen, and, on failure, a
re-checkable counterexample (serialized inputs plus both evaluated
sides).  The checkers work both on quantum propositions (Subspace) and
classical ones (ClassicalProp); the classical power-set lattice
satisfies every law here, the subspace lattice does not.

Either kind of argument may be a batch: a ClassicalProp holding an array
of bitmasks, which broadcasts against the other arguments, or a Subspace
holding a tuple of bases.  The same checker body then decides the law on
every element at once, and _report counts every LawReport, composite's
axioms I-III, check_m_morphism and check_commutation included, by one
rule.  An instance is one batch element (of is_modular_pair, one sampled
(p, q, r)); ``trials`` counts the instances within the law's hypothesis
(orthomodularity, covering and triple distributivity have one),
``applicable`` says whether there is any, ``failures`` counts the
failing ones and ``holds`` whether there is none.  ``worst_residual`` is
the largest residual of every identity on every instance within the
hypothesis (of a classical instance, the number of points in which the
two sides differ), passing or not.  The counterexample holds the inputs
and sides of the first failing instance in C order, at its first
failing identity, as single propositions, so it replays through the
same checker.

Compatibility of two subspaces is decided lattice-theoretically by the
constructive criterion (a meet b) join (a' meet b) = b; the second
criterion (a join b') meet b = a meet b and the projector-commutator
test are exposed separately, and check_compatibility_criteria checks
that the three routes agree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import classical as cl
from . import subspace as sub
from .core import DEFAULT_TOL, Tolerance, _one, generators
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
    "check_triple_distributive",
    "check_covering",
    "is_modular_pair",
]


@dataclass
class LawReport:
    """Verdict of a single lattice-law check."""

    law_name: str
    trials: int
    failures: int
    worst_residual: float = 0.0
    counterexample: Optional[dict] = None

    @property
    def holds(self) -> bool:  # no instance within the law's hypothesis fails
        return self.failures == 0

    @property
    def applicable(self) -> bool:  # any instance within the law's hypothesis
        return self.trials > 0

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
        return out


def _bit_counts(masks):
    """The number of set bits of each bitmask in ``masks`` (an int or an
    integer array): one shift per bit up to the highest set one."""
    count = 0
    while np.any(masks):
        count, masks = count + (masks & 1), masks >> 1
    return count


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
    element=lambda p, shape, at: p.elements()[at[0] if at else 0],  # batches are 1-D
)
_CLASSICAL = SimpleNamespace(
    join=lambda a, b, tol: cl.prop_or(a, b),
    meet=lambda a, b, tol: cl.prop_and(a, b),
    ortho=lambda a, tol: cl.prop_not(a),
    equal=lambda a, b, tol: a.members == b.members,
    leq=lambda a, b, tol: b.contains(a),
    residual=lambda a, b: _bit_counts(a.members ^ b.members),
    serialize=lambda a: a.to_json(),
    element=lambda p, shape, at: cl.ClassicalProp(
        p.space, int(np.broadcast_to(p.members, shape)[at])),
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


def _counterexample(ops, inputs: dict, left, right, failed) -> dict:
    """The inputs and both sides at the first element, in C order, that
    ``failed`` marks, serialized; a single proposition is its own first
    element."""
    shape = np.shape(failed)
    at = np.unravel_index(np.argmax(failed), shape)

    def serialize(p):
        return ops.serialize(ops.element(p, shape, at))

    return {"inputs": {k: serialize(p) for k, p in inputs.items()},
            "left": serialize(left), "right": serialize(right)}


def _report(law_name: str, failed, applies=True, **fields) -> LawReport:
    """The report of a law failing on the instances ``failed`` marks, out
    of those it ``applies`` to."""
    # broadcasting repeats each element of applies equally often
    trials = int(np.count_nonzero(applies) * (np.size(failed) // np.size(applies)))
    return LawReport(law_name, trials, int(np.count_nonzero(failed)), **fields)


def _compare(ops, law_name: str, inputs: dict, sides: list, tol, applies=True) -> LawReport:
    """The report of the identities left = right, one (left, right) pair
    of ``sides`` each, on the instances the law ``applies`` to."""
    same = np.stack([ops.equal(left, right, tol) for left, right in sides])
    failed = np.less(same.all(axis=0), applies)  # applies (True) but fails (False)
    report = _report(law_name, failed, applies)
    if report.trials:  # a scalar residual (one instance, or a zero popcount) is every instance's
        residuals = (ops.residual(left, right) for left, right in sides)
        report.worst_residual = max(
            float(np.max(r, where=applies, initial=0.0) if np.ndim(r) else r) for r in residuals)
    if not report.holds:
        at = np.unravel_index(np.argmax(failed), failed.shape)
        left, right = sides[int(np.argmin(same[(slice(None), *at)]))]  # its first failing identity
        report.counterexample = _counterexample(ops, inputs, left, right, failed)
    return report


def check_distributive(a, b, c, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Check a join (b meet c) = (a join b) meet (a join c).

    Holds for every classical triple; fails for generic subspace
    triples, which is the structural split between the two logics.
    """
    ops = _lattice(a)
    sides = [_distributive_sides(ops.join, ops.meet, a, b, c, tol)]
    return _compare(ops, "distributive", {"a": a, "b": b, "c": c}, sides, tol)


def nondistributivity_witness(d: int, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Distributivity checked on three rays of one plane of C^d, d >= 2.

    With the coordinate vectors e0 and e1, the rays a = <e0>, b = <e1>
    and c = <e0 + e1> pairwise meet in zero and pairwise join to the
    plane span{e0, e1}, so a join (b meet c) is the ray a and (a join b)
    meet (a join c) is the plane: the law fails at every tolerance, with
    both sides recorded in the counterexample.
    """
    e = np.eye(d)
    return check_distributive(*(sub.span_of([v], tol) for v in (e[0], e[1], e[0] + e[1])), tol)


def check_orthomodular(p, q, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """For p <= q, check q = p join (q meet p')."""
    ops = _lattice(p)
    rebuilt = ops.join(p, ops.meet(q, ops.ortho(p, tol), tol), tol)
    return _compare(ops, "orthomodular", {"p": p, "q": q}, [(rebuilt, q)], tol,
                    applies=ops.leq(p, q, tol))


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

    Each is decided by ``equal``, complement side first."""
    ops = _lattice(family[0])
    orthos = [ops.ortho(a, tol) for a in family]
    sides = [
        (ops.ortho(_fold(ops.join, family, tol), tol), _fold(ops.meet, orthos, tol)),
        (ops.ortho(_fold(ops.meet, family, tol), tol), _fold(ops.join, orthos, tol)),
    ]
    return _compare(ops, "de_morgan", {f"a{k}": a for k, a in enumerate(family)}, sides, tol)


def check_triple_distributive(a, b, c, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """If some element is compatible with the other two, the triple must
    satisfy all six distributivity identities.  A classical triple
    always meets the hypothesis."""
    ops = _lattice(a)
    applies = True
    if ops is _SUBSPACE:
        def both(x, y, z):
            return np.logical_and(compatible(x, y, tol), compatible(x, z, tol))

        applies = np.logical_or.reduce([both(a, b, c), both(b, a, c), both(c, a, b)])
    sides = [
        _distributive_sides(join, meet, x, y, z, tol)
        for x, y, z in ((a, b, c), (b, a, c), (c, a, b))
        for join, meet in ((ops.join, ops.meet), (ops.meet, ops.join))
    ]
    return _compare(ops, "triple_distributive", {"a": a, "b": b, "c": c}, sides, tol, applies)


def check_covering(p: Ray, a: Subspace, tol: Tolerance = DEFAULT_TOL) -> LawReport:
    """Covering property of atoms: with a meet p = 0, nothing sits
    strictly between a and a join p.

    In L(C^d) a strictly larger subspace has a strictly larger
    dimension, so the law is dim(a join p) = dim(a) + 1 (Kalmbach,
    *Orthomodular Lattices*, 1983): any b with a <= b <= a join p then
    has the dimension of a or of a join p, and so equals it.  The check
    decides exactly that, with one meet and one join.  Joining a with
    another ray of the gap, <p + c a0> for a direction a0 of a, adds
    nothing: p + c a0 lies in a join p, and p lies in a join
    <p + c a0>, so every such candidate is a join p.  Elements where a
    meets p are outside the hypothesis; within it, a failure is a join
    and a meet that break the dimension identity.
    """
    ray = p.subspace
    inside = sub.meet(a, ray, tol).dim == 0
    top = sub.join(a, ray, tol)
    failed = np.logical_and(inside, top.dim != a.dim + 1)
    report = _report("covering", failed, inside)
    if not report.holds:
        report.counterexample = _counterexample(_SUBSPACE, {"a": a, "p": ray}, a, top, failed)
    return report


def is_modular_pair(
    p: Subspace, q: Subspace, samples: int = 20, seed=0, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """Check (p join r) meet q = (p meet q) join r for sampled r <= q.

    In finite dimension every pair is modular, so this checker doubles
    as a consistency test of the lattice operations themselves.  All
    samples of all elements are checked as one batch, each sample one
    instance.  An element's r are drawn, in sample order, from its seed's
    or generator's one stream, which a generator continues.
    """
    rngs = generators(seed if isinstance(seed, np.ndarray) else _one(seed))
    trial = np.arange(samples)

    def repeat(x):  # each element once per sample
        return Subspace.batch(x.ambient_dim, [e for e in x.elements() for _ in trial])

    ps, qs = repeat(p), repeat(q)
    ks = np.tile(trial, len(rngs)) % (qs.dim + 1)
    r = sub.random_subspace_of(qs, ks, np.repeat(rngs, samples))
    left = sub.meet(sub.join(ps, r, tol), qs, tol)
    right = sub.join(repeat(sub.meet(p, q, tol)), r, tol)
    return _compare(_SUBSPACE, "modular_pair", {"p": ps, "q": qs, "r": r}, [(left, right)], tol)
