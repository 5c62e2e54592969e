"""Composite quantum systems built from two subspace lattices.

A composition of two propositional systems is described by a pair of
structure-preserving maps h1, h2 from the factor lattices into the
composite lattice, subject to three axioms:

  I   (c-morphism) each h preserves arbitrary joins and compatibility
      and maps the full space to the full space,
  II  (no disturbance) images h1(p1) and h2(p2) are always compatible,
  III (no information loss) images of atoms meet in an atom.

Each axiom sub-check is defined once in _AXIOM_CHECKS, keyed by the
counterexample kind it records: sweep_axioms runs it once on a batch of
all its seeded trials (a Subspace batch, see ``subspace``), and
recheck_axiom_counterexample replays it on the subspaces of the JSON.
Axiom I checks the sides that share a source dimension as one lane: one
batch of both sides' trials, mapped piecewise (h1 on side 1's run, h2 on
side 2's), whose verdicts, residuals and batches split back per side.
The checks of a lane share a memo, an identity cache, so each batch is
mapped and each pair joined once, however many checks read it; each
side's prechecks have their own, which maps its full space once for its
lane too.  The table also holds the m-morphism criterion, which
check_m_morphism runs once on the batches of the x, y and x - y rays of
all its trials; its counterexample records them as side 1, and replays
like axiom I's.  One fold, _axiom_report, reports each axiom and the
criterion as a LawReport, by the rule of every LawReport (see ``laws``):
every instance counts, passing or not.
Trial t draws from its trial generator alone, so the reports of the
first n trials fold from any longer sweep: composite-verify sweeps once
and reports the axioms twice, at --trials and inside the isomorphism,
which takes the sweep it folds and with it the pair, seed and tol.

The theorems verified here are existence statements over abstract
pairs (h1, h2).  The module ships one concrete family to run them on:
tensor-cylinder embeddings p -> p tensor C^{d2} (and mirror),
optionally twisted by a unitary on the composite space and optionally
entrywise conjugated (the antilinear variant).  The family provably
satisfies axioms I-III, and its map takes a batch whole, with stacked
calls per group of equally shaped bases.  A user morphism needs only
its lattice map, on one Subspace (a batch goes through it element by
element): nothing below reads how the map was built.

From an axiom-satisfying pair the module derives the ray intertwiners
F/K from the lattice maps alone (h(<x - y>) is the graph of F_{y,x}),
classifies each map as linear or antilinear by the scalar action of
F_{i x, x}, and builds the composite basis {U(f_j, e_i)} of the
coordinate bases e and f in one place, _onb_matrix: it is the unitary
matrix of the basis map onto the tensor space (or the one whose first
factor is dual).  The map does not depend on the product bases it is
built from, so the coordinate bases are enough.  Each derivation maps
the distinct rays it needs as one batch.  The isomorphism is verified
by what the theorem claims: the matrix is unitary (one Gram residual,
so its lift is a lattice isomorphism), and the lift carries the
cylinders p tensor C^{d2} and C^{d1} tensor q onto h1(p) and h2(q), on
the images of all seeded factor subspaces of both sides as one batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache, reduce
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import subspace as sub
from .core import DEFAULT_TOL, Tolerance, as_columns, as_vector, each, orthonormal_bases
from .core import random_vector, rank, trial_generators
# Not called here: the isomorphism draws its frames through sub.random_family.
# Imported so that the binding bench/tracer.py lists still resolves.
from .core import random_unitary  # noqa: F401
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    InvalidDimension,
    NotInDomain,
    NotOrthonormal,
    PreconditionViolated,
    ZeroState,
)
from .laws import LawReport, _report, compatible
from .subspace import Subspace, full_subspace, span_of, zero_subspace

__all__ = [
    "SubspaceMorphism",
    "AxiomSweep",
    "TensorIsoReport",
    "canonical_h",
    "sweep_axioms",
    "verify_axioms",
    "axiom_to_json",
    "recheck_axiom_counterexample",
    "restriction_iso_u",
    "intertwiner_F",
    "check_commutation",
    "classify_linearity",
    "check_m_morphism",
    "default_anchors",
    "BasisMap",
    "build_basis_map",
    "verify_tensor_isomorphism",
]

LINEAR = "linear"
ANTILINEAR = "antilinear"
GEMISCHT = "gemischt"


@dataclass(eq=False)
class SubspaceMorphism:
    """A map between subspace lattices: its source and target dimensions
    and its lattice map.  ``==`` and ``hash`` go by identity, as for a
    Subspace: the axiom memo caches the images of each morphism apart.

    ``map`` acts on one Subspace and is all a morphism needs: the ray
    intertwiners and the linearity class are derived from it.  Called on
    a batch, the morphism hands the whole batch to a map marked
    ``batched = True`` (as canonical_h marks its own) and maps the
    elements of the batch one at a time through any other map.  An image
    outside C^target_dim, on any of these paths, raises DimensionMismatch.
    """

    source_dim: int
    target_dim: int
    map: Callable[[Subspace], Subspace]

    def __call__(self, p: Subspace) -> Subspace:
        if p.ambient_dim != self.source_dim:
            raise DimensionMismatch(
                f"morphism source dim {self.source_dim}, got {p.ambient_dim}"
            )
        if not p.is_batch or getattr(self.map, "batched", False):
            image = self.map(p)
        else:
            image = Subspace.batch(self.target_dim, [self.map(e) for e in p.elements()])
        if image.ambient_dim != self.target_dim:
            raise DimensionMismatch(f"image in C^{image.ambient_dim}, not C^{self.target_dim}")
        return image

    def map_ray(self, x) -> Subspace:
        return self(span_of([as_vector(x)]))


def _gram_residual(m: np.ndarray, tol: Tolerance) -> tuple[float, bool]:
    """||M^dagger M - I||_F of a square M, and whether it exceeds eps_eq * dim."""
    residual = float(np.linalg.norm(m.conj().T @ m - np.eye(len(m))))
    return residual, residual > tol.eps_eq * len(m)


def canonical_h(
    side: int,
    d1: int,
    d2: int,
    twist: Optional[np.ndarray] = None,
    conjugate: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> SubspaceMorphism:
    """Tensor-cylinder embedding of one factor lattice into L(C^{d1 d2}).

    Side 1 sends span{b} to span{W (c(b) tensor f_j) : all j}, side 2
    mirrors this on the second factor; c is entrywise conjugation when
    ``conjugate`` is set (the antilinear variant) and the identity
    otherwise; W is an optional unitary twist on the composite space.
    The map takes a batch whole: one broadcast product (the entries of
    np.kron, bit for bit), one twist matmul and one validation per group
    of equally shaped bases.
    """
    if side not in (1, 2):
        raise InvalidDimension("side must be 1 or 2")
    if d1 < 1 or d2 < 1:
        raise InvalidDimension("factor dimensions must be positive")
    if min(d1, d2) < 3:
        warnings.warn(
            "factor dimension < 3: composite-system theorems need dim >= 3",
            stacklevel=2,
        )
    dim = d1 * d2
    if twist is not None:  # a unitary, given by its columns (see as_columns)
        twist = as_columns(twist)
        if twist.shape != (dim, dim):
            raise NotOrthonormal(f"twist must consist of {dim} vectors of dim {dim}")
        if _gram_residual(twist, tol)[1]:
            raise NotOrthonormal("twist is not orthonormal")
    source_dim = d1 if side == 1 else d2
    other_dim = d2 if side == 1 else d1
    eye = np.eye(other_dim, dtype=complex)

    def cylinder(basis: np.ndarray) -> np.ndarray:
        """W (c(B) kron I) for side 1, W (I kron c(B)) for side 2, of one
        basis B or of a stack of them."""
        block = np.conj(basis) if conjugate else basis
        if side == 1:  # entry (i a, j b) is B[i, j] I[a, b]
            cols = block[..., :, None, :, None] * eye[:, None, :]
        else:  # entry (a i, b j) is I[a, b] B[i, j]
            cols = eye[:, None, :, None] * block[..., None, :, None, :]
        cols = cols.reshape(basis.shape[:-2] + (dim, other_dim * basis.shape[-1]))
        return cols if twist is None else twist @ cols

    def embed(p: Subspace) -> Subspace:
        return Subspace(dim, each(cylinder, p.basis))

    embed.batched = True
    return SubspaceMorphism(source_dim=source_dim, target_dim=dim, map=embed)


def _ray_labels(h: SubspaceMorphism, y, x, tol: Tolerance) -> tuple:
    """The label pairs of the graphs whose matrices multiply to F_{y,x}:
    (y, x) for independent labels, (y, z) and (z, x) for parallel ones,
    where z is the coordinate vector on which x has the least weight (at
    most 1/sqrt(d) of it, so z is independent of x and y), and none for
    the zero map F_{0,x}."""
    xv, yv = as_vector(x), as_vector(y)
    if float(np.linalg.norm(xv)) < tol.eps_rank:
        raise ZeroState("intertwiner source ray label must be nonzero")
    if float(np.linalg.norm(yv)) < tol.eps_rank:
        return ()
    if rank(np.column_stack([xv, yv]), tol) < 2:
        if h.source_dim < 2:
            raise InvalidDimension("parallel labels need a source of dimension >= 2")
        z = np.eye(h.source_dim, dtype=complex)[int(np.argmin(np.abs(xv)))]
        return (yv, z), (z, xv)
    return ((yv, xv),)


def _ray_matrices(h: SubspaceMorphism, pairs, tol: Tolerance, rays=()) -> tuple:
    """The matrices of the ray intertwiners F_{y,x} of the label pairs
    (y, x), and the images of ``rays``, derived from h.map alone, with one
    call of h on the batch of the distinct rays they need.

    For independent x and y, h(<x - y>) is the graph {u - F u : u in
    h(<x>)} of F_{y,x} (the m-morphism property).  Solving
    [B_x, -B_y] [a; b] = B_{x-y} by least squares on the basis matrices
    of the three images gives F = B_y b a^-1 B_x^H.  Parallel labels go
    through z (see _ray_labels): F_{y,x} = F_{y,z} F_{z,x}.  F_{0,x} is
    the zero map.
    """
    labels = [_ray_labels(h, y, x, tol) for y, x in pairs]
    needed = [as_vector(v) for v in rays]
    needed += [v for graphs in labels for y, x in graphs for v in (x, y, x - y)]
    distinct = {v.tobytes(): v for v in needed}
    images = dict(zip(distinct, h(sub.rays(h.source_dim, distinct.values(), tol)).elements()))

    def graph(y, x) -> np.ndarray:
        bx, by, bd = (images[v.tobytes()].basis for v in (x, y, x - y))
        if not bx.shape == by.shape == bd.shape:
            raise AxiomViolation("m_morphism fails: the ray images differ in dimension")
        stacked = np.hstack([bx, -by])
        coef = np.linalg.lstsq(stacked, bd, rcond=None)[0]
        if np.linalg.norm(stacked @ coef - bd) > tol.eps_eq * np.sqrt(bd.shape[1]):
            raise AxiomViolation("m_morphism fails: h(<x - y>) is no graph over h(<x>)")
        k = bx.shape[1]
        return by @ np.linalg.solve(coef[:k].T, coef[k:].T).T @ bx.conj().T

    matrices = [reduce(np.matmul, [graph(y, x) for y, x in graphs]) if graphs
                else np.zeros((h.target_dim, h.target_dim), dtype=complex) for graphs in labels]
    return matrices, [images[v.tobytes()] for v in needed[:len(rays)]]


def intertwiner_F(h: SubspaceMorphism, y, x, tol: Tolerance = DEFAULT_TOL):
    """The map from the image of <x> to the image of <y> under h.

    Derived from h.map alone (see _ray_matrices); vectors outside the
    image of <x> raise NotInDomain.
    """
    (matrix,), (domain,) = _ray_matrices(h, [(y, x)], tol, rays=[x])

    def apply(u) -> np.ndarray:
        uv = as_vector(u)
        if not sub.leq(span_of([uv], tol), domain, tol):
            raise NotInDomain("vector is not in the image of the source ray")
        return matrix @ uv

    return apply


def _same(lhs: Subspace, rhs: Subspace, tol: Tolerance):
    return sub.equal(lhs, rhs, tol), sub.projector_distance(lhs, rhs)


def _commuting(a: Subspace, b: Subspace, tol: Tolerance):
    return compatible(a, b, tol), sub.commutator_norm(a, b)


def _atom(m: Subspace):
    return m.dim == 1, abs(m.dim - 1) * 1.0


def _memo(tol: Tolerance) -> SimpleNamespace:
    """The images ``image(h, p)`` and joins ``join(p, q)`` of one run of
    axiom checks (the prechecks of one side, the trials of one lane, or
    one check alone), each computed once, and their ``tol``; ``full(d)``
    is one full subspace of C^d per memo, so its image is computed once
    too, and ``top(h, p)`` holds that image once per element of p.  The
    caches hold their operands, which hash by identity, so no id is
    reused while the memo lives.  h(p) and sub.join are looked up when
    called (the benchmark tracer patches them)."""
    image, full = cache(lambda h, p: h(p)), cache(full_subspace)

    def top(h: SubspaceMorphism, p: Subspace) -> Subspace:
        s = image(h, full(h.source_dim))
        return Subspace.batch(h.target_dim, [s] * len(p.basis)) if p.is_batch else s

    return SimpleNamespace(tol=tol, image=image, full=full, top=top,
                           join=cache(lambda p, q: sub.join(p, q, tol)))


# Counterexample kind -> its check.  A check takes the _memo it maps and
# joins through, the morphism under test (the pair h1, h2 for the cross
# axioms II and III), then its subspaces (single ones or batches), and
# returns (holds, residual), per element for batches.
_AXIOM_CHECKS = {
    "unitarity": lambda m, h: (
        sub.equal(m.image(h, m.full(h.source_dim)), m.full(h.target_dim), m.tol),
        0.0,
    ),
    "zero": lambda m, h: (m.image(h, zero_subspace(h.source_dim)).dim == 0, 0.0),
    "join": lambda m, h, p, q: _same(
        m.image(h, m.join(p, q)), m.join(m.image(h, p), m.image(h, q)), m.tol
    ),
    "family_join": lambda m, h, p, q, r: _same(
        m.image(h, m.join(m.join(p, q), r)),
        m.join(m.join(m.image(h, p), m.image(h, q)), m.image(h, r)),
        m.tol,
    ),
    "complement": lambda m, h, p: _same(
        m.image(h, sub.ortho(p)),
        sub.meet(sub.ortho(m.image(h, p)), m.top(h, p), m.tol),
        m.tol,
    ),
    "compat_preservation": lambda m, h, p, q: (
        compatible(m.image(h, p), m.image(h, q), m.tol), 0.0
    ),
    "compatibility": lambda m, h1, h2, p, q: _commuting(m.image(h1, p), m.image(h2, q), m.tol),
    "atom_meet": lambda m, h1, h2, p, q: _atom(sub.meet(m.image(h1, p), m.image(h2, q), m.tol)),
    # p = <x>, q = <y>, r = <x - y> (check_m_morphism)
    "m_morphism": lambda m, h, p, q, r: sub.inclusion(
        m.image(h, r), m.join(m.image(h, p), m.image(h, q)), m.tol
    ),
}


def _axiom_ce(kind: str, side, subspaces) -> dict:
    ce = {"kind": kind}
    if side is not None:
        ce["side"] = side
    for name, s in zip("pqr", subspaces):
        ce[name] = sub.subspace_to_json(s)
    return ce


def _checked(memo: SimpleNamespace, morphisms: tuple, samples) -> list:
    """Each (kind, subspace batches) of ``samples`` checked once on its
    batches: (kind, verdicts, residuals, batches), one verdict and
    residual per trial, of a check on no subspaces one.  The checks map
    and join through ``memo`` (a _memo), so a batch that an earlier check
    on it mapped or a pair it joined is not computed again."""
    checks = []
    for kind, batches in samples:
        holds, residual = _AXIOM_CHECKS[kind](memo, *morphisms, *batches)
        trials = len(batches[0].elements()) if batches else 1
        checks.append((kind, np.broadcast_to(holds, trials), np.broadcast_to(residual, trials),
                       batches))
    return checks


def _axiom_report(axiom: str, groups, n: int) -> LawReport:
    """The report of ``axiom`` on ``groups``, each a side (None for the
    cross axioms) and the checks _checked gives, by the rule of every
    LawReport (see ``laws``).  An instance is one of the first n trials of
    a group, failing when any of its checks fails; a group of checks on no
    subspaces (an axiom I precheck) is one instance.  The counterexample
    is the first failing instance in group order, at its first failing
    check."""
    failed, worst, ce = [], 0.0, None
    for side, checks in groups:
        k = n if checks[0][3] else 1
        holds = np.stack([c[1][:k] for c in checks], axis=-1)
        worst = max([worst, *np.ravel([c[2][:k] for c in checks]).tolist()])
        failed.append(np.logical_not(holds.all(axis=-1)))
        if ce is None and failed[-1].any():
            trial = int(np.argmax(failed[-1]))
            kind, _, _, batches = checks[int(np.argmin(holds[trial]))]
            ce = _axiom_ce(kind, side, [b.elements()[trial] for b in batches])
    return _report(axiom, np.concatenate(failed), worst_residual=worst, counterexample=ce)


def axiom_to_json(report: LawReport) -> dict:
    """An axiom's report under its orthologic/1 names; a report with no
    counterexample has no such key."""
    out = {"axiom": report.law_name, "passed": report.holds, "samples": report.trials,
           "worst_residual": report.worst_residual, "counterexample": report.counterexample}
    return {name: v for name, v in out.items() if v is not None}


_AXIOMS = ("I_c_morphism", "II_compatibility", "III_atoms")


@dataclass(frozen=True, eq=False)
class AxiomSweep:
    """Axioms I-III checked on ``trials`` seeded instances of the pair
    (h1, h2) drawn from ``seed`` and decided under ``tol`` (sweep_axioms).

    ``groups`` holds the (side, checks) groups of each axiom that
    _axiom_report folds: of axiom I, per side, its unitarity and its zero
    precheck and then, if it passes both, its trials (checked in its
    lane, see _sweep_lane, and split back to the side); of axioms II and
    III, their trials.  Trial t draws from its own generator alone (see
    trial_generators), so ``reports(n)`` gives exactly the reports of an
    n-trial sweep, for any n <= trials.
    """

    h1: SubspaceMorphism
    h2: SubspaceMorphism
    seed: int
    tol: Tolerance
    trials: int
    groups: tuple

    def reports(self, n: int) -> list[LawReport]:
        """The reports of axioms I-III on the first n trials."""
        if not 0 <= n <= self.trials:
            raise ValueError(f"a sweep of {self.trials} trials has no {n}-trial prefix")
        return [_axiom_report(axiom, groups, n) for axiom, groups in zip(_AXIOMS, self.groups)]


def _sweep_lane(lane, trials: int, seed: int, tol: Tolerance) -> list:
    """Axiom I's trials on a lane, the sides (side, h, memo) that share a
    source dimension, in side order: the trials of every side, each drawn
    from its side's trial generators, as one batch, and each check run
    once on it.  The lane maps a batch piecewise, each side's h on its run
    of trials, and takes each side's image of the full space (``top``)
    from that side's memo, which mapped it once.  Gives (side, checks) for
    each side, on its run of trials."""
    k, memo = len(lane), _memo(tol)
    d, dim = lane[0][1].source_dim, lane[0][1].target_dim

    def runs(p: Subspace):
        return zip(lane, p.split(k))

    def piecewise(p: Subspace) -> Subspace:
        return Subspace.batch(dim, [h(run) for (_, h, _), run in runs(p)])

    piecewise.batched = True
    memo.top = lambda _, p: Subspace.batch(dim, [m.top(h, run) for (_, h, m), run in runs(p)])

    def rngs(name: str) -> np.ndarray:
        return np.concatenate([trial_generators(seed, name + str(side), trials)
                               for side, _, _ in lane])

    p, q, r = sub.random_family((d, d, d), rngs("axiom1_side"), proper=False)
    cp, cq = sub.compatible_pair(d, rngs("compat"))
    checks = _checked(memo, (SubspaceMorphism(d, dim, piecewise),), (
        ("join", (p, q)),
        ("family_join", (p, q, r)),
        ("complement", (p,)),
        ("compat_preservation", (cp, cq)),
    ))
    checks = [(kind, np.split(holds, k), np.split(residual, k), [b.split(k) for b in batches])
              for kind, holds, residual, batches in checks]
    return [(side, [(kind, holds[j], residual[j], tuple(b[j] for b in batches))
                    for kind, holds, residual, batches in checks])
            for j, (side, _, _) in enumerate(lane)]


def sweep_axioms(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    trials: int,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomSweep:
    """Check axioms I-III on ``trials`` seeded instances: each sampler
    draws all trials as one batch, and each check runs once on it.  The
    sides of axiom I that pass their prechecks and share a source
    dimension are one lane, checked on one batch of both sides' trials;
    other sides each form their own."""
    if h1.target_dim != h2.target_dim:
        raise DimensionMismatch("morphisms must share a target space")

    # Axiom I: each h alone must be a unitary c-morphism.  A map failing
    # unitarity or zero is not sampled; the other map still is.
    c_morphism, passing = {}, {}
    for side, h in ((1, h1), (2, h2)):
        memo = _memo(tol)  # the side's prechecks, and its full image in its lane
        prechecks = _checked(memo, (h,), (("unitarity", ()), ("zero", ())))
        c_morphism[side] = [(side, [check]) for check in prechecks]
        if all(holds[0] for _, holds, _, _ in prechecks):
            passing.setdefault(h.source_dim, []).append((side, h, memo))
    for lane in passing.values():
        for side, checks in _sweep_lane(lane, trials, seed, tol):
            c_morphism[side].append((side, checks))

    # Axiom II: cross-images are compatible.  Axiom III: atom images meet
    # in an atom.
    d1, d2 = h1.source_dim, h2.source_dim
    p1, p2 = sub.random_family((d1, d2), trial_generators(seed, "axiom2", trials), proper=False)
    atoms = trial_generators(seed, "axiom3", trials)  # each draws r1, then r2
    r1, r2 = sub.random_ray(d1, atoms, tol), sub.random_ray(d2, atoms, tol)
    groups = (
        (*c_morphism[1], *c_morphism[2]),
        ((None, _checked(_memo(tol), (h1, h2), (("compatibility", (p1, p2)),))),),
        ((None, _checked(_memo(tol), (h1, h2), (("atom_meet", (r1, r2)),))),),
    )
    return AxiomSweep(h1, h2, seed, tol, trials, groups)


def verify_axioms(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[LawReport]:
    """Check axioms I-III on seeded random instances (see sweep_axioms).

    Failures never raise; they land in the reports together with a
    re-checkable counterexample (see recheck_axiom_counterexample).
    """
    return sweep_axioms(h1, h2, trials, seed, tol).reports(trials)


def recheck_axiom_counterexample(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    ce: dict,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Re-run the single check recorded in a counterexample.

    Returns True when the recorded failure reproduces.  The one-sided
    kinds (axiom I, and the "m_morphism" kind of check_m_morphism, which
    records side 1) replay on the morphism of their side, 1 or 2, so the
    morphism of a check_m_morphism counterexample is passed as h1; the
    cross kinds of axioms II and III have no side.  ValueError refuses a
    ``ce`` that is not a dict, an unknown kind, a side unfit for the kind
    (of a one-sided kind, anything but the int 1 or 2), or subspaces other
    than the check's (p, then q, then r, each in its morphism's source
    space).
    """
    if not isinstance(ce, dict):
        raise ValueError(f"a counterexample is a dict, not {type(ce).__name__}")
    kind, side = ce.get("kind"), ce.get("side")
    if not isinstance(kind, str) or kind not in _AXIOM_CHECKS:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    cross = kind in ("compatibility", "atom_meet")
    if ("side" in ce) if cross else not (type(side) is int and side in (1, 2)):
        raise ValueError(f"side {side!r} does not fit a {kind!r} counterexample")
    morphisms = (h1, h2) if cross else ((h1, h2)[side - 1],)
    check = _AXIOM_CHECKS[kind]
    names = "pqr"[:check.__code__.co_argcount - 1 - len(morphisms)]
    if [name for name in "pqr" if name in ce] != list(names):
        raise ValueError(f"a {kind!r} counterexample holds the subspaces {list(names)}")
    try:
        subspaces = [sub.subspace_from_json(ce[n]) for n in names]
    except DimensionMismatch as exc:
        raise ValueError(str(exc)) from None
    if [p.ambient_dim for p in subspaces] != [h.source_dim for h in morphisms * 3][:len(names)]:
        raise ValueError(f"a subspace of a {kind!r} counterexample is not in its map's source")
    return not check(_memo(tol), *morphisms, *subspaces)[0]


def restriction_iso_u(
    h1: SubspaceMorphism, h2: SubspaceMorphism, x2, tol: Tolerance = DEFAULT_TOL
) -> SubspaceMorphism:
    """The slice map p1 -> h1(p1) meet h2(<x2>).

    For an axiom-satisfying pair this is an isomorphism from the first
    factor lattice onto the lattice of the slice h2(<x2>); with the pair
    swapped, ``restriction_iso_u(h2, h1, x1)``, it is the mirror slice map
    p2 -> h2(p2) meet h1(<x1>).
    """
    x2v = as_vector(x2)
    if float(np.linalg.norm(x2v)) < tol.eps_rank:
        raise ZeroState("slice ray label must be nonzero")
    slice_image = h2.map_ray(x2v)

    def mapped(p1: Subspace) -> Subspace:
        return sub.meet(h1(p1), slice_image, tol)

    return SubspaceMorphism(source_dim=h1.source_dim, target_dim=h1.target_dim, map=mapped)


def check_commutation(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    x1,
    y1,
    x2,
    y2,
    allow_scalar_multiple: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> LawReport:
    """Check that the two ray intertwiners commute on the atom meet.

    For x in h1(<x1>) meet h2(<x2>) the compositions F_{y1,x1} after
    K_{y2,x2} and in the opposite order must agree, and each single
    application must land in the stated meets.  The pairs (x1, y1) and
    (x2, y2) must be linearly independent unless
    ``allow_scalar_multiple`` admits the scalar-multiple extension.
    Each map is called once (see _ray_matrices) and F and K act as
    matrices, so a failing instance is reported, never raised.
    """
    vecs = [as_vector(v) for v in (x1, y1, x2, y2)]
    if any(float(np.linalg.norm(v)) < tol.eps_rank for v in vecs):
        raise PreconditionViolated("all four ray labels must be nonzero")
    x1v, y1v, x2v, y2v = vecs
    if not allow_scalar_multiple:
        if span_of([x1v, y1v], tol).dim != 2 or span_of([x2v, y2v], tol).dim != 2:
            raise PreconditionViolated("ray labels must be pairwise linearly independent")
    (f,), (hx1, hy1) = _ray_matrices(h1, [(y1v, x1v)], tol, rays=[x1v, y1v])
    (k,), (hx2, hy2) = _ray_matrices(h2, [(y2v, x2v)], tol, rays=[x2v, y2v])
    start = sub.meet(hx1, hx2, tol)
    if start.dim == 0:
        raise PreconditionViolated("the atom meet is empty; axioms fail upstream")
    meet_f, meet_k = sub.meet(hy1, hx2, tol), sub.meet(hx1, hy2, tol)
    worst, failed = 0.0, []
    for u in (start.basis[:, 0], (0.7 - 1.3j) * start.basis[:, 0]):  # one instance each
        fu, ku = f @ u, k @ u
        lands = all(sub.leq(span_of([v], tol), m, tol) for v, m in ((fu, meet_f), (ku, meet_k)))
        fk, kf = f @ ku, k @ fu
        res = float(np.linalg.norm(fk - kf)) / max(1.0, float(np.linalg.norm(fk)))
        worst = max(worst, res)
        failed.append(not lands or res > tol.eps_eq)
    report = _report("commutation", np.array(failed), worst_residual=worst)
    if not report.holds:
        report.counterexample = {name: sub.complex_to_json(v)
                                 for name, v in zip(("x1", "y1", "x2", "y2"), vecs)}
    return report


def classify_linearity(
    h: SubspaceMorphism, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> str:
    """Classify h by the scalar action of F_{i x, x} on all of h(<x>).

    The map multiplies every domain vector either by i (linear) or by
    -i (antilinear); any other action is reported as "gemischt", which
    a valid composite-system morphism never exhibits.  ``seed`` draws x.
    """
    x = random_vector(h.source_dim, *trial_generators(seed, "classify", 1))
    (matrix,), (domain,) = _ray_matrices(h, [(1j * x, x)], tol, rays=[x])
    basis = domain.basis
    image = matrix @ basis
    for scalar, linearity in ((1j, LINEAR), (-1j, ANTILINEAR)):
        if np.linalg.norm(image - scalar * basis) < tol.eps_eq * np.sqrt(basis.shape[1]):
            return linearity
    return GEMISCHT


def check_m_morphism(
    h: SubspaceMorphism, trials: int = 50, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """Sufficient modularity criterion on sampled ray differences.

    Checks that the image of <x - y> is contained in the join of the
    images of <x> and <y>; a c-morphism passing this sends modular
    pairs to modular pairs.  Every fifth trial takes y = 2x and the
    others an independent y, so x - y is never zero.  The x, y and x - y
    rays of all trials are three batches, checked by one run of the
    "m_morphism" check, each trial one instance; the rays of the first
    failing trial are the counterexample, recorded as side 1 (see
    recheck_axiom_counterexample).
    """
    rngs = trial_generators(seed, "mmorph", trials)
    xs = [random_vector(h.source_dim, rng) for rng in rngs]
    ys = [2.0 * x if t % 5 == 4 else random_vector(h.source_dim, rng)
          for t, (x, rng) in enumerate(zip(xs, rngs))]
    rays = [sub.rays(h.source_dim, vs, tol) for vs in (xs, ys, [x - y for x, y in zip(xs, ys)])]
    checks = _checked(_memo(tol), (h,), (("m_morphism", rays),))
    return _axiom_report("m_morphism", [(1, checks)], trials)


def default_anchors(
    h1: SubspaceMorphism, h2: SubspaceMorphism, tol: Tolerance = DEFAULT_TOL
) -> tuple:
    """Anchor triple (z1, z2, z) with z spanning the meet of the images.

    z1 and z2 are the first coordinate vectors of the factors (the
    basis map does not depend on this choice); z is computed from the
    lattice itself, so the choice also works for twisted morphisms where
    no closed form is available.  Image rays
    that do not meet fail axiom III (AxiomViolation).
    """
    z1, z2 = (np.eye(h.source_dim, dtype=complex)[0] for h in (h1, h2))
    m = sub.meet(h1.map_ray(z1), h2.map_ray(z2), tol)
    if m.dim == 0:
        raise AxiomViolation("III_atoms fails: the default anchors' image rays do not meet")
    z = m.basis[:, 0]
    # Fix the arbitrary phase of the meet's basis vector (an SVD factor):
    # its largest coordinate becomes real positive, so untwisted canonical
    # pairs get exactly the image of z1 tensor z2.
    k = int(np.argmax(np.abs(z)))
    z = z * (np.conj(z[k]) / abs(z[k]))
    return z1, z2, z


def _onb_matrix(h1, h2, tol: Tolerance) -> np.ndarray:
    """The composite basis {U(f_j, e_i)} of the coordinate bases e of
    C^{d1} and f of C^{d2}, as the columns of one matrix in the order
    (i, j) -> i * d2 + j: U(f_j, e_i) = alpha F_{e_i,z1} K_{f_j,z2} z, with
    the anchors (z1, z2, z) of default_anchors and alpha = |z1| |z2| / |z|.
    Each factor intertwiner is derived once, d1 + d2 derivations in all."""
    z1, z2, z = default_anchors(h1, h2, tol)
    alpha = float(np.linalg.norm(z1) * np.linalg.norm(z2) / np.linalg.norm(z))
    ks, _ = _ray_matrices(h2, [(y, z2) for y in np.eye(h2.source_dim, dtype=complex)], tol)
    fs, _ = _ray_matrices(h1, [(x, z1) for x in np.eye(h1.source_dim, dtype=complex)], tol)
    k_steps = np.column_stack([k @ z for k in ks])
    return alpha * np.hstack([fx @ k_steps for fx in fs])


@dataclass(eq=False)
class BasisMap:
    """The vector-level map from the tensor space onto the composite space.

    ``matrix`` is unitary: its columns are the composite basis
    {U(f_j, e_i)} of the coordinate bases (see _onb_matrix), the images
    of the product basis.  ``linearity`` holds the classes of h1 and h2:
    mixed classes make the first factor the dual one (target "H1*xH2"),
    and an antilinear h2 makes the map antiunitary, conjugating the input
    coordinates first.  Its lift to subspaces is the lattice isomorphism
    that carries the cylinders onto h1 and h2 (verify_tensor_isomorphism).
    """

    matrix: np.ndarray
    linearity: tuple[str, str]

    @property
    def target(self) -> str:
        return "H1*xH2" if self.linearity[0] != self.linearity[1] else "H1xH2"

    @property
    def antiunitary(self) -> bool:
        return self.linearity[1] == ANTILINEAR

    def lift(self, g: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
        """The span of the images of g's basis vectors; of a batch, of
        each element's."""
        return Subspace(g.ambient_dim, each(lambda b: orthonormal_bases(
            self.matrix @ (np.conj(b) if self.antiunitary else b), tol), g.basis))

    # Not called here; kept as the binding that bench/tracer.py times.
    def lift_inverse(self, g: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
        """The lift of the inverse map: the matrix is unitary, and y = M
        conj(x) gives x = M^T conj(y)."""
        m = self.matrix
        return BasisMap(m.T if self.antiunitary else m.conj().T, self.linearity).lift(g, tol)


def build_basis_map(h1: SubspaceMorphism, h2: SubspaceMorphism,
                    tol: Tolerance = DEFAULT_TOL) -> BasisMap:
    """Assemble the case-matched map from the tensor space to the target.

    Matching linearity classes keep the plain product space C^{d1}
    tensor C^{d2} as the domain (with coefficients conjugated in the
    antilinear-antilinear case); mixed classes move the first factor to
    its dual.  The coefficient of the (i, j) coordinate product vector
    is carried onto U(f_j, e_i).  The coordinate bases suffice: the map
    does not depend on the product bases it is built from, so the
    product vector of any other bases e and f is carried onto their
    U(f_j, e_i) too.  Both linearity classes are derived here; a
    gemischt morphism is refused (AxiomViolation) by name.
    """
    lin1, lin2 = classify_linearity(h1, tol=tol), classify_linearity(h2, tol=tol)
    if GEMISCHT in (lin1, lin2):
        raise AxiomViolation("gemischt morphisms admit no basis map")
    return BasisMap(_onb_matrix(h1, h2, tol), (lin1, lin2))


@dataclass
class TensorIsoReport:
    """Verification record for the lattice isomorphism onto tensor space."""

    target: str
    linearity: tuple[str, str]
    trials: int
    passed: bool
    worst_residual: float
    axiom_reports: list[LawReport] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "linearity": list(self.linearity),
            "trials": self.trials,
            "passed": self.passed,
            "worst_residual": self.worst_residual,
            "axioms": [axiom_to_json(r) for r in self.axiom_reports],
            "failures": self.failures,
        }


def verify_tensor_isomorphism(sweep: AxiomSweep, trials: int, axiom_trials: int) -> TensorIsoReport:
    """Constructively verify that the composite lattice of the pair
    (h1, h2) that ``sweep`` checked is the tensor one, with h1 and h2 the
    cylinder maps p -> p tensor C^{d2} and q -> C^{d1} tensor q, under the
    seed and tol of the sweep.

    Refuses (AxiomViolation, naming the axiom) unless axioms I-III
    verify on the first ``axiom_trials`` trials of ``sweep`` (ValueError
    past its length).  The basis map is built before that: it derives
    both linearity classes and so refuses a gemischt pair by name first.
    Then the map must be unitary (one Gram residual, failure "unitary"),
    so that its lift is a lattice isomorphism, and the lift must carry the
    untwisted cylinders c1 and c2 of canonical_h onto h1 and h2 (c1
    conjugated for the dual-first target) on ``trials`` seeded proper
    factor subspaces, with one lift and one comparison on the images of
    both sides (failures "h1@t", "h2@t");
    the report names which tensor space (plain or dual-first) applied.
    """
    h1, h2, seed, tol = sweep.h1, sweep.h2, sweep.seed, sweep.tol
    bm = build_basis_map(h1, h2, tol=tol)
    axiom_reports = sweep.reports(axiom_trials)
    for report in axiom_reports:
        if not report.holds:
            raise AxiomViolation(f"axiom {report.law_name} fails; no isomorphism is built")
    d1, d2 = h1.source_dim, h2.source_dim
    gram, not_unitary = _gram_residual(bm.matrix, tol)
    cylinders = canonical_h(1, d1, d2, conjugate=bm.target == "H1*xH2"), canonical_h(2, d1, d2)
    factors = sub.random_family((d1, d2), trial_generators(seed, "tensoriso", trials), proper=True)
    # one lift and one _same on both sides' images, read as (trial, side) arrays
    lhs, rhs = (Subspace.batch(d1 * d2, [f(p) for f, p in zip(maps, factors)])
                for maps in (cylinders, (h1, h2)))
    holds, residuals = (np.reshape(x, (2, trials)).T for x in _same(bm.lift(lhs, tol), rhs, tol))
    failures = ["unitary"] if not_unitary else []
    failures += [f"h{k + 1}@{t}" for t, k in zip(*np.nonzero(np.logical_not(holds)))]

    return TensorIsoReport(
        target=bm.target,
        linearity=bm.linearity,
        trials=trials,
        passed=not failures,
        worst_residual=max([0.0, gram, *residuals.ravel().tolist()]),
        axiom_reports=axiom_reports,
        failures=failures,
    )
