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
The checks of one side share a memo for that call, so each batch is
mapped and each pair joined once, however many checks read it.  The
table also holds the m-morphism criterion, which check_m_morphism runs
once on the batches of the x, y and x - y rays of all its trials; its
counterexample records them as side 1, and replays like axiom I's.
Trial t draws from subseed(seed, tag, t) alone, so the reports of the
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
F_{i x, x}, and builds the norm-preserving maps U/V they generate, the
product orthonormal basis of the composite space, and finally the
basis map onto the tensor space (or its dual-twisted variant), whose
lift to subspaces is verified to be a lattice isomorphism, on all its
seeded trials as one batch.  Each derivation maps the distinct rays it
needs as one batch, and the trials draw both their subspaces in one
call, so a frame two trials share is drawn once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

import numpy as np

from . import subspace as sub
from .core import DEFAULT_TOL, Tolerance, as_columns, as_vector, each, orthonormal_bases
from .core import random_vector, rank, subseed, subseeds
# Not called here: the isomorphism draws its frames through sub.random_subspace.
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
from .laws import LawReport, compatible
from .subspace import Subspace, full_subspace, span_of, zero_subspace
from .tensor import TensorIndex

__all__ = [
    "SubspaceMorphism",
    "AxiomReport",
    "AxiomSweep",
    "TensorIsoReport",
    "canonical_h",
    "sweep_axioms",
    "verify_axioms",
    "recheck_axiom_counterexample",
    "restriction_iso_u",
    "restriction_iso_v",
    "intertwiner_F",
    "check_commutation",
    "classify_linearity",
    "check_m_morphism",
    "default_anchors",
    "build_U_V",
    "composite_onb",
    "BasisMap",
    "build_basis_map",
    "verify_tensor_isomorphism",
]

LINEAR = "linear"
ANTILINEAR = "antilinear"
GEMISCHT = "gemischt"


@dataclass
class SubspaceMorphism:
    """A map between subspace lattices: its source and target dimensions
    and its lattice map.

    ``map`` acts on one Subspace and is all a morphism needs: the ray
    intertwiners and the linearity class are derived from it.  Called on
    a batch, the morphism hands the whole batch to a map marked
    ``batched = True`` (as canonical_h marks its own) and maps the
    elements of the batch one at a time through any other map.
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
            return self.map(p)
        return Subspace.batch(self.target_dim, [self.map(e) for e in p.elements()])

    def map_ray(self, x) -> Subspace:
        return self(span_of([as_vector(x)]))


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
    if twist is not None:
        twist = _check_onb(twist, dim, tol, "twist")
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
        if not domain.contains(uv, tol):
            raise NotInDomain("vector is not in the image of the source ray")
        return matrix @ uv

    return apply


@dataclass
class AxiomReport:
    """Result of checking one composite-system axiom."""

    axiom: str
    passed: bool
    samples: int
    worst_residual: float
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "axiom": self.axiom,
            "passed": self.passed,
            "samples": self.samples,
            "worst_residual": self.worst_residual,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _same(lhs: Subspace, rhs: Subspace, tol: Tolerance):
    return sub.equal(lhs, rhs, tol), sub.projector_distance(lhs, rhs)


def _commuting(a: Subspace, b: Subspace, tol: Tolerance):
    return compatible(a, b, tol), sub.commutator_norm(a, b)


def _atom(m: Subspace):
    return m.dim == 1, abs(m.dim - 1) * 1.0


def _like(p: Subspace, s: Subspace) -> Subspace:
    """s, or for a batch p, the batch holding s once per element of p."""
    return Subspace.batch(s.ambient_dim, [s] * len(p.elements())) if p.is_batch else s


class _Memo:
    """The images and joins of one run of axiom checks (one _checked
    call, or one check alone), each computed once.

    Keyed by the identity of the operands, which the memo holds, so that
    no id is reused while it lives: distinct objects of equal value are
    each computed.
    """

    def __init__(self, tol: Tolerance):
        self.tol = tol
        self._done = {}

    def _once(self, op: str, compute, *operands):
        key = (op, *map(id, operands))
        if key not in self._done:
            self._done[key] = compute(), operands
        return self._done[key][0]

    def image(self, h: SubspaceMorphism, p: Subspace) -> Subspace:
        return self._once("image", lambda: h(p), h, p)

    def join(self, p: Subspace, q: Subspace) -> Subspace:
        return self._once("join", lambda: sub.join(p, q, self.tol), p, q)


# Counterexample kind -> its check.  A check takes the _Memo it maps and
# joins through, the morphism under test (the pair h1, h2 for the cross
# axioms II and III), then its subspaces (single ones or batches), and
# returns (holds, residual), per element for batches.
_AXIOM_CHECKS = {
    "unitarity": lambda m, h: (
        sub.equal(m.image(h, full_subspace(h.source_dim)), full_subspace(h.target_dim), m.tol),
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
        sub.meet(sub.ortho(m.image(h, p)), _like(p, m.image(h, full_subspace(h.source_dim))),
                 m.tol),
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


def _checked(morphisms: tuple, samples, tol: Tolerance) -> list:
    """Each (kind, subspace batches) of ``samples`` checked once on its
    batches: (kind, verdicts, residuals, batches), one verdict and
    residual per trial.  The checks share one _Memo, so a batch that an
    earlier check mapped or a pair it joined is not computed again."""
    memo, checks = _Memo(tol), []
    for kind, batches in samples:
        holds, residual = _AXIOM_CHECKS[kind](memo, *morphisms, *batches)
        trials = len(batches[0].elements())
        checks.append((kind, np.broadcast_to(holds, trials), np.broadcast_to(residual, trials),
                       batches))
    return checks


def _first_failure(checks: list, side, n: int):
    """The checks of the first n trials, run trial by trial and in check
    order up to the first failure: (the worst residual up to it, its
    counterexample or None, the number of trials run)."""
    holds = np.stack([c[1][:n] for c in checks], axis=-1).ravel()
    residuals = np.stack([c[2][:n] for c in checks], axis=-1).ravel()
    passed = bool(holds.all())
    end = holds.size if passed else int(np.argmin(holds)) + 1
    worst = max([0.0, *residuals[:end].tolist()])
    if passed:
        return worst, None, n
    trial, k = divmod(end - 1, len(checks))
    kind, _, _, batches = checks[k]
    failing = [b.elements()[trial] for b in batches]
    return worst, _axiom_ce(kind, side, failing), trial + 1


@dataclass(frozen=True)
class AxiomSweep:
    """Axioms I-III checked on ``trials`` seeded instances of the pair
    (h1, h2) drawn from ``seed`` and decided under ``tol`` (sweep_axioms).

    Trial t draws from subseed(seed, tag, t) alone, so ``reports(n)``
    gives exactly the reports of an n-trial sweep, for any n <= trials.
    """

    h1: SubspaceMorphism
    h2: SubspaceMorphism
    seed: int
    tol: Tolerance
    trials: int
    sides: tuple  # axiom I per side: (side, failing unitarity/zero kind or None, checks)
    cross: tuple  # the checks of axiom II, then those of axiom III

    def reports(self, n: int) -> list[AxiomReport]:
        """The reports of the first n trials: each axiom stops at its first
        failing (trial, check); axiom I samples the full and zero images
        and then the trials run, per side sampled."""
        if not 0 <= n <= self.trials:
            raise ValueError(f"a sweep of {self.trials} trials has no {n}-trial prefix")
        # A map failing unitarity or zero is not sampled; the other map
        # still is.  A side failing a trial stops the axiom.
        worst, ce, samples = 0.0, None, 0
        for side, precheck, checks in self.sides:
            samples += 1 if precheck == "unitarity" else 2
            if precheck is not None:
                ce = _axiom_ce(precheck, side, ())
                continue
            side_worst, failure, run = _first_failure(checks, side, n)
            worst, samples = max(worst, side_worst), samples + run
            if failure is not None:
                ce = failure
                break
        reports = [AxiomReport("I_c_morphism", ce is None, samples, worst, ce)]
        for axiom, checks in zip(("II_compatibility", "III_atoms"), self.cross):
            worst, ce, _ = _first_failure(checks, None, n)
            reports.append(AxiomReport(axiom, ce is None, n, worst, ce))
        return reports


def sweep_axioms(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    trials: int,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> AxiomSweep:
    """Check axioms I-III on ``trials`` seeded instances: each sampler
    draws all trials as one batch, and each check runs once on it."""
    if h1.target_dim != h2.target_dim:
        raise DimensionMismatch("morphisms must share a target space")

    # Axiom I: each h alone must be a unitary c-morphism.
    sides = []
    for side, h in ((1, h1), (2, h2)):
        precheck = next((k for k in ("unitarity", "zero")
                         if not _AXIOM_CHECKS[k](_Memo(tol), h)[0]), None)
        checks = None
        if precheck is None:
            d = h.source_dim
            p, q, r = sub.random_family((d, d, d), subseeds(seed, f"axiom1_side{side}", trials),
                                        proper=False)
            cp, cq = sub.compatible_pair(d, subseeds(seed, f"compat{side}", trials))
            checks = _checked((h,), (
                ("join", (p, q)),
                ("family_join", (p, q, r)),
                ("complement", (p,)),
                ("compat_preservation", (cp, cq)),
            ), tol)
        sides.append((side, precheck, checks))

    # Axiom II: cross-images are compatible.  Axiom III: atom images meet
    # in an atom.
    d1, d2 = h1.source_dim, h2.source_dim
    p1, p2 = sub.random_family((d1, d2), subseeds(seed, "axiom2", trials), proper=False)
    atoms = subseeds(seed, "axiom3", trials)
    r1, r2 = sub.random_ray(d1, atoms, tol), sub.random_ray(d2, atoms + 1, tol)
    cross = (
        _checked((h1, h2), (("compatibility", (p1, p2)),), tol),
        _checked((h1, h2), (("atom_meet", (r1, r2)),), tol),
    )
    return AxiomSweep(h1, h2, seed, tol, trials, tuple(sides), cross)


def verify_axioms(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[AxiomReport]:
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
    records side 1) replay on the morphism of their side, so the morphism
    of a check_m_morphism counterexample is passed as h1.
    """
    check = _AXIOM_CHECKS.get(ce["kind"])
    if check is None:
        raise ValueError(f"unknown counterexample kind {ce['kind']!r}")
    side = ce.get("side")
    morphisms = (h1, h2) if side is None else ((h1, h2)[side - 1],)
    subspaces = [sub.subspace_from_json(ce[name]) for name in "pqr" if name in ce]
    holds, _ = check(_Memo(tol), *morphisms, *subspaces)
    return not holds


def restriction_iso_u(
    h1: SubspaceMorphism, h2: SubspaceMorphism, x2, tol: Tolerance = DEFAULT_TOL
) -> SubspaceMorphism:
    """The slice map p1 -> h1(p1) meet h2(<x2>).

    For an axiom-satisfying pair this is an isomorphism from the first
    factor lattice onto the lattice of the slice h2(<x2>).
    """
    x2v = as_vector(x2)
    if float(np.linalg.norm(x2v)) < tol.eps_rank:
        raise ZeroState("slice ray label must be nonzero")
    slice_image = h2.map_ray(x2v)

    def mapped(p1: Subspace) -> Subspace:
        return sub.meet(h1(p1), slice_image, tol)

    return SubspaceMorphism(source_dim=h1.source_dim, target_dim=h1.target_dim, map=mapped)


def restriction_iso_v(
    h1: SubspaceMorphism, h2: SubspaceMorphism, x1, tol: Tolerance = DEFAULT_TOL
) -> SubspaceMorphism:
    """Mirror slice map p2 -> h1(<x1>) meet h2(p2)."""
    return restriction_iso_u(h2, h1, x1, tol)


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
    """
    vecs = [as_vector(v) for v in (x1, y1, x2, y2)]
    if any(float(np.linalg.norm(v)) < tol.eps_rank for v in vecs):
        raise PreconditionViolated("all four ray labels must be nonzero")
    x1v, y1v, x2v, y2v = vecs
    if not allow_scalar_multiple:
        if span_of([x1v, y1v], tol).dim != 2 or span_of([x2v, y2v], tol).dim != 2:
            raise PreconditionViolated(
                "ray labels must be pairwise linearly independent"
            )
    start = sub.meet(h1.map_ray(x1v), h2.map_ray(x2v), tol)
    if start.dim == 0:
        raise PreconditionViolated("the atom meet is empty; axioms fail upstream")
    f_map = intertwiner_F(h1, y1v, x1v, tol)
    k_map = intertwiner_F(h2, y2v, x2v, tol)
    meet_f = sub.meet(h1.map_ray(y1v), h2.map_ray(x2v), tol)
    meet_k = sub.meet(h1.map_ray(x1v), h2.map_ray(y2v), tol)
    worst = 0.0
    holds = True
    samples = [start.basis[:, 0], (0.7 - 1.3j) * start.basis[:, 0]]
    for u in samples:
        fu, ku = f_map(u), k_map(u)
        if not (meet_f.contains(fu, tol) and meet_k.contains(ku, tol)):
            holds = False
        fk = f_map(ku)
        kf = k_map(fu)
        res = float(np.linalg.norm(fk - kf)) / max(1.0, float(np.linalg.norm(fk)))
        worst = max(worst, res)
        if res > tol.eps_eq:
            holds = False
    report = LawReport("commutation", holds, trials=len(samples), worst_residual=worst)
    if not holds:
        report.counterexample = {
            "x1": sub.complex_to_json(x1v),
            "y1": sub.complex_to_json(y1v),
            "x2": sub.complex_to_json(x2v),
            "y2": sub.complex_to_json(y2v),
        }
    return report


def classify_linearity(
    h: SubspaceMorphism, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> str:
    """Classify h by the scalar action of F_{i x, x} on all of h(<x>).

    The map multiplies every domain vector either by i (linear) or by
    -i (antilinear); any other action is reported as "gemischt", which
    a valid composite-system morphism never exhibits.  ``seed`` draws x.
    """
    x = random_vector(h.source_dim, subseed(seed, "classify", 0))
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
    "m_morphism" check; the rays of the first failing trial are the
    counterexample, recorded as side 1 (see recheck_axiom_counterexample).
    """
    seeds = subseeds(seed, "mmorph", trials)
    xs = [random_vector(h.source_dim, s) for s in seeds]
    ys = [2.0 * x if t % 5 == 4 else random_vector(h.source_dim, s + 1)
          for t, (x, s) in enumerate(zip(xs, seeds))]
    rays = [sub.rays(h.source_dim, vs, tol) for vs in (xs, ys, [x - y for x, y in zip(xs, ys)])]
    checks = _checked((h,), (("m_morphism", rays),), tol)
    worst, failure, run = _first_failure(checks, 1, trials)
    return LawReport("m_morphism", failure is None, trials=run, worst_residual=worst,
                     counterexample=failure)


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
    z1 = np.zeros(h1.source_dim, dtype=complex)
    z1[0] = 1.0
    z2 = np.zeros(h2.source_dim, dtype=complex)
    z2[0] = 1.0
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


def _anchored(h1: SubspaceMorphism, h2: SubspaceMorphism, tol: Tolerance):
    """The anchor triple (z1, z2, z) of default_anchors and alpha = |z1|
    |z2| / |z|."""
    z1, z2, z = default_anchors(h1, h2, tol)
    return z1, z2, z, float(np.linalg.norm(z1) * np.linalg.norm(z2) / np.linalg.norm(z))


def build_U_V(h1: SubspaceMorphism, h2: SubspaceMorphism, tol: Tolerance = DEFAULT_TOL):
    """Norm-preserving maps generated by the intertwiners.

    U(x2, x1) carries x1 into the composite space along the slice of
    <x2>; V mirrors the roles.  Both are unitary or antiunitary
    according to the linearity class of the corresponding morphism,
    and U(x2, x1) spans h1(<x1>) meet h2(<x2>).
    """
    z1, z2, z, alpha = _anchored(h1, h2, tol)

    def along(slice_h, slice_z, h, h_z):  # (s, x) -> alpha / |s| F_{x,h_z} F_{s,slice_z} z
        def apply(s, x) -> np.ndarray:
            sv, xv = as_vector(s), as_vector(x)
            if float(np.linalg.norm(sv)) < tol.eps_rank:
                raise ZeroState("the slice ray label must be nonzero")
            step = intertwiner_F(slice_h, sv, slice_z, tol)(z)
            return (alpha / float(np.linalg.norm(sv))) * intertwiner_F(h, xv, h_z, tol)(step)

        return apply

    return along(h2, z2, h1, z1), along(h1, z1, h2, z2)


def _check_onb(basis, d, tol: Tolerance, what: str) -> np.ndarray:
    """The d x d unitary whose columns are the basis (see as_columns)."""
    if basis is None:
        return np.eye(d, dtype=complex)
    b = as_columns(basis)
    if b.shape != (d, d):
        raise NotOrthonormal(f"{what} must consist of {d} vectors of dim {d}")
    if np.linalg.norm(b.conj().T @ b - np.eye(d)) > tol.eps_eq * d:
        raise NotOrthonormal(f"{what} is not orthonormal")
    return b


def composite_onb(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    basis1=None,
    basis2=None,
    tol: Tolerance = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Orthonormal basis {U(f_j, e_i)} of the composite space.

    Ordered by the flattening (i, j) -> i * d2 + j of the factor
    indices; the defaults are the coordinate bases.  Each factor
    intertwiner is derived once, d1 + d2 derivations in all:
    U(f_j, e_i) = alpha F_{e_i,z1} K_{f_j,z2} z.
    """
    e = _check_onb(basis1, h1.source_dim, tol, "basis1")
    f = _check_onb(basis2, h2.source_dim, tol, "basis2")
    return list(_onb_matrix(h1, h2, e, f, tol).T)


def _onb_matrix(h1, h2, e: np.ndarray, f: np.ndarray, tol: Tolerance) -> np.ndarray:
    """composite_onb as the columns of one matrix, for validated bases."""
    z1, z2, z, alpha = _anchored(h1, h2, tol)
    ks, _ = _ray_matrices(h2, [(y, z2) for y in f.T], tol)
    fs, _ = _ray_matrices(h1, [(x, z1) for x in e.T], tol)
    k_steps = np.column_stack([k @ z for k in ks])
    return alpha * np.hstack([fx @ k_steps for fx in fs])


@dataclass
class BasisMap:
    """The vector-level map from the tensor space onto the composite space.

    ``matrix`` has the images of the (dual) product basis as columns;
    antiunitary maps conjugate the input coordinates first.  The lift
    to subspaces and its inverse realize the lattice isomorphism.
    """

    target: str
    antiunitary: bool
    matrix: np.ndarray
    coefficient_transform: np.ndarray
    index: TensorIndex
    linearity: tuple[str, str]

    def apply(self, v) -> np.ndarray:
        return self._image(as_vector(v))

    def apply_inverse(self, w) -> np.ndarray:
        return self._preimage(as_vector(w))

    def lift(self, g: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
        """The span of the images of g's basis vectors; of a batch, of
        each element's."""
        return self._spans(self._image, g, tol)

    def lift_inverse(self, g: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
        """The span of the preimages of g's basis vectors (see lift)."""
        return self._spans(self._preimage, g, tol)

    def _spans(self, f, g: Subspace, tol: Tolerance) -> Subspace:
        return Subspace(self.index.dim, each(lambda b: orthonormal_bases(f(b), tol), g.basis))

    def _image(self, x: np.ndarray) -> np.ndarray:
        """apply on a vector, the columns of a matrix or a stack of them."""
        coeffs = self.coefficient_transform @ x
        return self.matrix @ (np.conj(coeffs) if self.antiunitary else coeffs)

    def _preimage(self, y: np.ndarray) -> np.ndarray:
        """apply_inverse as _image extends apply."""
        coeffs = self.matrix.conj().T @ y
        return np.linalg.solve(self.coefficient_transform,
                               np.conj(coeffs) if self.antiunitary else coeffs)


def build_basis_map(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    basis1=None,
    basis2=None,
    tol: Tolerance = DEFAULT_TOL,
) -> BasisMap:
    """Assemble the case-matched map from the tensor space to the target.

    Matching linearity classes keep the plain product space C^{d1}
    tensor C^{d2} as the domain (with coefficients conjugated in the
    antilinear-antilinear case); mixed classes move the first factor to
    its dual.  The coefficient of the (i, j) product basis vector is
    carried onto U(f_j, e_i).  Both linearity classes are derived here;
    a gemischt morphism is refused (AxiomViolation) by name.
    """
    lin1, lin2 = classify_linearity(h1, tol=tol), classify_linearity(h2, tol=tol)
    if GEMISCHT in (lin1, lin2):
        raise AxiomViolation("gemischt morphisms admit no basis map")
    d1, d2 = h1.source_dim, h2.source_dim
    e = _check_onb(basis1, d1, tol, "basis1")
    f = _check_onb(basis2, d2, tol, "basis2")
    matrix = _onb_matrix(h1, h2, e, f, tol)
    dual = lin1 != lin2
    # Coordinates of the input in the chosen product basis: for a plain
    # tensor factor the expansion uses the inner product with e_i; for
    # the dual factor the pairing is bilinear, hence the transpose.
    first = e.T if dual else e.conj().T
    second = f.conj().T
    transform = np.kron(first, second)
    index = TensorIndex(d1, d2, dual_first_factor=dual)
    return BasisMap(
        target="H1*xH2" if dual else "H1xH2",
        antiunitary=lin2 == ANTILINEAR,
        matrix=matrix,
        coefficient_transform=transform,
        index=index,
        linearity=(lin1, lin2),
    )


@dataclass
class TensorIsoReport:
    """Verification record for the lattice isomorphism onto tensor space."""

    target: str
    linearity: tuple[str, str]
    trials: int
    passed: bool
    worst_residual: float
    axiom_reports: list[AxiomReport] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "linearity": list(self.linearity),
            "trials": self.trials,
            "passed": self.passed,
            "worst_residual": self.worst_residual,
            "axioms": [r.to_json() for r in self.axiom_reports],
            "failures": self.failures,
        }


# The isomorphism checks of one trial, in the order its failures are named.
_ISO_CHECKS = ("join", "meet", "ortho", "atom", "roundtrip", "leq")


def verify_tensor_isomorphism(sweep: AxiomSweep, trials: int, axiom_trials: int) -> TensorIsoReport:
    """Constructively verify that the composite lattice of the pair
    (h1, h2) that ``sweep`` checked is the tensor one, under the seed and
    tol of the sweep.

    Refuses (AxiomViolation, naming the axiom) unless axioms I-III
    verify on the first ``axiom_trials`` trials of ``sweep`` (ValueError
    past its length).  The basis map is built before that: it derives
    both linearity classes and so refuses a gemischt pair by name first.
    Then the basis map is lifted to subspaces and join, meet,
    complement, atom and round-trip preservation are checked on
    ``trials`` seeded instances, all trials as one batch; the report
    names which tensor space (plain or dual-first) applied.
    """
    seed, tol = sweep.seed, sweep.tol
    bm = build_basis_map(sweep.h1, sweep.h2, tol=tol)
    axiom_reports = sweep.reports(axiom_trials)
    for report in axiom_reports:
        if not report.passed:
            raise AxiomViolation(f"axiom {report.axiom} fails; no isomorphism is built")
    dim = bm.index.dim
    seeds = subseeds(seed, "tensoriso", trials)
    rngs = [np.random.default_rng(s) for s in seeds]
    dims = [(rng.integers(0, dim + 1), rng.integers(1, dim)) for rng in rngs]
    # g2 draws from seeds + 1, mostly other trials' seeds: one call draws
    # each of their frames once
    both = sub.random_subspace(dim, [k for k, _ in dims] + [k for _, k in dims],
                               np.concatenate([seeds, seeds + 1]))
    g1, g2 = Subspace(dim, both.basis[:trials]), Subspace(dim, both.basis[trials:])
    l1, l2 = bm.lift(g1, tol), bm.lift(g2, tol)
    joined, lifted_joined = sub.join(g1, g2, tol), sub.join(l1, l2, tol)
    checks = (
        _same(bm.lift(joined, tol), lifted_joined, tol),
        _same(bm.lift(sub.meet(g1, g2, tol), tol), sub.meet(l1, l2, tol), tol),
        _same(bm.lift(sub.ortho(g1), tol), sub.ortho(l1), tol),
        _atom(bm.lift(sub.random_ray(dim, seeds + 2, tol), tol)),
        _same(bm.lift_inverse(l1, tol), g1, tol),
        # order is preserved where g1 <= g1 join g2 holds
        (np.logical_not(sub.leq(g1, joined, tol)) | sub.leq(l1, lifted_joined, tol), 0.0),
    )
    holds = np.stack([np.broadcast_to(ok, trials) for ok, _ in checks], axis=-1)
    residuals = np.stack([np.broadcast_to(res, trials) for _, res in checks], axis=-1)
    failures = [f"{_ISO_CHECKS[k]}@{t}" for t, k in zip(*np.nonzero(np.logical_not(holds)))]

    return TensorIsoReport(
        target=bm.target,
        linearity=bm.linearity,
        trials=trials,
        passed=not failures,
        worst_residual=max([0.0, *residuals.ravel().tolist()]),
        axiom_reports=axiom_reports,
        failures=failures,
    )
