"""Composite quantum systems built from two subspace lattices.

A composition of two propositional systems is described by a pair of
structure-preserving maps h1, h2 from the factor lattices into the
composite lattice, subject to three axioms:

  I   (c-morphism) each h preserves arbitrary joins and compatibility
      and maps the full space to the full space,
  II  (no disturbance) images h1(p1) and h2(p2) are always compatible,
  III (no information loss) images of atoms meet in an atom.

Each axiom sub-check is defined once in _AXIOM_CHECKS, keyed by the
counterexample kind it records: verify_axioms runs it on seeded
samples and recheck_axiom_counterexample replays it from the JSON.

The theorems verified here are existence statements over abstract
pairs (h1, h2).  To make every derived object computable, this module
fixes a concrete generative family: tensor-cylinder embeddings
p -> p tensor C^{d2} (and mirror), optionally twisted by a unitary on
the composite space and optionally entrywise conjugated (the
antilinear variant).  The family provably satisfies axioms I-III, and
user-supplied morphisms can be plugged in through the same interface.

From an axiom-satisfying pair the module constructs the ray
intertwiners F/K, the norm-preserving maps U/V they generate, the
product orthonormal basis of the composite space, and finally the
basis map onto the tensor space (or its dual-twisted variant), whose
lift to subspaces is verified to be a lattice isomorphism.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import subspace as sub
from .core import DEFAULT_TOL, Tolerance, as_vector, random_vector, subseed
# Not called here; kept as the module binding that bench/tracer.py patches.
from .core import random_unitary  # noqa: F401
from .errors import (
    AnchorNotInMeet,
    AxiomViolation,
    DimensionMismatch,
    InvalidDimension,
    NotInDomain,
    NotOrthonormal,
    PreconditionViolated,
    UnknownLinearity,
    ZeroState,
)
from .laws import LawReport, compatible
from .subspace import Subspace, full_subspace, span_of, zero_subspace
from .tensor import TensorIndex

__all__ = [
    "SubspaceMorphism",
    "AxiomReport",
    "TensorIsoReport",
    "canonical_h",
    "verify_axioms",
    "recheck_axiom_counterexample",
    "restriction_iso_u",
    "restriction_iso_v",
    "intertwiner_F",
    "extended_intertwiner",
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
UNKNOWN = "unknown"


@dataclass
class SubspaceMorphism:
    """A map between subspace lattices, with cached metadata.

    ``map`` acts on Subspace values; ``intertwiner`` (when available)
    produces, for nonzero x and any y in the source space, the linear
    map from the image of <x> to the image of <y>.  The canonical
    family fills both in; hand-built morphisms may leave intertwiner
    unset, in which case linearity cannot be classified.
    """

    source_dim: int
    target_dim: int
    map: Callable[[Subspace], Subspace]
    linearity_class: str = UNKNOWN
    anchors: Optional[tuple] = None
    intertwiner: Optional[Callable[[np.ndarray, np.ndarray], Callable]] = None
    label: str = ""

    def __call__(self, p: Subspace) -> Subspace:
        if p.ambient_dim != self.source_dim:
            raise DimensionMismatch(
                f"morphism source dim {self.source_dim}, got {p.ambient_dim}"
            )
        return self.map(p)

    def map_ray(self, x) -> Subspace:
        return self(span_of([as_vector(x)]))


def _maybe_conj(v: np.ndarray, conjugate: bool) -> np.ndarray:
    return np.conj(v) if conjugate else v


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
        twist = np.asarray(twist, dtype=complex)
        if twist.shape != (dim, dim):
            raise InvalidDimension(f"twist must be {dim} x {dim}")
        if np.linalg.norm(twist.conj().T @ twist - np.eye(dim)) > tol.eps_eq * dim:
            raise NotOrthonormal("twist matrix is not unitary")
    source_dim = d1 if side == 1 else d2
    other_dim = d2 if side == 1 else d1

    def embed(p: Subspace) -> Subspace:
        if p.dim == 0:
            return zero_subspace(dim)
        block = _maybe_conj(p.basis, conjugate)
        if side == 1:
            cols = np.kron(block, np.eye(other_dim, dtype=complex))
        else:
            cols = np.kron(np.eye(other_dim, dtype=complex), block)
        if twist is not None:
            cols = twist @ cols
        return Subspace(dim, cols)

    def make_intertwiner(y, x):
        return _canonical_ray_map(side, d1, d2, twist, conjugate, y, x, tol)

    return SubspaceMorphism(
        source_dim=source_dim,
        target_dim=dim,
        map=embed,
        linearity_class=ANTILINEAR if conjugate else LINEAR,
        intertwiner=make_intertwiner,
        label=f"canonical_h{side}"
        + ("_conj" if conjugate else "")
        + ("_twist" if twist is not None else ""),
    )


def _canonical_ray_map(side, d1, d2, twist, conjugate, y, x, tol: Tolerance):
    """Factor-decomposition realization of the ray intertwiner.

    On the image of <x>, every vector is the image of x tensor v (side
    1; mirrored for side 2) for a unique v; the map replaces the x
    factor by y.  Vectors failing the decomposition residual are
    rejected as outside the domain.
    """
    xv, yv = as_vector(x), as_vector(y)
    if float(np.linalg.norm(xv)) < tol.eps_rank:
        raise ZeroState("intertwiner source ray label must be nonzero")
    xc = _maybe_conj(xv, conjugate)
    yc = _maybe_conj(yv, conjugate)
    xnorm2 = float(np.linalg.norm(xv)) ** 2

    def apply(u) -> np.ndarray:
        uv = as_vector(u)
        if uv.shape[0] != d1 * d2:
            raise DimensionMismatch("vector does not live in the composite space")
        t = twist.conj().T @ uv if twist is not None else uv
        m = t.reshape(d1, d2)
        if side == 1:
            v = (np.conj(xc) @ m) / xnorm2
            reconstructed = np.outer(xc, v)
            out = np.outer(yc, v)
        else:
            w = (m @ np.conj(xc)) / xnorm2
            reconstructed = np.outer(w, xc)
            out = np.outer(w, yc)
        scale = max(float(np.linalg.norm(uv)), 1.0)
        if float(np.linalg.norm(m - reconstructed)) > tol.eps_eq * scale:
            raise NotInDomain("vector is not in the image of the source ray")
        flat = out.reshape(-1)
        return twist @ flat if twist is not None else flat

    return apply


def intertwiner_F(h: SubspaceMorphism, y, x):
    """The map from the image of <x> to the image of <y> under h."""
    if h.intertwiner is None:
        raise UnknownLinearity(
            "this morphism carries no intertwiner realization"
        )
    return h.intertwiner(y, x)


def extended_intertwiner(h: SubspaceMorphism, y, x, tol: Tolerance = DEFAULT_TOL):
    """Extension acting as the identity off the image of <x>."""
    base = intertwiner_F(h, y, x)

    def apply(u) -> np.ndarray:
        try:
            return base(u)
        except NotInDomain:
            return as_vector(u).copy()

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
    return m.dim == 1, float(abs(m.dim - 1))


# Counterexample kind -> its check.  A check takes the morphism under
# test (the pair h1, h2 for the cross axioms II and III), then its
# subspaces and tol, and returns (holds, residual).
_AXIOM_CHECKS = {
    "unitarity": lambda h, tol: (
        sub.equal(h(full_subspace(h.source_dim)), full_subspace(h.target_dim), tol), 0.0
    ),
    "zero": lambda h, tol: (h(zero_subspace(h.source_dim)).dim == 0, 0.0),
    "join": lambda h, p, q, tol: _same(h(sub.join(p, q, tol)), sub.join(h(p), h(q), tol), tol),
    "family_join": lambda h, p, q, r, tol: _same(
        h(sub.join(sub.join(p, q, tol), r, tol)),
        sub.join(sub.join(h(p), h(q), tol), h(r), tol),
        tol,
    ),
    "complement": lambda h, p, tol: _same(
        h(sub.ortho(p, tol)),
        sub.meet(sub.ortho(h(p), tol), h(full_subspace(h.source_dim)), tol),
        tol,
    ),
    "compat_preservation": lambda h, p, q, tol: (compatible(h(p), h(q), tol), 0.0),
    "compatibility": lambda h1, h2, p, q, tol: _commuting(h1(p), h2(q), tol),
    "atom_meet": lambda h1, h2, p, q, tol: _atom(sub.meet(h1(p), h2(q), tol)),
}


def _axiom_ce(kind: str, side, subspaces) -> dict:
    ce = {"kind": kind}
    if side is not None:
        ce["side"] = side
    for name, s in zip("pqr", subspaces):
        ce[name] = sub.subspace_to_json(s)
    return ce


def _sweep(morphisms: tuple, side, trials: int, sample, tol: Tolerance):
    """Run the checks ``sample(trial)`` lists as (kind, subspaces) pairs,
    trial by trial, up to the first failure.  Returns the worst residual,
    the counterexample of that failure (None if all hold) and the number
    of trials run."""
    worst = 0.0
    for trial in range(trials):
        for kind, subspaces in sample(trial):
            holds, residual = _AXIOM_CHECKS[kind](*morphisms, *subspaces, tol)
            worst = max(worst, residual)
            if not holds:
                return worst, _axiom_ce(kind, side, subspaces), trial + 1
    return worst, None, trials


def verify_axioms(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    trials: int = 100,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[AxiomReport]:
    """Check axioms I-III on seeded random instances.

    Failures never raise; they land in the reports together with a
    re-checkable counterexample (see recheck_axiom_counterexample).
    """
    if h1.target_dim != h2.target_dim:
        raise DimensionMismatch("morphisms must share a target space")

    # Axiom I: each h alone must be a unitary c-morphism.  A map failing
    # unitarity or zero is not sampled; the other map still is.
    worst, ce, samples = 0.0, None, 0
    for side, h in ((1, h1), (2, h2)):
        d = h.source_dim
        samples += 1
        if not _AXIOM_CHECKS["unitarity"](h, tol)[0]:
            ce = _axiom_ce("unitarity", side, ())
            continue
        samples += 1
        if not _AXIOM_CHECKS["zero"](h, tol)[0]:
            ce = _axiom_ce("zero", side, ())
            continue

        def c_morphism_checks(trial):
            s = subseed(seed, f"axiom1_side{side}", trial)
            p, q, r = sub.random_family((d, d, d), s, proper=False)
            cp, cq = sub.compatible_pair(d, subseed(seed, f"compat{side}", trial))
            return (
                ("join", (p, q)),
                ("family_join", (p, q, r)),
                ("complement", (p,)),
                ("compat_preservation", (cp, cq)),
            )

        side_worst, failure, run = _sweep((h,), side, trials, c_morphism_checks, tol)
        worst, samples = max(worst, side_worst), samples + run
        if failure is not None:
            ce = failure
            break
    reports = [AxiomReport("I_c_morphism", ce is None, samples, worst, ce)]

    # Axiom II: cross-images are compatible.
    def cross_checks(trial):
        s = subseed(seed, "axiom2", trial)
        p1, p2 = sub.random_family((h1.source_dim, h2.source_dim), s, proper=False)
        return (("compatibility", (p1, p2)),)

    worst, ce, _ = _sweep((h1, h2), None, trials, cross_checks, tol)
    reports.append(AxiomReport("II_compatibility", ce is None, trials, worst, ce))

    # Axiom III: atom images meet in an atom.
    def atom_checks(trial):
        s = subseed(seed, "axiom3", trial)
        r1 = span_of([random_vector(h1.source_dim, s)], tol)
        r2 = span_of([random_vector(h2.source_dim, s + 1)], tol)
        return (("atom_meet", (r1, r2)),)

    worst, ce, _ = _sweep((h1, h2), None, trials, atom_checks, tol)
    reports.append(AxiomReport("III_atoms", ce is None, trials, worst, ce))
    return reports


def recheck_axiom_counterexample(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    ce: dict,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Re-run the single check recorded in a counterexample.

    Returns True when the recorded failure reproduces.
    """
    check = _AXIOM_CHECKS.get(ce["kind"])
    if check is None:
        raise ValueError(f"unknown counterexample kind {ce['kind']!r}")
    side = ce.get("side")
    morphisms = (h1, h2) if side is None else ((h1, h2)[side - 1],)
    subspaces = [sub.subspace_from_json(ce[name]) for name in "pqr" if name in ce]
    holds, _ = check(*morphisms, *subspaces, tol)
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

    return SubspaceMorphism(
        source_dim=h1.source_dim,
        target_dim=h1.target_dim,
        map=mapped,
        label="restriction_u",
    )


def restriction_iso_v(
    h1: SubspaceMorphism, h2: SubspaceMorphism, x1, tol: Tolerance = DEFAULT_TOL
) -> SubspaceMorphism:
    """Mirror slice map p2 -> h1(<x1>) meet h2(p2)."""
    return replace(restriction_iso_u(h2, h1, x1, tol), label="restriction_v")


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
    f_map = intertwiner_F(h1, y1v, x1v)
    k_map = intertwiner_F(h2, y2v, x2v)
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
            "x1": list(map(_c2pair, x1v)),
            "y1": list(map(_c2pair, y1v)),
            "x2": list(map(_c2pair, x2v)),
            "y2": list(map(_c2pair, y2v)),
        }
    return report


def _c2pair(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def classify_linearity(
    h: SubspaceMorphism, probes: int = 8, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> str:
    """Classify h by the scalar action of F_{lambda x, x}.

    The map multiplies domain vectors either by lambda (linear) or by
    its conjugate (antilinear); any other behavior is reported as
    "gemischt", which a valid composite-system morphism never exhibits.
    """
    if h.intertwiner is None:
        raise UnknownLinearity("morphism carries no intertwiner to probe")
    saw_linear, saw_antilinear = False, False
    for probe in range(probes):
        s = subseed(seed, "classify", probe)
        x = random_vector(h.source_dim, s)
        rng = np.random.default_rng(s)
        lam = complex(rng.standard_normal(), 0.5 + abs(rng.standard_normal()))
        for lam_probe in (1j, lam):
            f_scale = h.intertwiner(lam_probe * x, x)
            domain = h.map_ray(x)
            coeff = rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)
            u = domain.basis @ coeff
            out = f_scale(u)
            scale = max(1.0, float(np.linalg.norm(out)))
            lin_res = float(np.linalg.norm(out - lam_probe * u)) / scale
            anti_res = float(np.linalg.norm(out - np.conj(lam_probe) * u)) / scale
            if lin_res < tol.eps_eq:
                saw_linear = True
            elif anti_res < tol.eps_eq:
                saw_antilinear = True
            else:
                return GEMISCHT
    if saw_linear and saw_antilinear:
        return GEMISCHT
    return LINEAR if saw_linear else ANTILINEAR


def check_m_morphism(
    h: SubspaceMorphism, trials: int = 50, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> LawReport:
    """Sufficient modularity criterion on sampled ray differences.

    Checks that the image of <x - y> is contained in the join of the
    images of <x> and <y>; a c-morphism passing this sends modular
    pairs to modular pairs.
    """
    worst = 0.0
    for trial in range(trials):
        s = subseed(seed, "mmorph", trial)
        x = random_vector(h.source_dim, s)
        if trial % 5 == 4:
            y = 2.0 * x
        else:
            y = random_vector(h.source_dim, s + 1)
        diff = x - y
        if float(np.linalg.norm(diff)) < tol.eps_rank:
            continue
        image_diff = h.map_ray(diff)
        target = sub.join(h.map_ray(x), h.map_ray(y), tol)
        residual = float(
            np.linalg.norm(target.projector() @ image_diff.basis - image_diff.basis)
        )
        worst = max(worst, residual)
        if not sub.leq(image_diff, target, tol):
            report = LawReport(
                "m_morphism", False, trials=trial + 1, worst_residual=worst
            )
            report.counterexample = {
                "x": list(map(_c2pair, x)),
                "y": list(map(_c2pair, y)),
            }
            return report
    return LawReport("m_morphism", True, trials=trials, worst_residual=worst)


def default_anchors(
    h1: SubspaceMorphism, h2: SubspaceMorphism, tol: Tolerance = DEFAULT_TOL
) -> tuple:
    """Anchor triple (z1, z2, z) with z spanning the meet of the images.

    z1 and z2 default to the first coordinate vectors of the factors;
    z is computed from the lattice itself, so the choice also works for
    twisted morphisms where no closed form is available.
    """
    z1 = np.zeros(h1.source_dim, dtype=complex)
    z1[0] = 1.0
    z2 = np.zeros(h2.source_dim, dtype=complex)
    z2[0] = 1.0
    m = sub.meet(h1.map_ray(z1), h2.map_ray(z2), tol)
    if m.dim == 0:
        raise AnchorNotInMeet("image rays of the default anchors do not meet")
    z = m.basis[:, 0]
    # Fix the arbitrary Gram-Schmidt phase: first sizable coordinate
    # becomes real positive, so untwisted canonical pairs get exactly
    # the image of z1 tensor z2.
    k = int(np.argmax(np.abs(z)))
    z = z * (np.conj(z[k]) / abs(z[k]))
    return z1, z2, z


def build_U_V(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    anchors: Optional[tuple] = None,
    tol: Tolerance = DEFAULT_TOL,
):
    """Norm-preserving maps generated by the intertwiners.

    U(x2, x1) carries x1 into the composite space along the slice of
    <x2>; V mirrors the roles.  Both are unitary or antiunitary
    according to the linearity class of the corresponding morphism,
    and U(x2, x1) spans h1(<x1>) meet h2(<x2>).
    """
    if anchors is None:
        anchors = default_anchors(h1, h2, tol)
    z1, z2, z = (as_vector(a) for a in anchors)
    if min(float(np.linalg.norm(v)) for v in (z1, z2, z)) < tol.eps_rank:
        raise ZeroState("anchors must be nonzero")
    anchor_meet = sub.meet(h1.map_ray(z1), h2.map_ray(z2), tol)
    if not anchor_meet.contains(z, tol):
        raise AnchorNotInMeet("z must lie in the meet of the anchor ray images")
    alpha = float(np.linalg.norm(z1) * np.linalg.norm(z2) / np.linalg.norm(z))

    def u_map(x2, x1) -> np.ndarray:
        x2v, x1v = as_vector(x2), as_vector(x1)
        if float(np.linalg.norm(x2v)) < tol.eps_rank:
            raise ZeroState("the slice ray label must be nonzero")
        k_step = intertwiner_F(h2, x2v, z2)(z)
        return (alpha / float(np.linalg.norm(x2v))) * intertwiner_F(h1, x1v, z1)(k_step)

    def v_map(x1, x2) -> np.ndarray:
        x1v, x2v = as_vector(x1), as_vector(x2)
        if float(np.linalg.norm(x1v)) < tol.eps_rank:
            raise ZeroState("the slice ray label must be nonzero")
        f_step = intertwiner_F(h1, x1v, z1)(z)
        return (alpha / float(np.linalg.norm(x1v))) * intertwiner_F(h2, x2v, z2)(f_step)

    return u_map, v_map


def _check_onb(basis, d, tol: Tolerance, what: str) -> np.ndarray:
    if basis is None:
        return np.eye(d, dtype=complex)
    b = np.column_stack([as_vector(v) for v in basis])
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
    anchors: Optional[tuple] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Orthonormal basis {U(f_j, e_i)} of the composite space.

    Ordered by the flattening (i, j) -> i * d2 + j of the factor
    indices; the defaults are the coordinate bases.
    """
    e = _check_onb(basis1, h1.source_dim, tol, "basis1")
    f = _check_onb(basis2, h2.source_dim, tol, "basis2")
    u_map, _ = build_U_V(h1, h2, anchors, tol)
    vectors = []
    for i in range(e.shape[1]):
        for j in range(f.shape[1]):
            vectors.append(u_map(f[:, j], e[:, i]))
    return vectors


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
        coeffs = self.coefficient_transform @ as_vector(v)
        if self.antiunitary:
            coeffs = np.conj(coeffs)
        return self.matrix @ coeffs

    def apply_inverse(self, w) -> np.ndarray:
        coeffs = self.matrix.conj().T @ as_vector(w)
        if self.antiunitary:
            coeffs = np.conj(coeffs)
        return np.linalg.solve(
            self.coefficient_transform, coeffs
        )

    def lift(self, g: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
        if g.dim == 0:
            return zero_subspace(self.index.dim)
        cols = [self.apply(g.basis[:, k]) for k in range(g.dim)]
        return span_of(cols, tol)

    def lift_inverse(self, g: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
        if g.dim == 0:
            return zero_subspace(self.index.dim)
        cols = [self.apply_inverse(g.basis[:, k]) for k in range(g.dim)]
        return span_of(cols, tol)


def build_basis_map(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    basis1=None,
    basis2=None,
    anchors: Optional[tuple] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> BasisMap:
    """Assemble the case-matched map from the tensor space to the target.

    Matching linearity classes keep the plain product space C^{d1}
    tensor C^{d2} as the domain (with coefficients conjugated in the
    antilinear-antilinear case); mixed classes move the first factor to
    its dual.  The coefficient of the (i, j) product basis vector is
    carried onto U(f_j, e_i).
    """
    lin1, lin2 = h1.linearity_class, h2.linearity_class
    for lin in (lin1, lin2):
        if lin not in (LINEAR, ANTILINEAR):
            raise UnknownLinearity(
                f"linearity class {lin!r}; classify the morphisms first"
            )
    d1, d2 = h1.source_dim, h2.source_dim
    e = _check_onb(basis1, d1, tol, "basis1")
    f = _check_onb(basis2, d2, tol, "basis2")
    matrix = np.column_stack(composite_onb(h1, h2, basis1, basis2, anchors, tol))
    dual = lin1 != lin2
    conj_coeffs = (lin1 == ANTILINEAR and lin2 == ANTILINEAR) or (
        lin1 == LINEAR and lin2 == ANTILINEAR
    )
    # Coordinates of the input in the chosen product basis: for a plain
    # tensor factor the expansion uses the inner product with e_i; for
    # the dual factor the pairing is bilinear, hence the transpose.
    first = e.T if dual else e.conj().T
    second = f.conj().T
    transform = np.kron(first, second)
    index = TensorIndex(d1, d2, dual_first_factor=dual)
    return BasisMap(
        target="H1*xH2" if dual else "H1xH2",
        antiunitary=conj_coeffs,
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


def verify_tensor_isomorphism(
    h1: SubspaceMorphism,
    h2: SubspaceMorphism,
    trials: int = 50,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    axiom_trials: int = 50,
) -> TensorIsoReport:
    """Constructively verify that the composite lattice is the tensor one.

    Refuses (AxiomViolation) unless axioms I-III verify first.  Then
    the basis map is lifted to subspaces and join, meet, complement,
    atom and round-trip preservation are checked on seeded instances;
    the report names which tensor space (plain or dual-first) applied.
    """
    axiom_reports = verify_axioms(h1, h2, trials=axiom_trials, seed=seed, tol=tol)
    for report in axiom_reports:
        if not report.passed:
            raise AxiomViolation(f"axiom {report.axiom} fails; no isomorphism is built")
    for h in (h1, h2):
        if h.linearity_class == UNKNOWN:
            h.linearity_class = classify_linearity(h, seed=seed, tol=tol)
        if h.linearity_class == GEMISCHT:
            raise AxiomViolation("gemischt morphisms admit no basis map")
    bm = build_basis_map(h1, h2, tol=tol)
    dim = bm.index.dim
    worst = 0.0
    failures: list[str] = []

    def note(check: str, ok: bool, res: float):
        nonlocal worst
        worst = max(worst, res)
        if not ok:
            failures.append(check)

    for trial in range(trials):
        s = subseed(seed, "tensoriso", trial)
        rng = np.random.default_rng(s)
        g1 = sub.random_subspace(dim, int(rng.integers(0, dim + 1)), s)
        g2 = sub.random_subspace(dim, int(rng.integers(1, dim)), s + 1)
        l1, l2 = bm.lift(g1, tol), bm.lift(g2, tol)

        for op, g, image in (
            ("join", sub.join(g1, g2, tol), sub.join(l1, l2, tol)),
            ("meet", sub.meet(g1, g2, tol), sub.meet(l1, l2, tol)),
            ("ortho", sub.ortho(g1, tol), sub.ortho(l1, tol)),
        ):
            note(f"{op}@{trial}", *_same(bm.lift(g, tol), image, tol))
        atom = span_of([random_vector(dim, s + 2)], tol)
        note(f"atom@{trial}", *_atom(bm.lift(atom, tol)))
        note(f"roundtrip@{trial}", *_same(bm.lift_inverse(l1, tol), g1, tol))
        if sub.leq(g1, sub.join(g1, g2, tol), tol):
            note(f"leq@{trial}", sub.leq(l1, sub.join(l1, l2, tol), tol), 0.0)

    return TensorIsoReport(
        target=bm.target,
        linearity=bm.linearity,
        trials=trials,
        passed=not failures,
        worst_residual=worst,
        axiom_reports=axiom_reports,
        failures=failures,
    )
