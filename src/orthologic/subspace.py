"""Closed subspaces of C^d and their lattice operations.

A subspace is stored as a d x k matrix with orthonormal columns; the
zero subspace is the d x 0 matrix.  Basis matrices are not unique, so
equality and ordering are always decided through the orthogonal
projector P = B B^dagger, which is canonical.

Meet is computed through the complement identity
meet(p, q) = ortho(join(ortho(p), ortho(q))), which keeps a single
decomposition routine (Gram-Schmidt) at the numerical core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_vector, orthonormalize, random_unitary
from .errors import DimensionMismatch, InvalidDimension

__all__ = [
    "Subspace",
    "Ray",
    "span_of",
    "zero_subspace",
    "full_subspace",
    "meet",
    "join",
    "ortho",
    "leq",
    "equal",
    "projector_distance",
    "commutator_norm",
    "is_atom",
    "random_subspace",
    "random_family",
    "compatible_pair",
    "subspace_to_json",
    "subspace_from_json",
]


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^d, represented by an orthonormal basis."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}"
            )
        gram = b.conj().T @ b
        if b.shape[1] and np.linalg.norm(gram - np.eye(b.shape[1])) > DEFAULT_TOL.eps_eq * max(
            1, self.ambient_dim
        ):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto this subspace (Hermitian, idempotent)."""
        return self.basis @ self.basis.conj().T

    def contains(self, vector, tol: Tolerance = DEFAULT_TOL) -> bool:
        v = as_vector(vector)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatch("vector has wrong ambient dimension")
        residual = v - self.projector() @ v
        return float(np.linalg.norm(residual)) <= tol.eps_eq * max(
            1.0, float(np.linalg.norm(v))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass(frozen=True)
class Ray:
    """A one-dimensional subspace (an atom of the lattice)."""

    subspace: Subspace

    def __post_init__(self) -> None:
        if self.subspace.dim != 1:
            raise InvalidDimension("a ray must be one-dimensional")

    @classmethod
    def from_vector(cls, vector) -> "Ray":
        return cls(span_of([vector]))

    @property
    def vector(self) -> np.ndarray:
        return self.subspace.basis[:, 0]


def span_of(vectors, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Subspace spanned by the given vectors (closure is automatic here)."""
    cols = [as_vector(v) for v in vectors]
    if not cols:
        raise DimensionMismatch("cannot infer ambient dimension from no vectors")
    d = cols[0].shape[0]
    for c in cols:
        if c.shape[0] != d:
            raise DimensionMismatch("vectors must share a dimension")
    return Subspace(d, orthonormalize(cols, tol))


def zero_subspace(d: int) -> Subspace:
    return Subspace(d, np.zeros((d, 0), dtype=complex))


def full_subspace(d: int) -> Subspace:
    return Subspace(d, np.eye(d, dtype=complex))


def _check_same_ambient(p: Subspace, q: Subspace) -> None:
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims differ: {p.ambient_dim} vs {q.ambient_dim}"
        )


def join(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Smallest subspace containing both: span of the concatenated bases."""
    _check_same_ambient(p, q)
    stacked = np.hstack([p.basis, q.basis])
    return Subspace(p.ambient_dim, orthonormalize(stacked, tol))


def ortho(p: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement; involutive and dimension-complementary."""
    d = p.ambient_dim
    residual = np.eye(d, dtype=complex) - p.projector()
    # Columns of I - P have natural scale 1; anchoring the rank decision
    # there keeps ortho(full space) from promoting rounding noise.
    return Subspace(d, orthonormalize(residual, tol, ref_scale=1.0))


def meet(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Largest subspace contained in both, via the complement identity."""
    _check_same_ambient(p, q)
    return ortho(join(ortho(p, tol), ortho(q, tol), tol), tol)


def leq(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Inclusion p <= q, decided by the projection residual of p's basis."""
    _check_same_ambient(p, q)
    if p.dim == 0:
        return True
    residual = q.projector() @ p.basis - p.basis
    return float(np.linalg.norm(residual)) < tol.eps_eq * np.sqrt(p.ambient_dim)


def equal(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Subspace equality through the canonical projectors."""
    _check_same_ambient(p, q)
    return float(np.linalg.norm(p.projector() - q.projector())) < tol.eps_eq * p.ambient_dim


def projector_distance(p: Subspace, q: Subspace) -> float:
    """Frobenius distance between the projectors of p and q."""
    _check_same_ambient(p, q)
    return float(np.linalg.norm(p.projector() - q.projector()))


def commutator_norm(p: Subspace, q: Subspace) -> float:
    """Frobenius norm of PQ - QP; zero exactly when p and q are compatible."""
    _check_same_ambient(p, q)
    pp, pq = p.projector(), q.projector()
    return float(np.linalg.norm(pp @ pq - pq @ pp))


def is_atom(p: Subspace) -> bool:
    """Atoms of the subspace lattice are exactly the one-dimensional ones."""
    return p.dim == 1


def random_subspace(d: int, k: int, seed: int) -> Subspace:
    """Deterministic k-dimensional subspace of C^d for a given seed.

    Takes the first k columns of ``random_unitary(d, seed)``.
    """
    if not (0 <= k <= d):
        raise InvalidDimension(f"need 0 <= k <= d, got k={k}, d={d}")
    if k == 0:
        return zero_subspace(d)
    return Subspace(d, random_unitary(d, seed)[:, :k])


def random_family(dims, seed: int, proper: bool) -> list[Subspace]:
    """``random_subspace(d, k, seed + j)`` for the j-th d in ``dims``, with k
    drawn by ``default_rng(seed)`` from 1..d-1 if ``proper``, else 1..d."""
    rng = np.random.default_rng(seed)
    family = []
    for j, d in enumerate(dims):
        k = int(rng.integers(1, d if proper else d + 1))
        family.append(random_subspace(d, k, seed + j))
    return family


def compatible_pair(d: int, seed: int) -> tuple[Subspace, Subspace]:
    """Two subspaces compatible by construction: coordinate subspaces of
    one seeded random unitary frame, of dimensions drawn from 1..d."""
    rng = np.random.default_rng(seed)
    frame = random_unitary(d, seed)
    k1 = int(rng.integers(1, d + 1))
    k2 = int(rng.integers(1, d + 1))
    cols1 = sorted(rng.permutation(d)[:k1].tolist())
    cols2 = sorted(rng.permutation(d)[:k2].tolist())
    return Subspace(d, frame[:, cols1]), Subspace(d, frame[:, cols2])


def subspace_to_json(p: Subspace) -> dict:
    """JSON-friendly form: column-major list of [re, im] entry pairs."""
    flat = []
    for col in range(p.dim):
        for row in range(p.ambient_dim):
            z = p.basis[row, col]
            flat.append([float(z.real), float(z.imag)])
    return {"ambient_dim": p.ambient_dim, "basis": flat}


def subspace_from_json(data: dict) -> Subspace:
    d = int(data["ambient_dim"])
    flat = data["basis"]
    if len(flat) % max(d, 1) != 0:
        raise DimensionMismatch("basis entry count is not a multiple of ambient_dim")
    k = len(flat) // d if d else 0
    b = np.zeros((d, k), dtype=complex)
    for col in range(k):
        for row in range(d):
            re, im = flat[col * d + row]
            b[row, col] = re + 1j * im
    return Subspace(d, b)
