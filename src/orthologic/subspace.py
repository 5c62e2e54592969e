"""Closed subspaces of C^d and their lattice operations.

A subspace is stored as a d x k matrix with orthonormal columns; the
zero subspace is the d x 0 matrix.  One basis-independent residual,
||(I - B_q B_q^dagger) B_p||_F, decides order and equality: p <= q when
it is below eps_eq sqrt(d), and p = q when also dim p = dim q.

Join and span decide rank through ``core.orthonormalize`` (one SVD); the
complement comes from a complete QR, exact in dimension; meet keeps the
directions of p at principal angles to q of sine at most eps_rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_columns, as_vector, orthonormalize, random_unitary
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
    "inclusion",
    "leq",
    "equal",
    "projector_distance",
    "commutator_norm",
    "is_atom",
    "random_subspace",
    "random_subspace_of",
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
    """Subspace spanned by the given vectors, read as ``as_columns`` reads them."""
    mat = as_columns(vectors)
    if not mat.shape[1]:
        raise DimensionMismatch("cannot infer ambient dimension from no vectors")
    return Subspace(mat.shape[0], orthonormalize(mat, tol))


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


def ortho(p: Subspace) -> Subspace:
    """Orthogonal complement: the trailing d - dim(p) columns of a complete
    QR factorization of p's basis.  No rank threshold is involved, so the
    dimensions of p and ortho(p) add up to d exactly."""
    frame, _ = np.linalg.qr(p.basis, mode="complete")
    return Subspace(p.ambient_dim, frame[:, p.dim:])


def _outside(p: Subspace, q: Subspace) -> np.ndarray:
    """(I - P_q) B_p: the part of p's basis orthogonal to q."""
    _check_same_ambient(p, q)
    return p.basis - q.basis @ (q.basis.conj().T @ p.basis)


def meet(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Largest subspace contained in both, from the principal angles
    between p and q (Björck & Golub, Math. Comp. 1973).

    The singular values of (I - P_q) B_p, one per column as dim p <= d,
    are the sines of those angles; B_p v is kept for each right singular
    vector v whose sine is at most eps_rank.  Sines, not cosines, decide
    (Knyazev & Argentati, SIAM J. Sci. Comput. 2002): 1 - cos < 1e-9 at 4.5e-5 rad.
    """
    _, sines, vh = np.linalg.svd(_outside(p, q))
    return Subspace(p.ambient_dim, p.basis @ vh[sines <= tol.eps_rank].conj().T)


def inclusion(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """(p <= q, residual): the residual is the Frobenius norm of
    (I - P_q) B_p, and inclusion holds when it is below eps_eq sqrt(d)."""
    residual = float(np.linalg.norm(_outside(p, q)))
    return bool(residual < tol.eps_eq * np.sqrt(p.ambient_dim)), residual


def leq(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Inclusion p <= q, decided by the projection residual of p's basis."""
    return inclusion(p, q, tol)[0]


def equal(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Equal dimensions and p <= q: one residual decides order and equality."""
    _check_same_ambient(p, q)
    return p.dim == q.dim and inclusion(p, q, tol)[0]


def projector_distance(p: Subspace, q: Subspace) -> float:
    """Frobenius distance between the projectors of p and q."""
    _check_same_ambient(p, q)
    return float(np.linalg.norm(p.projector() - q.projector()))


def commutator_norm(p: Subspace, q: Subspace) -> float:
    """Spectral norm of PQ - QP: max sin(t) cos(t) over principal angles t (Halmos 1969)."""
    _check_same_ambient(p, q)
    pp, pq = p.projector(), q.projector()
    return float(np.linalg.norm(pp @ pq - pq @ pp, 2))


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


def random_subspace_of(q: Subspace, k: int, seed: int) -> Subspace:
    """Deterministic k-dimensional subspace of q: ``random_subspace(q.dim,
    k, seed)`` carried into C^d by q's basis."""
    return Subspace(q.ambient_dim, q.basis @ random_subspace(q.dim, k, seed).basis)


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
