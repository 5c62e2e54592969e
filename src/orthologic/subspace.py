"""Closed subspaces of C^d and their lattice operations.

A subspace is stored as a d x k matrix with orthonormal columns; the
zero subspace is the d x 0 matrix.  One basis-independent residual,
||(I - B_q B_q^dagger) B_p||_F, decides order and equality: p <= q when
it is below eps_eq sqrt(d), and p = q when also dim p = dim q.

Join and span decide rank through ``core.orthonormal_bases`` (one SVD);
the complement comes from a complete QR, exact in dimension; meet keeps
the directions of p at principal angles to q of sine at most eps_rank.

A batch holds a tuple of bases: every operation and verdict applies to
each element, with one numpy call per group of equal basis shapes
(``core.each``).  For an array of seeds the samplers draw a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_columns, as_vector, each, orthonormal_bases
from .core import orthonormalize, random_unitary
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


def _gram_defects(b: np.ndarray):
    """||B^dagger B - I||_F of a basis, or of each basis of a stack."""
    defects = b.conj().swapaxes(-1, -2) @ b - np.eye(b.shape[-1])
    return np.linalg.norm(defects, axis=None if b.ndim == 2 else (-2, -1))


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^d, represented by an orthonormal basis, or a
    batch of them (see above)."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # stored C-contiguous: BLAS takes another path for some strided
        # operands, and a batch element must meet the bits of one basis
        batch = isinstance(self.basis, tuple)
        b = tuple(np.ascontiguousarray(x, dtype=complex) for x in self.basis) if batch else (
            np.ascontiguousarray(self.basis, dtype=complex))
        for x in b if batch else [b]:
            if x.ndim != 2 or x.shape[0] != self.ambient_dim:
                raise DimensionMismatch(
                    f"basis shape {x.shape} does not match ambient dim {self.ambient_dim}"
                )
        if batch:
            defect = max(each(_gram_defects, b), default=0.0)
        else:
            defect = _gram_defects(b) if b.shape[1] else 0.0
        if defect > DEFAULT_TOL.eps_eq * max(1, self.ambient_dim):
            raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        """The dimension; of a batch, the array of its elements' dimensions."""
        if isinstance(self.basis, tuple):
            return np.array([b.shape[1] for b in self.basis])
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
        if np.any(self.subspace.dim != 1):
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
    stacked = each(lambda a, b: np.concatenate([a, b], axis=-1), p.basis, q.basis)
    return Subspace(p.ambient_dim, each(lambda m: orthonormal_bases(m, tol), stacked))


def ortho(p: Subspace) -> Subspace:
    """Orthogonal complement: the trailing d - dim(p) columns of a complete
    QR factorization of p's basis.  No rank threshold is involved, so the
    dimensions of p and ortho(p) add up to d exactly."""
    return Subspace(p.ambient_dim, each(
        lambda b: np.linalg.qr(b, mode="complete")[0][..., b.shape[-1]:], p.basis))


def _outside(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I - P_q) B_p for stacks of bases B_p and B_q."""
    return a - b @ (b.conj().swapaxes(-1, -2) @ a)


def _projectors(b: np.ndarray) -> np.ndarray:
    return b @ b.conj().swapaxes(-1, -2)


def _norms(p: Subspace, q: Subspace, kernel, order=None):
    """The norm of kernel's matrix, one element at a time (a stacked norm
    differs in the last bits): a float, or a batch's array."""
    _check_same_ambient(p, q)
    if not isinstance(p.basis, tuple):
        return float(np.linalg.norm(kernel(p.basis, q.basis), order))
    return np.array(each(lambda a, b: [np.linalg.norm(m, order) for m in kernel(a, b)],
                         p.basis, q.basis))


def meet(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Largest subspace contained in both, from the principal angles
    between p and q (Björck & Golub, Math. Comp. 1973).

    The singular values of (I - P_q) B_p, one per column as dim p <= d,
    are the sines of those angles; B_p v is kept for each right singular
    vector v whose sine is at most eps_rank (the last ones, as sines
    descend).  Sines, not cosines, decide
    (Knyazev & Argentati, SIAM J. Sci. Comput. 2002): 1 - cos < 1e-9 at 4.5e-5 rad.
    """
    _check_same_ambient(p, q)

    def shared(m):
        _, sines, vh = np.linalg.svd(m)
        if vh.ndim == 2:
            return vh[np.count_nonzero(sines > tol.eps_rank):]
        return [v[k:] for v, k in zip(vh, (sines > tol.eps_rank).sum(axis=-1))]

    rows = each(shared, each(_outside, p.basis, q.basis))
    return Subspace(p.ambient_dim, each(lambda a, v: a @ v.conj().swapaxes(-1, -2), p.basis, rows))


def inclusion(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """(p <= q, residual): the residual is the Frobenius norm of
    (I - P_q) B_p, and inclusion holds when it is below eps_eq sqrt(d)."""
    residual = _norms(p, q, _outside)
    holds = residual < tol.eps_eq * np.sqrt(p.ambient_dim)
    return (bool(holds) if isinstance(residual, float) else holds), residual


def leq(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Inclusion p <= q, decided by the projection residual of p's basis."""
    return inclusion(p, q, tol)[0]


def equal(p: Subspace, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Equal dimensions and p <= q: one residual decides order and equality."""
    _check_same_ambient(p, q)
    same = p.dim == q.dim
    # one pair of unequal dimensions needs no residual
    return False if same is False else same & inclusion(p, q, tol)[0]


def projector_distance(p: Subspace, q: Subspace) -> float:
    """Frobenius distance between the projectors of p and q."""
    return _norms(p, q, lambda a, b: _projectors(a) - _projectors(b))


def commutator_norm(p: Subspace, q: Subspace) -> float:
    """Spectral norm of PQ - QP: max sin(t) cos(t) over principal angles t (Halmos 1969)."""

    def commutators(a, b):
        pp, pq = _projectors(a), _projectors(b)
        return pp @ pq - pq @ pp

    return _norms(p, q, commutators, 2)


def is_atom(p: Subspace) -> bool:
    """Atoms of the subspace lattice are exactly the one-dimensional ones."""
    return p.dim == 1


def random_subspace(d: int, k, seed) -> Subspace:
    """Deterministic k-dimensional subspace of C^d for a given seed.

    Takes the first k columns of ``random_unitary(d, seed)``; for arrays
    k and seed, the batch of them.
    """
    batch = isinstance(seed, np.ndarray)
    if not all(0 <= j <= d for j in (k if batch else [k])):
        raise InvalidDimension(f"need 0 <= k <= d, got k={k}, d={d}")
    if batch:
        return Subspace(d, tuple(u[:, :j] for u, j in zip(random_unitary(d, seed), k)))
    if k == 0:
        return zero_subspace(d)
    return Subspace(d, random_unitary(d, seed)[:, :k])


def random_subspace_of(q: Subspace, k, seed) -> Subspace:
    """Deterministic k-dimensional subspace of q: ``random_subspace(q.dim,
    k, seed)`` carried into C^d by q's basis."""
    batch = isinstance(seed, np.ndarray)
    dims = q.dim if batch else [q.dim]
    if not all(0 <= j <= m for j, m in zip(k if batch else [k], dims)):
        raise InvalidDimension(f"need 0 <= k <= dim q, got k={k}, dim q={q.dim}")
    # a unitary of size 1 stands for that of the zero subspace
    frames = random_unitary(np.maximum(dims, 1) if batch else max(q.dim, 1), seed)
    inner = tuple(map(lambda u, m, j: u[:m, :j], frames, dims, k)) if batch else frames[:q.dim, :k]
    return Subspace(q.ambient_dim, each(np.matmul, q.basis, inner))


def random_family(dims, seed, proper: bool) -> list[Subspace]:
    """``random_subspace(d, k, seed + j)`` for the j-th d in ``dims``, with k
    drawn by ``default_rng(seed)`` from 1..d-1 if ``proper``, else 1..d."""
    batch = isinstance(seed, np.ndarray)
    rngs = [np.random.default_rng(s) for s in (seed if batch else [seed])]
    family = []
    for j, d in enumerate(dims):
        k = np.array([rng.integers(1, d if proper else d + 1) for rng in rngs])
        family.append(random_subspace(d, k if batch else int(k[0]), seed + j))
    return family


def compatible_pair(d: int, seed) -> tuple[Subspace, Subspace]:
    """Two subspaces compatible by construction: coordinate subspaces of
    one seeded random unitary frame, of dimensions drawn from 1..d."""

    def coordinates(s, frame):
        rng = np.random.default_rng(s)
        k1 = int(rng.integers(1, d + 1))
        k2 = int(rng.integers(1, d + 1))
        cols1 = sorted(rng.permutation(d)[:k1].tolist())
        cols2 = sorted(rng.permutation(d)[:k2].tolist())
        return frame[:, cols1], frame[:, cols2]

    if isinstance(seed, np.ndarray):
        return tuple(Subspace(d, b) for b in zip(*map(coordinates, seed, random_unitary(d, seed))))
    return tuple(Subspace(d, b) for b in coordinates(seed, random_unitary(d, seed)))


def subspace_to_json(p: Subspace) -> dict:
    """JSON-friendly form: column-major list of [re, im] entry pairs."""
    flat = p.basis.ravel(order="F")
    pairs = np.stack([flat.real, flat.imag], axis=1)
    return {"ambient_dim": p.ambient_dim, "basis": pairs.tolist()}


def subspace_from_json(data: dict) -> Subspace:
    d = int(data["ambient_dim"])
    flat = data["basis"]
    if len(flat) % max(d, 1) != 0:
        raise DimensionMismatch("basis entry count is not a multiple of ambient_dim")
    k = len(flat) // d if d else 0
    pairs = np.asarray(flat, dtype=float).reshape(-1, 2)
    return Subspace(d, (pairs[:, 0] + 1j * pairs[:, 1]).reshape((d, k), order="F"))
