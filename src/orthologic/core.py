"""Dense complex linear algebra core.

Inner products follow the convention of being conjugate-linear in the
FIRST argument and linear in the second.  Many linear algebra libraries
use the opposite convention; everything downstream relies on this one.

Numerical rank is decided in one place, ``orthonormalize``, from the
singular values of numpy's SVD.

All randomness is generated by numpy's PCG64 generator seeded from a
64-bit integer, so fixtures are reproducible run to run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_vector",
    "as_columns",
    "inner",
    "polarization_inner",
    "polarization_r",
    "orthonormalize",
    "rank",
    "random_unitary",
    "random_vector",
    "subseed",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: eps_eq is the one knob of every lattice verdict.

    eps_eq bounds the inclusion residual that decides order and equality.
    eps_rank = eps_eq / 10 decides numerical rank (singular values relative
    to the largest one) and, as a bound on principal-angle sines, which
    directions two subspaces share.  eps_prob classifies truth values.
    """

    eps_eq: float = 1e-8
    eps_prob: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_eq < 1.0):
            raise ValueError("need 0 < eps_eq < 1")

    @property
    def eps_rank(self) -> float:
        return self.eps_eq / 10


DEFAULT_TOL = Tolerance()


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d complex array."""
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1:
        v = v.reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_columns(vectors) -> np.ndarray:
    """The d x n matrix of n vectors, given as 1-d arrays or as its columns."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        return as_vector(vectors).reshape(vectors.shape)
    cols = [as_vector(v) for v in vectors]
    if len({c.shape[0] for c in cols}) > 1:
        raise DimensionMismatch("columns must share a dimension")
    return np.column_stack(cols) if cols else np.zeros((0, 0), dtype=complex)


def inner(x, y) -> complex:
    """Complex inner product, conjugate-linear in the first argument."""
    xv, yv = as_vector(x), as_vector(y)
    if xv.shape[0] != yv.shape[0]:
        raise DimensionMismatch(f"dims {xv.shape[0]} != {yv.shape[0]}")
    return complex(np.vdot(xv, yv))


def polarization_r(x, y) -> float:
    """Real part of the inner product recovered from norms alone."""
    xv, yv = as_vector(x), as_vector(y)
    if xv.shape[0] != yv.shape[0]:
        raise DimensionMismatch(f"dims {xv.shape[0]} != {yv.shape[0]}")
    return 0.25 * (
        np.linalg.norm(xv + yv) ** 2 - np.linalg.norm(xv - yv) ** 2
    )


def polarization_inner(x, y) -> complex:
    """Inner product via the polarization identity R(x, y) - i R(x, iy).

    Mathematically equal to ``inner`` for every sesquilinear form that
    is conjugate-linear in the first slot; exposed so the identity can
    be tested against the direct computation.
    """
    yv = as_vector(y)
    return complex(polarization_r(x, yv) - 1j * polarization_r(x, 1j * yv))


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (d x k matrix) for the span of the given vectors.

    Takes the vectors as ``as_columns`` does.  The basis is the leading k
    left singular vectors, where k, the numerical rank, counts the
    singular values above ``tol.eps_rank`` times the largest one.  An
    empty input yields a d x 0 matrix.
    """
    u, s, _ = np.linalg.svd(as_columns(vectors), full_matrices=False)
    return u[:, : int(np.count_nonzero(s > tol.eps_rank * s.max(initial=0.0)))]


def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: the number of columns orthonormalize retains."""
    return orthonormalize(np.atleast_2d(m), tol).shape[1]


def random_unitary(d: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random d x d unitary for a given seed.

    The Q factor of a complex Gaussian matrix G = QR, with the phase of
    each column fixed so that the diagonal of R is real and positive
    (Mezzadri, Notices AMS 2007).  This pins the result uniquely per
    seed and makes it Haar-distributed.
    """
    if d < 1:
        raise DimensionMismatch("d must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_vector(d: int, seed: int) -> np.ndarray:
    """Deterministic complex Gaussian vector in C^d."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def subseed(base: int, name: str, index: int) -> int:
    """Derive a per-trial seed: base XOR crc32(name) XOR index.

    Every piece of randomness in the CLI flows from one user seed
    through this function, so runs are reproducible and trials are
    decorrelated across commands.
    """
    return (int(base) ^ zlib.crc32(name.encode("utf-8")) ^ int(index)) & 0xFFFFFFFFFFFFFFFF
