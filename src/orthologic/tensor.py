"""Bipartite tensor machinery: flattened products, duals, separability.

C^{d1} tensor C^{d2} is identified with C^{d1 d2} through the index
bijection (i, j) <-> i * d2 + j.  Dual vectors are stored by their
coordinates in the dual basis obtained from the conjugate-linear Riesz
map, under which the dual inner product [f, g] = <k^-1(g), k^-1(f)>
becomes the ordinary inner product of coordinate arrays.

A bipartite vector is separable exactly when its d1 x d2 coefficient
matrix has rank one; the rank is the Schmidt rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_vector, inner, rank
from .errors import DimensionMismatch, ZeroState

__all__ = [
    "TensorIndex",
    "DualVector",
    "riesz",
    "riesz_inverse",
    "dual_inner",
    "elementary_tensor",
    "is_separable",
]


@dataclass(frozen=True)
class TensorIndex:
    """Index bookkeeping for a bipartite product space."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionMismatch("factor dimensions must be positive")

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    def coefficient_matrix(self, v) -> np.ndarray:
        vec = as_vector(v)
        if vec.shape[0] != self.dim:
            raise DimensionMismatch(
                f"vector has dim {vec.shape[0]}, expected {self.dim}"
            )
        return vec.reshape(self.d1, self.d2)


@dataclass(frozen=True, eq=False)
class DualVector:
    """A continuous linear functional, stored by dual-basis coordinates."""

    coordinates: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coordinates", as_vector(self.coordinates))

    @property
    def dim(self) -> int:
        return self.coordinates.shape[0]

    def __call__(self, y) -> complex:
        """Evaluate the functional; equals inner(k^-1(self), y)."""
        yv = as_vector(y)
        if yv.shape[0] != self.dim:
            raise DimensionMismatch("argument dimension differs")
        return complex(np.dot(self.coordinates, yv))


def riesz(x) -> DualVector:
    """The conjugate-linear bijection onto the dual: x maps to <x, .>."""
    return DualVector(np.conj(as_vector(x)))


def riesz_inverse(f: DualVector) -> np.ndarray:
    return np.conj(f.coordinates)


def dual_inner(f: DualVector, g: DualVector) -> complex:
    """Inner product on the dual space, antilinear in the first slot."""
    if f.dim != g.dim:
        raise DimensionMismatch("dual vectors have different dimensions")
    return inner(f.coordinates, g.coordinates)


def elementary_tensor(x, y, idx: TensorIndex) -> np.ndarray:
    """Flattened product (x tensor y)[i * d2 + j] = x_i y_j.

    The first factor may be a DualVector, in which case its coordinates
    enter directly: a dual first factor flattens as a plain one does.
    """
    xv = x.coordinates if isinstance(x, DualVector) else as_vector(x)
    yv = as_vector(y)
    if xv.shape[0] != idx.d1 or yv.shape[0] != idx.d2:
        raise DimensionMismatch("factor dimensions do not match the index")
    return np.outer(xv, yv).reshape(-1)


def is_separable(v, idx: TensorIndex, tol: Tolerance = DEFAULT_TOL):
    """Decide separability of a bipartite vector.

    Returns (separable, schmidt_rank); separable means Schmidt rank 1.
    """
    vec = as_vector(v)
    if float(np.linalg.norm(vec)) < tol.eps_rank:
        raise ZeroState("separability is undefined for the zero vector")
    schmidt_rank = rank(idx.coefficient_matrix(vec), tol)
    return schmidt_rank == 1, schmidt_rank

