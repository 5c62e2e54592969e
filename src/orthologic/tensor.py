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
    "product_state_probability",
]


@dataclass(frozen=True)
class TensorIndex:
    """Index bookkeeping for a bipartite product space.

    dual_first_factor marks the first factor as a dual space, which
    only changes how coordinates are interpreted, not the flattening.
    """

    d1: int
    d2: int
    dual_first_factor: bool = False

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionMismatch("factor dimensions must be positive")

    @property
    def dim(self) -> int:
        return self.d1 * self.d2

    def flatten(self, i: int, j: int) -> int:
        if not (0 <= i < self.d1 and 0 <= j < self.d2):
            raise DimensionMismatch(f"index ({i}, {j}) out of range")
        return i * self.d2 + j

    def unflatten(self, k: int) -> tuple[int, int]:
        if not (0 <= k < self.dim):
            raise DimensionMismatch(f"flat index {k} out of range")
        return divmod(k, self.d2)

    def coefficient_matrix(self, v) -> np.ndarray:
        vec = as_vector(v)
        if vec.shape[0] != self.dim:
            raise DimensionMismatch(
                f"vector has dim {vec.shape[0]}, expected {self.dim}"
            )
        return vec.reshape(self.d1, self.d2)


@dataclass(frozen=True)
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
    enter directly (matching idx.dual_first_factor bookkeeping).
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


def product_state_probability(psi1, psi2, b1, b2) -> float:
    """Probability mass of psi1 tensor psi2 on the index box B1 x B2.

    Computed by direct summation on the flattened product vector; for
    independent subsystems it factorizes into the marginal masses.
    """
    v1, v2 = as_vector(psi1), as_vector(psi2)
    idx = TensorIndex(v1.shape[0], v2.shape[0])
    b1 = sorted(set(int(i) for i in b1))
    b2 = sorted(set(int(j) for j in b2))
    if b1 and not (0 <= b1[0] and b1[-1] < idx.d1):
        raise DimensionMismatch("B1 indices out of range")
    if b2 and not (0 <= b2[0] and b2[-1] < idx.d2):
        raise DimensionMismatch("B2 indices out of range")
    joint = elementary_tensor(v1, v2, idx)
    mass = 0.0
    for i in b1:
        for j in b2:
            mass += abs(joint[idx.flatten(i, j)]) ** 2
    return float(mass)
