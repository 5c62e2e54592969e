"""Truncated harmonic-oscillator model in the number basis.

Supplies the realistic propositions and states used by the truth
valuation: ladder matrices on the lowest n_max + 1 levels, sampled
Hermite-Gaussian eigenfunctions on a quadrature grid, and coordinate
subspaces spanned by chosen eigenstates.

Truncation breaks the canonical commutation relation only in the last
level, so commutator and eigenvalue assertions stay away from it.  The
eigenfunctions are evaluated with the stable three-term recurrence for
normalized Hermite functions, which agrees with the repeated
raising-operator form exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimension, InvalidIndex, InvalidParameter
from .subspace import Subspace

__all__ = [
    "OscillatorModel",
    "ladder_operators",
    "energies",
    "hermite_eigenfunction",
    "proposition_from_eigenstates",
]


@dataclass(frozen=True, eq=False)
class OscillatorModel:
    """Model parameters plus the symmetric quadrature grid derived from them.

    Positions are in meters when hbar, m, omega0 carry SI units; with
    the default unit values the natural length sqrt(hbar / (m omega0))
    is 1 and the grid is dimensionless.  Compared and hashed by identity,
    as it holds arrays.
    """

    n_max: int
    hbar: float = 1.0
    mass: float = 1.0
    omega0: float = 1.0
    grid: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_max < 2:
            raise InvalidParameter("n_max must be at least 2")
        if self.hbar <= 0 or self.mass <= 0 or self.omega0 <= 0:
            raise InvalidParameter("hbar, mass and omega0 must be positive")
        grid, weights = _default_grid(self.n_max, self.natural_length)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)

    @property
    def natural_length(self) -> float:
        return math.sqrt(self.hbar / (self.mass * self.omega0))

    @property
    def levels(self) -> int:
        return self.n_max + 1


def _default_grid(n_max: int, length: float):
    """Uniform symmetric grid with trapezoid weights.

    Extent sqrt(2 n_max + 1) + 4 natural lengths covers the classical
    turning point of the highest level plus a decay margin; 16 points
    per natural length keeps the quadrature error far below the 1e-6
    budget for n <= 8.
    """
    extent = (math.sqrt(2 * n_max + 1) + 4.0) * length
    npts = 2 * int(math.ceil(extent / length * 16)) + 1
    grid = np.linspace(-extent, extent, npts)
    weights = np.full(npts, grid[1] - grid[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return grid, weights


def ladder_operators(model: OscillatorModel):
    """Lowering/raising matrices plus number and Hamiltonian operators.

    Returns (a, a_dagger, N, H) as (n_max + 1)-square complex matrices
    in the number basis, with H = hbar omega0 (N + 1/2).
    """
    n = model.levels
    a = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        a[k - 1, k] = math.sqrt(k)
    a_dagger = a.conj().T
    number = np.diag(np.arange(n, dtype=complex))
    hamiltonian = model.hbar * model.omega0 * (number + 0.5 * np.eye(n, dtype=complex))
    return a, a_dagger, number, hamiltonian


def energies(model: OscillatorModel) -> np.ndarray:
    """The level energies hbar omega0 (n + 1/2) up to the truncation."""
    return model.hbar * model.omega0 * (np.arange(model.levels) + 0.5)


def hermite_eigenfunction(model: OscillatorModel, n: int) -> np.ndarray:
    """The n-th normalized eigenfunction sampled on the model grid.

    Real-valued; quadrature with the model weights reproduces the unit
    norm and pairwise orthogonality to the grid's accuracy.
    """
    if not (0 <= n <= model.n_max):
        raise InvalidIndex(f"need 0 <= n <= {model.n_max}, got {n}")
    length = model.natural_length
    xi = model.grid / length
    prefactor = (model.mass * model.omega0 / (math.pi * model.hbar)) ** 0.25
    p_prev = np.exp(-0.5 * xi**2)
    if n == 0:
        return prefactor * p_prev
    p_cur = math.sqrt(2.0) * xi * p_prev
    for k in range(1, n):
        p_next = math.sqrt(2.0 / (k + 1)) * xi * p_cur - math.sqrt(k / (k + 1.0)) * p_prev
        p_prev, p_cur = p_cur, p_next
    return prefactor * p_cur


def proposition_from_eigenstates(indices, dim: int) -> Subspace:
    """Coordinate subspace of C^dim spanned by the chosen number states."""
    if dim < 1:
        raise InvalidDimension("dim must be positive")
    idx = sorted(set(int(i) for i in indices))
    if idx and (idx[0] < 0 or idx[-1] >= dim):
        raise InvalidIndex(f"indices must lie in [0, {dim})")
    basis = np.zeros((dim, len(idx)), dtype=complex)
    for col, i in enumerate(idx):
        basis[i, col] = 1.0
    return Subspace(dim, basis)
