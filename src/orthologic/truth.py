"""Projection-valued truth assignment for prepared quantum states.

A proposition q gets, against a normalized state psi, the projection
probability <P_q psi, P_q psi> as its truth value: 0 when psi lies in
the complement of q, 1 when psi lies in q, and a genuine probability
in between.  The eigenvector cases collapse to the classifications
"false" and "true"; everything else is "probabilistic".

Unnormalized nonzero states are admitted and normalized first, which
reproduces the generalized normalization of projection probabilities.
The classification bound EPS_PROB is an artifact of finite precision,
not of the valuation itself, so it is a constant, not a Tolerance field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Tolerance, as_vector, inner
from .errors import DimensionMismatch, ZeroState
from .subspace import Subspace

__all__ = ["EPS_PROB", "TruthValue", "truth_value"]

EPS_PROB = 1e-10


@dataclass(frozen=True)
class TruthValue:
    """A number in [0, 1] plus its three-way classification."""

    value: float
    classification: str

    @classmethod
    def classify(cls, value: float) -> "TruthValue":
        if value < EPS_PROB:
            label = "false"
        elif value > 1.0 - EPS_PROB:
            label = "true"
        else:
            label = "probabilistic"
        return cls(float(value), label)


def truth_value(psi, q: Subspace, tol: Tolerance = DEFAULT_TOL) -> TruthValue:
    """Projection probability of the state psi onto the proposition q."""
    vec = as_vector(psi)
    if vec.shape[0] != q.ambient_dim:
        raise DimensionMismatch("state and proposition dimensions differ")
    nrm = float(np.linalg.norm(vec))
    if nrm < tol.eps_rank:
        raise ZeroState("truth values are undefined for the zero state")
    vec = vec / nrm
    projected = q.projector() @ vec
    value = inner(projected, projected).real
    return TruthValue.classify(min(max(value, 0.0), 1.0))
