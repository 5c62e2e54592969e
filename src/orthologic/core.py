"""Dense complex linear algebra core.

Inner products follow the convention of being conjugate-linear in the
FIRST argument and linear in the second.  Many linear algebra libraries
use the opposite convention; everything downstream relies on this one.

Numerical rank is decided in one place, ``orthonormal_bases``, from the
singular values of numpy's SVD.  Kernels take (n, ...) stacks only:
``each`` runs one on a batch, stacked by shape, and on one array as a
stack of one.

All randomness comes from numpy's PCG64 generators, so fixtures are
reproducible run to run.  A sampler takes a seed or a generator (numpy's
``default_rng`` hands a generator back unchanged), and a batch an object
array of them, one per element.  Trial t of a check named ``name`` draws
everything, in program order, from ``trial_generators(seed, name, n)[t]``.
A complex Gaussian in C^d, or in the d x d matrices, is one real
``standard_normal`` draw of shape (2, d) or (2, d, d), real part first.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_vector",
    "as_columns",
    "each",
    "inner",
    "orthonormalize",
    "orthonormal_bases",
    "rank",
    "random_unitary",
    "random_vector",
    "generators",
    "trial_generators",
]


@dataclass(frozen=True)
class Tolerance:
    """The numerical threshold: eps_eq is the one setting of every verdict.

    eps_eq bounds the inclusion residual that decides order and equality.
    eps_rank = eps_eq / 10 decides numerical rank (singular values relative
    to the largest one) and, as a bound on principal-angle sines, which
    directions two subspaces share.  Truth values are classified against
    the fixed bound ``truth.EPS_PROB``, not against a setting.
    """

    eps_eq: float = 1e-8

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


# Elements per stacked call: splitting larger groups bounds the transient
# stacks, and with them the peak memory of a batch.
MAX_STACK = 32


def each(kernel, *args):
    """``kernel`` on the elements of tuples of arrays (a batch), with one
    call per group of equally shaped elements, on their (n, ...) stacks,
    giving a tuple in element order; or on one array per argument, as a
    stack of one, giving its one result.  On a stack ``kernel`` gives a
    sequence of n results."""
    if not isinstance(args[0], tuple):
        return kernel(*(arg[None] for arg in args))[0]
    groups: dict = {}
    out = [None] * len(args[0])
    for i, shapes in enumerate(zip(*([a.shape for a in arg] for arg in args))):
        groups.setdefault(shapes, []).append(i)
    for group in groups.values():
        for at in range(0, len(group), MAX_STACK):
            idx = group[at:at + MAX_STACK]
            stacks = [arg[idx[0]][None] if len(idx) == 1 else np.array([arg[i] for i in idx])
                      for arg in args]
            for i, result in zip(idx, kernel(*stacks)):
                out[i] = result
    return tuple(out)


def orthonormal_bases(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> list:
    """The orthonormal bases of the column spans of a stack of matrices:
    of each, the leading k left singular vectors, where k, the numerical
    rank, counts the singular values above ``tol.eps_rank`` times the
    largest (the first) one."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    kept = s > tol.eps_rank * s[..., :1]
    return [b[:, :k] for b, k in zip(u, kept.sum(axis=-1))]


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (d x k matrix) for the span of the given vectors,
    read as ``as_columns`` reads them: ``orthonormal_bases`` of a stack of
    one.  An empty input yields a d x 0 matrix.
    """
    return each(lambda m: orthonormal_bases(m, tol), as_columns(vectors))


def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: the number of columns orthonormalize retains."""
    return orthonormalize(np.atleast_2d(m), tol).shape[1]


def random_unitary(d, seed) -> np.ndarray:
    """Deterministic pseudo-random d x d unitary for a given seed or generator.

    The Q factor of a complex Gaussian matrix G = QR, with the phase of
    each column fixed so that the diagonal of R is real and positive
    (Mezzadri, Notices AMS 2007).  This pins the result uniquely per
    seed and makes it Haar-distributed.  For an array of seeds or
    generators, and d one size or one per element, the tuple of their
    unitaries: each drawn from its own element, in element order, with
    one stacked complex build and QR per size; a scalar seed or
    generator runs as a stack of one.
    """
    if not isinstance(seed, np.ndarray):
        return each(_haar, _gaussian(d, seed))
    return each(_haar, tuple(map(_gaussian, np.broadcast_to(d, seed.shape).tolist(), seed)))


def _gaussian(d: int, seed) -> np.ndarray:
    """The real (2, d, d) stack of G's real and imaginary parts: one
    ``standard_normal`` draw, the stream of a (d, d) draw of each in turn."""
    if d < 1:
        raise DimensionMismatch("d must be >= 1")
    return np.random.default_rng(seed).standard_normal((2, d, d))


def _haar(g: np.ndarray) -> np.ndarray:
    """The phase-fixed Q factors of a stack of ``_gaussian`` draws."""
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def random_vector(d: int, seed) -> np.ndarray:
    """Deterministic complex Gaussian vector in C^d, for a seed or generator:
    one (2, d) draw, real part first."""
    if d < 1:
        raise DimensionMismatch("d must be >= 1")
    re, im = np.random.default_rng(seed).standard_normal((2, d))
    return re + 1j * im


def generators(seed: np.ndarray) -> np.ndarray:
    """The generator of each element of an array of seeds or generators, a
    generator being its own, as an object array."""
    return np.array([np.random.default_rng(s) for s in seed], dtype=object)


def trial_generators(seed: int, name: str, n: int) -> np.ndarray:
    """The generators of trials 0..n-1 of the check ``name``: trial t's is
    keyed by (seed mod 2^64, crc32(name), t), so every (seed, name, t)
    has its own stream (Salmon et al., SC 2011).  Every piece of the
    CLI's randomness comes from one user seed through this function.

    ``default_rng`` gets each key as the uint32 words numpy's SeedSequence
    derives from the list ``[seed mod 2^64, crc32(name), t]``: each number's
    words, least significant first, none past its highest nonzero word (one
    word for 0).  So every state is that of the list, without numpy
    converting it word by word in Python."""
    if not np.issubdtype(type(seed), np.integer):
        raise InvalidParameter(f"seed must be an integer, got {seed!r}")
    s = int(seed) % 2**64
    head = [s & 0xFFFFFFFF, *([s >> 32] if s >> 32 else []), zlib.crc32(name.encode("utf-8"))]
    keys = np.empty((n, len(head) + 1), dtype=np.uint32)
    keys[:, :-1] = head
    keys[:, -1] = np.arange(n)
    return generators(keys)


def _one(seed) -> np.ndarray:
    """The seed array of a batch of one."""
    return np.array([seed], dtype=object)
