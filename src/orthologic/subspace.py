"""Closed subspaces of C^d and their lattice operations.

A subspace is stored as a d x k matrix with orthonormal columns; the
zero subspace is the d x 0 matrix.  One basis-independent residual,
||(I - B_q B_q^dagger) B_p||_F, decides order and equality: p <= q when
it is below eps_eq sqrt(d), and p = q when also dim p = dim q; a vector
lies in q when its span does.

Join and span decide rank through ``core.orthonormal_bases`` (one SVD);
the complement comes from a complete QR, exact in dimension; meet keeps
the directions of p at principal angles to q of sine at most eps_rank.

A batch holds a tuple of bases: every operation and verdict applies to
each element, with one numpy call per group of equal basis shapes
(``core.each``); one subspace runs the same kernels as a stack of one.
The samplers draw a batch for an array of seeds or generators, each
element from its own, and for a scalar seed or generator the one element
of the batch of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TOL, MAX_STACK, Tolerance, as_columns, as_vector, each, orthonormal_bases
from .core import _one, generators, orthonormalize, random_unitary, random_vector
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
    "random_subspace",
    "random_subspace_of",
    "random_family",
    "rays",
    "random_ray",
    "compatible_pair",
    "complex_to_json",
    "subspace_to_json",
    "subspace_from_json",
]


def _gram_defects(b: np.ndarray) -> list:
    """||B^dagger B - I||_F of each basis of a stack, as floats: NaN or inf
    for a basis with a non-finite entry."""
    defects = b.conj().swapaxes(-1, -2) @ b - np.eye(b.shape[-1])
    return np.linalg.norm(defects, axis=(-2, -1)).tolist()


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed subspace of C^d, represented by an orthonormal basis, or a
    batch of them (see above).  ``==`` and ``hash`` go by identity; the
    lattice equality of two subspaces is ``equal``.  A basis is checked
    once, when a Subspace is built from it: batch, split and elements
    regroup built subspaces and check no basis again."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # stored C-contiguous: BLAS takes another path for some strided
        # operands, and a batch element must meet the bits of one basis
        batch = isinstance(self.basis, tuple)
        b, groups = [], {}  # one pass stores, checks the shape of and groups each basis
        for x in (self.basis if batch else [self.basis]):
            x = np.ascontiguousarray(x, dtype=complex)
            if x.ndim != 2 or x.shape[0] != self.ambient_dim:
                raise DimensionMismatch(
                    f"basis shape {x.shape} does not match ambient dim {self.ambient_dim}"
                )
            b.append(x)
            groups.setdefault(x.shape, []).append(x)
        bound = DEFAULT_TOL.eps_eq * max(1, self.ambient_dim)
        with np.errstate(invalid="ignore", over="ignore"):
            defects = []
            for group in groups.values():
                for at in range(0, len(group), MAX_STACK):
                    chunk = group[at:at + MAX_STACK]
                    defects += _gram_defects(chunk[0][None] if len(chunk) == 1 else np.array(chunk))
        if not all(d <= bound for d in defects):  # a NaN defect fails, wherever it sits
            finite = all(np.isfinite(x).all() for x in b)
            raise ValueError("basis columns are not orthonormal" if finite
                             else "basis entries must be finite")
        object.__setattr__(self, "basis", tuple(b) if batch else b[0])

    @classmethod
    def batch(cls, ambient_dim: int, parts) -> "Subspace":
        """The batch of the elements of ``parts``, subspaces and batches, in order."""
        parts = tuple(parts)  # read twice
        if any(p.ambient_dim != ambient_dim for p in parts):
            raise DimensionMismatch(f"only subspaces of C^{ambient_dim} batch into it")
        return cls._element(ambient_dim, tuple(
            b for p in parts for b in (p.basis if p.is_batch else (p.basis,))))

    def split(self, k: int) -> tuple:
        """A batch's elements as k batches of equal length, in order."""
        n, rest = divmod(len(self.basis), k)
        if not self.is_batch or rest:
            raise DimensionMismatch(f"only a batch of a multiple of {k} elements splits into {k}")
        return tuple(self._element(self.ambient_dim, self.basis[i * n:(i + 1) * n])
                     for i in range(k))

    @property
    def is_batch(self) -> bool:
        return isinstance(self.basis, tuple)

    def elements(self) -> tuple:
        """The subspaces of a batch, in order; a single subspace is its own
        only element."""
        d = self.ambient_dim
        return tuple(self._element(d, b) for b in self.basis) if self.is_batch else (self,)

    @staticmethod
    def _element(ambient_dim: int, basis) -> "Subspace":  # of bases checked when built
        element = object.__new__(Subspace)
        object.__setattr__(element, "ambient_dim", ambient_dim)
        object.__setattr__(element, "basis", basis)
        return element

    @property
    def dim(self):
        """The dimension; of a batch, the array of its elements' dimensions."""
        if self.is_batch:
            return np.array([b.shape[1] for b in self.basis])
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto this subspace (Hermitian, idempotent)."""
        return self.basis @ self.basis.conj().T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass(frozen=True)
class Ray:
    """A one-dimensional subspace (an atom of the lattice)."""

    subspace: Subspace

    def __post_init__(self) -> None:
        if np.any(self.subspace.dim != 1):
            raise InvalidDimension("a ray must be one-dimensional")


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
    # len(basis) is d for a single subspace, the element count for a batch
    if p.is_batch != q.is_batch or len(p.basis) != len(q.basis):
        raise DimensionMismatch("operands must be two subspaces or two batches of one length")


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


def _frobenius(m: np.ndarray) -> np.ndarray:
    """The Frobenius norms of a stack of C-contiguous matrices: sqrt(Re.Re +
    Im.Im), each dot one (1 x m)(m x 1) matmul, which numpy runs on the BLAS
    dot ``np.linalg.norm`` takes, so each norm has that norm's bits (a
    stacked ``np.linalg.norm`` sums pairwise and differs in the last bits)."""
    x = m.reshape(len(m), 1, -1)
    re, im = x.real, x.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0]


def _spectral(m: np.ndarray) -> np.ndarray:
    """The spectral norms of a stack: each matrix's largest singular value."""
    return np.linalg.svd(m, compute_uv=False)[:, 0]


def _norms(p: Subspace, q: Subspace, kernel, norm=_frobenius):
    """The norm of kernel's matrix, one stacked ``norm`` per group of equal
    shapes: a float, or a batch's array."""
    _check_same_ambient(p, q)
    norms = each(lambda a, b: norm(kernel(a, b)), p.basis, q.basis)
    return np.array(norms) if p.is_batch else float(norms)


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
        _, sines, vh = np.linalg.svd(m, full_matrices=False)
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
    """Equal dimensions and p <= q: one residual, of p's basis against q,
    decides order and equality.  For dim p = dim q = k both residuals
    square to k - ||B_q^dagger B_p||_F^2, so the argument orders differ
    only by rounding (0.0 one way and about 1e-15 the other can happen),
    a few eps sqrt(d) against a bound of at least cli.MIN_TOL sqrt(d),
    about 1000 eps sqrt(d), at the CLI's tightest tolerance.  Only a residual
    within rounding of the bound can flip, and its own rounding decides
    that case anyway, so a second residual is not computed."""
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

    return _norms(p, q, commutators, _spectral)


def random_subspace(d: int, k, seed) -> Subspace:
    """Deterministic k-dimensional subspace of C^d for a given seed.

    Takes the first k columns of ``random_unitary(d, seed)``; for arrays
    k and seed, the batch of them.  A scalar seed gives element 0 of its
    batch of one.
    """
    if not all(0 <= j <= d for j in np.atleast_1d(k)):
        raise InvalidDimension(f"need 0 <= k <= d, got k={k}, d={d}")
    if not isinstance(seed, np.ndarray):
        return random_subspace(d, [k], _one(seed)).elements()[0]
    return Subspace(d, tuple(u[:, :j] for u, j in zip(random_unitary(d, seed), k)))


def random_subspace_of(q: Subspace, k, seed) -> Subspace:
    """Deterministic k-dimensional subspace of q: ``random_subspace(q.dim,
    k, seed)`` carried into C^d by q's basis (see random_subspace)."""
    if not all(0 <= j <= m for j, m in zip(np.atleast_1d(k), np.atleast_1d(q.dim))):
        raise InvalidDimension(f"need 0 <= k <= dim q, got k={k}, dim q={q.dim}")
    if not isinstance(seed, np.ndarray):
        return random_subspace_of(Subspace.batch(q.ambient_dim, [q]), [k], _one(seed)).elements()[0]
    # a unitary of size 1 stands for that of the zero subspace
    frames = random_unitary(np.maximum(q.dim, 1), seed)
    inner = tuple(map(lambda u, m, j: u[:m, :j], frames, q.dim, k))
    return Subspace(q.ambient_dim, each(np.matmul, q.basis, inner))


def random_family(dims, seed, proper: bool) -> list[Subspace]:
    """One random subspace of C^d for each d in ``dims``, all drawn from
    one generator: first each member's dimension k, from 1..d-1 if
    ``proper``, else 1..d, then each member's frame, whose first k
    columns it takes.  A batch draws the frames of all its members in
    one ``random_unitary`` call.  A scalar seed gives the members of its
    batch of one."""
    if not isinstance(seed, np.ndarray):
        return [p.elements()[0] for p in random_family(dims, _one(seed), proper)]
    rngs, n = generators(seed), len(seed)
    ks = [[int(rng.integers(1, d if proper else d + 1)) for rng in rngs] for d in dims]
    frames = random_unitary(np.repeat(dims, n), np.tile(rngs, len(dims)))
    return [Subspace(d, tuple(u[:, :k] for u, k in zip(frames[j * n:(j + 1) * n], kj)))
            for j, (d, kj) in enumerate(zip(dims, ks))]


def rays(d: int, vectors, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The batch of the rays of the vectors (1-d complex arrays) in C^d:
    each element is ``span_of`` of its vector."""
    columns = tuple(v[:, None] for v in vectors)
    return Subspace(d, each(lambda m: orthonormal_bases(m, tol), columns))


def random_ray(d: int, seed: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """``rays`` of ``random_vector(d, s)``, one for each seed or generator s
    of the array ``seed``."""
    return rays(d, [random_vector(d, s) for s in seed], tol)


def compatible_pair(d: int, seed) -> tuple[Subspace, Subspace]:
    """Two subspaces compatible by construction: coordinate subspaces of
    one random unitary frame, of dimensions drawn from 1..d.  One
    generator draws both dimensions and column sets, then the frame."""

    def columns(rng):
        ks = int(rng.integers(1, d + 1)), int(rng.integers(1, d + 1))
        return [sorted(rng.permutation(d)[:k].tolist()) for k in ks]

    if not isinstance(seed, np.ndarray):
        return tuple(p.elements()[0] for p in compatible_pair(d, _one(seed)))
    rngs = generators(seed)
    cols = [columns(rng) for rng in rngs]
    frames = random_unitary(d, rngs)
    return tuple(Subspace(d, tuple(u[:, c[j]] for u, c in zip(frames, cols))) for j in (0, 1))


def complex_to_json(values) -> list:
    """The [re, im] pairs of a vector's complex entries, in order."""
    flat = as_vector(values)
    return np.stack([flat.real, flat.imag], axis=1).tolist()


def subspace_to_json(p: Subspace) -> dict:
    """JSON-friendly form: column-major list of [re, im] entry pairs."""
    return {"ambient_dim": p.ambient_dim, "basis": complex_to_json(p.basis.ravel(order="F"))}


def subspace_from_json(data) -> Subspace:
    """The subspace of subspace_to_json's form.  This reads outside input:
    anything else raises ValueError, except an entry count that is no
    multiple of ambient_dim (DimensionMismatch)."""
    if not isinstance(data, dict) or not {"ambient_dim", "basis"} <= data.keys():
        raise ValueError("a subspace is an object with the keys ambient_dim and basis")
    d, flat = data["ambient_dim"], data["basis"]
    if type(d) is not int or d < 1:
        raise ValueError(f"ambient_dim must be a positive integer, got {d!r}")
    if not isinstance(flat, list) or not all(
            isinstance(e, list) and len(e) == 2 and {type(x) for x in e} <= {int, float}
            for e in flat):
        raise ValueError("basis must be a list of [re, im] number pairs")
    if len(flat) % d != 0:
        raise DimensionMismatch("basis entry count is not a multiple of ambient_dim")
    pairs = np.array(flat, dtype=float).reshape(-1, 2)
    return Subspace(d, (pairs[:, 0] + 1j * pairs[:, 1]).reshape((d, -1), order="F"))
