"""Core linear algebra: inner products, orthonormalization, random unitaries."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import orthologic
from orthologic import core
from orthologic.core import (
    DEFAULT_TOL,
    Tolerance,
    inner,
    orthonormalize,
    polarization_inner,
    polarization_r,
    random_unitary,
    random_vector,
    rank,
    subseed,
    subseeds,
)
from orthologic.errors import DimensionMismatch


def elementwise_inner(x, y):
    """Independent oracle: conjugate-first sum, plain python loop."""
    total = 0j
    for a, b in zip(x, y):
        total += complex(a).conjugate() * complex(b)
    return total


def pairwise_gs(vectors, tol=1e-9):
    """Independent oracle: classical Gram-Schmidt, full pairwise elimination,
    no pivoting, no re-orthogonalization."""
    basis = []
    for v in vectors:
        w = np.array(v, dtype=complex)
        for q in basis:
            w = w - q * np.vdot(q, w)
        nrm = np.linalg.norm(w)
        if nrm > tol * max(np.linalg.norm(v), 1e-300):
            basis.append(w / nrm)
    return np.column_stack(basis) if basis else np.zeros((len(vectors[0]), 0))


class TestInner:
    def test_orthogonal_basis_vectors(self):
        assert inner([1, 0], [0, 1]) == 0

    def test_conjugation_forces_unit_modulus(self):
        assert inner([1j, 0], [1j, 0]) == pytest.approx(1)

    def test_matches_elementwise_oracle(self):
        x = random_vector(3, 101)
        y = random_vector(3, 102)
        assert inner(x, y) == pytest.approx(elementwise_inner(x, y), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner([1, 0], [1, 0, 0])

    def test_sesquilinear_in_first_argument(self):
        for seed in range(20):
            x = random_vector(4, seed)
            y = random_vector(4, seed + 100)
            z = random_vector(4, seed + 200)
            alpha = 0.7 - 1.9j
            lhs = inner(alpha * x + z, y)
            rhs = np.conj(alpha) * inner(x, y) + inner(z, y)
            assert abs(lhs - rhs) < 1e-10

    def test_linear_in_second_argument(self):
        x = random_vector(5, 7)
        y = random_vector(5, 8)
        z = random_vector(5, 9)
        alpha = -1.2 + 0.4j
        assert inner(x, alpha * y + z) == pytest.approx(
            alpha * inner(x, y) + inner(x, z), abs=1e-10
        )


class TestPolarization:
    def test_orthogonal_pair(self):
        assert polarization_inner([1, 0], [0, 1]) == pytest.approx(0, abs=1e-12)

    def test_self_pair(self):
        assert polarization_inner([1, 0], [1, 0]) == pytest.approx(1, abs=1e-12)

    def test_matches_inner_on_seeded_pairs(self):
        x = random_vector(4, 11)
        y = random_vector(4, 12)
        assert abs(polarization_inner(x, y) - inner(x, y)) < 1e-10

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_identity_across_dims(self, dim):
        for trial in range(50):
            x = random_vector(dim, 1000 * dim + trial)
            y = random_vector(dim, 2000 * dim + trial)
            assert abs(polarization_inner(x, y) - inner(x, y)) < 1e-10

    def test_r_symmetry(self):
        for trial in range(100):
            x = random_vector(5, trial)
            y = random_vector(5, trial + 500)
            assert abs(polarization_r(x, y) - polarization_r(y, x)) < 1e-10
            assert abs(polarization_r(x, 1j * y) + polarization_r(1j * x, y)) < 1e-10


class TestOrthonormalize:
    def test_dependent_vectors_collapse(self):
        q = orthonormalize([np.array([1, 0]), np.array([2, 0])])
        assert q.shape == (2, 1)
        assert np.allclose(np.abs(q[:, 0]), [1, 0])

    def test_orthonormal_input_kept(self):
        s = 1 / np.sqrt(2)
        q = orthonormalize([np.array([s, s]), np.array([s, -s])])
        assert q.shape == (2, 2)
        assert np.linalg.norm(q.conj().T @ q - np.eye(2)) < 1e-12

    def test_projector_matches_pairwise_oracle(self):
        vectors = [random_vector(3, 300 + k) for k in range(5)]
        mine = orthonormalize(vectors)
        oracle = pairwise_gs(vectors)
        assert mine.shape[1] == 3
        p1 = mine @ mine.conj().T
        p2 = oracle @ oracle.conj().T
        assert np.linalg.norm(p1 - p2) < 1e-10
        # rank-deficient and mixed-scale inputs (scales 1e-3 .. 1e3)
        for d in (2, 3, 5, 8, 16):
            for r in range(1, d + 1):
                seed = 1000 * d + 10 * r
                frame = np.column_stack([random_vector(d, seed + j) for j in range(r)])
                for n in (r, r + 2):
                    combos = [frame @ random_vector(r, seed + 100 + k) for k in range(n)]
                    scaled = [10.0 ** (k % 7 - 3) * v for k, v in enumerate(combos)]
                    for vectors in (combos, scaled):
                        mine, oracle = orthonormalize(vectors), pairwise_gs(vectors)
                        assert mine.shape[1] == oracle.shape[1] == r, (d, r, n)
                        p1 = mine @ mine.conj().T
                        p2 = oracle @ oracle.conj().T
                        assert np.linalg.norm(p1 - p2) < 1e-8, (d, r, n)

    def test_idempotent(self):
        vectors = [random_vector(6, 40 + k) for k in range(4)]
        q1 = orthonormalize(vectors)
        q2 = orthonormalize(q1)
        p1 = q1 @ q1.conj().T
        p2 = q2 @ q2.conj().T
        assert np.linalg.norm(p1 - p2) < 1e-12

    def test_empty_input(self):
        q = orthonormalize(np.zeros((4, 0)))
        assert q.shape == (4, 0)

    def test_deterministic(self):
        vectors = [random_vector(5, 77 + k) for k in range(6)]
        q1 = orthonormalize(vectors)
        q2 = orthonormalize(vectors)
        assert np.array_equal(q1, q2)


class TestRank:
    def test_zero_matrix(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert rank(np.eye(3)) == 3

    def test_outer_product_is_rank_one(self):
        x = random_vector(4, 1)
        y = random_vector(4, 2)
        assert rank(np.outer(x, np.conj(y))) == 1


class TestRandomUnitary:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_unitary(self, d):
        w = random_unitary(d, 42)
        assert np.linalg.norm(w.conj().T @ w - np.eye(d)) < 1e-12

    def test_d1_unimodular(self):
        w = random_unitary(1, 5)
        assert abs(abs(w[0, 0]) - 1) < 1e-12

    def test_determinant_modulus(self):
        w = random_unitary(4, 7)
        assert abs(abs(np.linalg.det(w)) - 1) < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
    def test_triangular_factor_has_positive_diagonal(self, d):
        # W is the Q of the seeded Gaussian G = QR with diag(R) > 0
        rng = np.random.default_rng(42)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        r = random_unitary(d, 42).conj().T @ g
        assert np.linalg.norm(np.tril(r, -1)) < 1e-10
        assert np.all(np.abs(np.diagonal(r).imag) < 1e-10)
        assert np.all(np.diagonal(r).real > 0)

    def test_deterministic_per_seed(self):
        assert np.array_equal(random_unitary(5, 9), random_unitary(5, 9))
        assert not np.allclose(random_unitary(5, 9), random_unitary(5, 10))


# repeated and colliding seeds; seed 2^64 - 1 is the largest one
COLLIDING = np.array([5, 6, 5, 7, 2**64 - 1], dtype=object)


def count_gaussians(monkeypatch) -> list:
    """The (d, seed) of every Gaussian frame drawn from now on, in order."""
    drawn = []
    gaussian = core._gaussian

    def counted(d, seed):
        drawn.append((d, seed))
        return gaussian(d, seed)

    monkeypatch.setattr(core, "_gaussian", counted)
    return drawn


class TestBatchedRandomUnitary:
    @pytest.mark.parametrize("d, distinct", [
        (3, [(3, 5), (3, 6), (3, 7), (3, 2**64 - 1)]),
        # one seed at two sizes is two frames
        (np.array([3, 3, 4, 3, 3]), [(3, 5), (3, 6), (4, 5), (3, 7), (3, 2**64 - 1)]),
    ])
    def test_each_distinct_frame_is_drawn_once(self, monkeypatch, d, distinct):
        drawn = count_gaussians(monkeypatch)
        frames = random_unitary(d, COLLIDING)
        assert drawn == distinct
        keys = list(zip(np.broadcast_to(d, COLLIDING.shape).tolist(), COLLIDING))
        for u, (size, s) in zip(frames, keys):
            assert np.array_equal(u, random_unitary(size, s))
        for i, j in zip(*np.triu_indices(len(keys), 1)):
            assert (frames[i] is frames[j]) == (keys[i] == keys[j])

    def test_no_frame_outlives_a_call(self, monkeypatch):
        drawn = count_gaussians(monkeypatch)
        first = random_unitary(3, COLLIDING)
        second = random_unitary(3, COLLIDING)
        assert len(drawn) == 8
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(first, second))

    def test_shared_frames_are_read_only(self):
        frames = random_unitary(3, COLLIDING)
        assert not any(u.flags.writeable for u in frames)
        with pytest.raises(ValueError):
            frames[0][0, 0] = 0
        assert np.array_equal(frames[2], random_unitary(3, 5))


class TestTolerance:
    def test_defaults_ordered(self):
        assert 0 < DEFAULT_TOL.eps_rank < DEFAULT_TOL.eps_eq < 1

    def test_rejects_bad_ordering(self):
        for eps_eq in (0.0, 1.0, -1e-8, 2.0, float("nan")):
            with pytest.raises(ValueError):
                Tolerance(eps_eq=eps_eq)

    def test_eps_rank_is_derived_from_eps_eq(self):
        for eps_eq in (1e-14, 1e-12, 1e-3, 0.5):
            assert Tolerance(eps_eq=eps_eq).eps_rank == eps_eq / 10
        assert DEFAULT_TOL.eps_rank == 1e-9 and DEFAULT_TOL.eps_eq == 1e-8

    def test_eps_eq_is_the_only_setting(self):
        assert [f.name for f in dataclasses.fields(Tolerance)] == ["eps_eq"]
        with pytest.raises(TypeError):
            Tolerance(eps_prob=1e-10)


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(orthologic.__path__):
        module = importlib.import_module(f"orthologic.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []


def test_subseeds_are_the_subseeds_of_each_trial():
    for base in (0, 17, 2**64 - 1):
        seeds = subseeds(base, "axiom2", 5)
        assert seeds.dtype == object and seeds.shape == (5,)
        assert all(type(s) is int for s in seeds)
        assert list(seeds) == [subseed(base, "axiom2", t) for t in range(5)]
    assert subseeds(3, "mmorph", 0).shape == (0,)
    assert list(subseeds(3, "mmorph", 4)) != list(subseeds(3, "axiom3", 4))
