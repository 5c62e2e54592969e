"""Core linear algebra: inner products, orthonormalization, random unitaries."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import orthologic
from orthologic import cli, core
from orthologic.core import (
    DEFAULT_TOL,
    Tolerance,
    inner,
    orthonormalize,
    random_unitary,
    random_vector,
    rank,
    trial_generators,
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


def polarization_r(x, y):
    """Independent oracle: R(x, y) = (||x + y||^2 - ||x - y||^2) / 4, the
    real part of the inner product, from norms alone."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    return (np.linalg.norm(x + y) ** 2 - np.linalg.norm(x - y) ** 2) / 4


def polarization_inner(x, y):
    """The polarization identity R(x, y) - i R(x, iy): the inner product
    that is conjugate-linear in its first argument."""
    return polarization_r(x, y) - 1j * polarization_r(x, 1j * np.asarray(y, dtype=complex))


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
    """core.inner agrees with the polarization identity, which fixes its
    conjugate-linear-first convention from norms alone."""

    def test_orthogonal_pair(self):
        assert polarization_inner([1, 0], [0, 1]) == pytest.approx(0, abs=1e-12)
        assert inner([1, 0], [0, 1]) == 0

    def test_self_pair(self):
        assert polarization_inner([1j, 0], [1j, 0]) == pytest.approx(1, abs=1e-12)
        assert inner([1j, 0], [1j, 0]) == pytest.approx(1, abs=1e-12)

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
            assert abs(polarization_r(x, y) - inner(x, y).real) < 1e-10


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


# repeated seeds; seed 2^64 - 1 is the largest one
REPEATED = np.array([5, 6, 5, 7, 2**64 - 1], dtype=object)


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
    @pytest.mark.parametrize("d", [3, np.array([3, 3, 4, 3, 3])])
    def test_each_element_draws_its_own_frame(self, monkeypatch, d):
        drawn = count_gaussians(monkeypatch)
        frames = random_unitary(d, REPEATED)
        keys = list(zip(np.broadcast_to(d, REPEATED.shape).tolist(), REPEATED))
        assert drawn == keys
        for u, (size, s) in zip(frames, keys):
            assert u.flags.writeable and np.array_equal(u, random_unitary(size, s))
        assert len({id(u) for u in frames}) == len(frames)

    def test_a_generator_draws_its_frames_in_element_order(self):
        # one generator handed to three elements draws three frames in turn,
        # as it does call by call
        rng = np.random.default_rng(11)
        frames = random_unitary(np.array([3, 4, 3]), np.array([rng] * 3, dtype=object))
        again = np.random.default_rng(11)
        for u, size in zip(frames, (3, 4, 3)):
            assert np.array_equal(u, random_unitary(size, again))
        assert not np.allclose(frames[0], frames[2])


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


SRC = str(Path(orthologic.__file__).resolve().parent.parent)


def fresh_python(*args):
    """Run the interpreter on args with src first on sys.path; the result."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


def loaded_by(statement):
    """The orthologic modules a fresh interpreter holds after statement."""
    done = fresh_python("-c", f"import sys; {statement}; print(sorted("
                        "m for m in sys.modules if m.split('.')[0] == 'orthologic'))")
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.decode())


# the package root re-exports nothing, so it loads no submodule; the
# classical layer needs no subspace or oscillator, and the oscillator's
# phase curve, which reads its model, lives with the model
@pytest.mark.parametrize("module, loaded", [
    ("orthologic", ["orthologic"]),
    ("orthologic.core", ["orthologic", "orthologic.core", "orthologic.errors"]),
    ("orthologic.classical", ["orthologic", "orthologic.classical", "orthologic.errors"]),
    ("orthologic.oscillator", ["orthologic", "orthologic.core", "orthologic.errors",
                               "orthologic.oscillator", "orthologic.subspace"]),
])
def test_an_import_loads_only_the_modules_it_uses(module, loaded):
    assert loaded_by(f"import {module}") == loaded


def test_the_module_entry_point_writes_the_report_of_main(capsys):
    argv = ["lattice-check", "--dim1", "3", "--trials", "5", "--seed", "1"]
    done = fresh_python("-m", "orthologic", *argv)
    assert done.returncode == 0, done.stderr
    assert cli.main(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode("utf-8")


def test_trial_generators_are_keyed_by_seed_name_and_trial():
    for base in (0, 17, 2**64 - 1):
        rngs = trial_generators(base, "axiom2", 5)
        assert rngs.dtype == object and rngs.shape == (5,)
        keyed = [np.random.default_rng([base, zlib.crc32(b"axiom2"), t]) for t in range(5)]
        assert [r.integers(2**63) for r in rngs] == [r.integers(2**63) for r in keyed]
    assert trial_generators(3, "mmorph", 0).shape == (0,)
    # the seed is taken mod 2^64
    (wrapped,), (largest,) = (trial_generators(s, "mmorph", 1) for s in (-1, 2**64 - 1))
    assert wrapped.random() == largest.random()


def test_distinct_keys_give_distinct_streams():
    # XOR-ing the trial index into the seed made (s, t) and (s ^ 1, t ^ 1)
    # one stream, so seeds 0 and 1 checked the same instances
    firsts = {}
    for seed in range(8):
        for name in ("lattice-om", "lattice-dist", "axiom3"):
            for t, rng in enumerate(trial_generators(seed, name, 8)):
                firsts[seed, name, t] = tuple(rng.integers(2**63, size=2).tolist())
    assert len(set(firsts.values())) == len(firsts) == 8 * 3 * 8
