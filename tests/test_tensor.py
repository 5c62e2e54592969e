"""Tensor products, duals via the conjugate-linear pairing, separability."""

import numpy as np
import pytest

from orthologic.core import inner, random_unitary, random_vector
from orthologic.errors import DimensionMismatch, ZeroState
from orthologic.tensor import (
    DualVector,
    TensorIndex,
    dual_inner,
    elementary_tensor,
    is_separable,
    product_state_probability,
    riesz,
    riesz_inverse,
)


class TestRiesz:
    def test_coordinate_vector_maps_to_unit_coordinates(self):
        f = riesz(np.eye(3)[0])
        assert np.allclose(f.coordinates, np.eye(3)[0])

    def test_conjugate_linear_first_slot(self):
        f = riesz(1j * np.eye(2)[0])
        assert f(np.eye(2)[0]) == pytest.approx(-1j)

    def test_evaluation_matches_inner(self):
        x = random_vector(5, 1)
        y = random_vector(5, 2)
        assert abs(riesz(x)(y) - inner(x, y)) < 1e-12

    def test_inverse(self):
        x = random_vector(4, 3)
        assert np.allclose(riesz_inverse(riesz(x)), x)

    def test_norm_preserving(self):
        for seed in range(20):
            x = random_vector(6, seed)
            f = riesz(x)
            assert np.linalg.norm(f.coordinates) == pytest.approx(np.linalg.norm(x))


class TestDualInner:
    def test_dual_basis_orthonormal(self):
        e = [riesz(np.eye(3)[k]) for k in range(3)]
        assert dual_inner(e[0], e[0]) == pytest.approx(1)
        assert dual_inner(e[0], e[1]) == pytest.approx(0)

    def test_matches_pullback_oracle(self):
        f = riesz(random_vector(4, 7))
        g = riesz(random_vector(4, 8))
        oracle = inner(riesz_inverse(g), riesz_inverse(f))
        assert abs(dual_inner(f, g) - oracle) < 1e-12

    def test_antilinear_in_first_argument(self):
        f = riesz(random_vector(3, 9))
        g = riesz(random_vector(3, 10))
        lam = 0.3 - 1.4j
        scaled = DualVector(lam * f.coordinates)
        assert dual_inner(scaled, g) == pytest.approx(np.conj(lam) * dual_inner(f, g))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dual_inner(riesz([1, 0]), riesz([1, 0, 0]))


class TestElementaryTensor:
    IDX = TensorIndex(3, 4)

    def test_unit_coordinate_position(self):
        t = elementary_tensor(np.eye(3)[0], np.eye(4)[1], self.IDX)
        expected = np.zeros(12)
        expected[self.IDX.flatten(0, 1)] = 1.0
        assert np.allclose(t, expected)

    def test_bilinear_scaling(self):
        x = random_vector(3, 1)
        y = random_vector(4, 2)
        alpha = 1.2 - 0.7j
        assert np.allclose(
            elementary_tensor(alpha * x, y, self.IDX),
            alpha * elementary_tensor(x, y, self.IDX),
        )

    def test_inner_product_factorizes(self):
        x1, x2 = random_vector(3, 3), random_vector(3, 4)
        y1, y2 = random_vector(4, 5), random_vector(4, 6)
        joint = inner(
            elementary_tensor(x1, y1, self.IDX), elementary_tensor(x2, y2, self.IDX)
        )
        assert abs(joint - inner(x1, x2) * inner(y1, y2)) < 1e-12

    def test_dual_first_factor(self):
        idx = TensorIndex(3, 4, dual_first_factor=True)
        f = riesz(random_vector(3, 11))
        y = random_vector(4, 12)
        t = elementary_tensor(f, y, idx)
        assert np.allclose(t.reshape(3, 4), np.outer(f.coordinates, y))

    def test_flattening_is_isometric(self):
        v = random_vector(12, 13)
        assert np.linalg.norm(self.IDX.coefficient_matrix(v)) == pytest.approx(
            np.linalg.norm(v)
        )

    def test_index_bijection(self):
        seen = set()
        for i in range(self.IDX.d1):
            for j in range(self.IDX.d2):
                seen.add(self.IDX.flatten(i, j))
                assert self.IDX.unflatten(self.IDX.flatten(i, j)) == (i, j)
        assert seen == set(range(self.IDX.dim))

    def test_product_basis_gram_is_kronecker_delta(self):
        # the tensor inner product makes {e_i (x) f_j} an orthonormal set
        basis = [
            elementary_tensor(np.eye(3)[i], np.eye(4)[j], self.IDX)
            for i in range(3)
            for j in range(4)
        ]
        gram = np.array([[inner(u, v) for v in basis] for u in basis])
        assert np.linalg.norm(gram - np.eye(12)) < 1e-12


class TestSeparability:
    IDX = TensorIndex(2, 2)

    def test_elementary_tensor_is_separable(self):
        t = elementary_tensor(random_vector(2, 1), random_vector(2, 2), self.IDX)
        separable, schmidt = is_separable(t, self.IDX)
        assert separable and schmidt == 1

    def test_swap_superposition_is_entangled(self):
        e, f = np.eye(2), np.eye(2)
        t = (
            elementary_tensor(e[0], f[1], self.IDX)
            + elementary_tensor(e[1], f[0], self.IDX)
        ) / np.sqrt(2)
        separable, schmidt = is_separable(t, self.IDX)
        assert not separable and schmidt == 2
        # 2x2 coefficient determinant oracle: nonzero iff rank 2
        assert abs(np.linalg.det(self.IDX.coefficient_matrix(t))) > 0.1

    def test_common_factor_collapses_to_rank_one(self):
        e, f = np.eye(2), np.eye(2)
        t = elementary_tensor(e[0], f[0], self.IDX) + elementary_tensor(
            e[0], f[1], self.IDX
        )
        separable, schmidt = is_separable(t, self.IDX)
        assert separable and schmidt == 1

    def test_schmidt_rank_invariant_under_local_unitaries(self):
        idx = TensorIndex(3, 3)
        for seed in range(10):
            v = random_vector(9, seed)
            _, schmidt = is_separable(v, idx)
            w = np.kron(random_unitary(3, seed + 100), random_unitary(3, seed + 200)) @ v
            _, schmidt_w = is_separable(w, idx)
            assert schmidt == schmidt_w

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroState):
            is_separable(np.zeros(4), self.IDX)


class TestProductStateProbability:
    def normalized(self, d, seed):
        v = random_vector(d, seed)
        return v / np.linalg.norm(v)

    def test_total_mass_is_one(self):
        psi1 = self.normalized(3, 1)
        psi2 = self.normalized(4, 2)
        mass = product_state_probability(psi1, psi2, range(3), range(4))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_empty_box_has_zero_mass(self):
        psi1 = self.normalized(3, 3)
        psi2 = self.normalized(4, 4)
        assert product_state_probability(psi1, psi2, range(3), []) == 0.0

    def test_factorizes_into_marginals(self):
        for seed in range(20):
            psi1 = self.normalized(4, seed)
            psi2 = self.normalized(5, seed + 50)
            rng = np.random.default_rng(seed)
            b1 = [int(i) for i in rng.permutation(4)[: 1 + seed % 3]]
            b2 = [int(j) for j in rng.permutation(5)[: 1 + seed % 4]]
            joint = product_state_probability(psi1, psi2, b1, b2)
            marginal1 = sum(abs(psi1[i]) ** 2 for i in b1)
            marginal2 = sum(abs(psi2[j]) ** 2 for j in b2)
            assert abs(joint - marginal1 * marginal2) < 1e-12

    def test_out_of_range_indices_rejected(self):
        psi1 = self.normalized(3, 7)
        psi2 = self.normalized(3, 8)
        with pytest.raises(DimensionMismatch):
            product_state_probability(psi1, psi2, [5], [0])
