"""Oscillator model and the projection-valued truth assignment."""

import numpy as np
import pytest

from orthologic.classical import ClassicalProp, PhaseSpace
from orthologic.composite import build_basis_map, canonical_h, sweep_axioms
from orthologic.errors import InvalidIndex, InvalidParameter, ZeroState
from orthologic.oscillator import (
    OscillatorModel,
    energies,
    hermite_eigenfunction,
    ladder_operators,
    proposition_from_eigenstates,
)
from orthologic.subspace import equal, full_subspace, ortho, span_of, zero_subspace
from orthologic.tensor import riesz
from orthologic.truth import EPS_PROB, TruthValue, truth_value


@pytest.fixture(scope="module")
def model():
    return OscillatorModel(n_max=8)


class TestLadderOperators:
    def test_number_annihilates_ground_state(self, model):
        _, _, number, _ = ladder_operators(model)
        e0 = np.zeros(model.levels)
        e0[0] = 1.0
        assert np.linalg.norm(number @ e0) == 0

    def test_hamiltonian_eigenvalues(self, model):
        _, _, _, hamiltonian = ladder_operators(model)
        expected = energies(model)
        for n in range(model.levels):
            e = np.zeros(model.levels)
            e[n] = 1.0
            assert np.allclose(hamiltonian @ e, expected[n] * e)

    def test_energy_spacing(self):
        m = OscillatorModel(n_max=5, hbar=2.0, omega0=3.0)
        expected = 2.0 * 3.0 * (np.arange(6) + 0.5)
        assert np.allclose(energies(m), expected)

    def test_commutator_identity_below_truncation(self, model):
        a, adag, _, _ = ladder_operators(model)
        commutator = a @ adag - adag @ a
        block = commutator[: model.n_max, : model.n_max]
        assert np.linalg.norm(block - np.eye(model.n_max)) < 1e-12

    def test_number_from_ladder_product(self, model):
        a, adag, number, _ = ladder_operators(model)
        assert np.linalg.norm(adag @ a - number) < 1e-12

    def test_hamiltonian_hermitian_real_diagonal(self, model):
        _, _, _, hamiltonian = ladder_operators(model)
        assert np.linalg.norm(hamiltonian - hamiltonian.conj().T) == 0
        assert np.all(np.abs(np.diag(hamiltonian).imag) == 0)


class TestHermiteEigenfunctions:
    def test_ground_state_is_positive_gaussian(self, model):
        psi0 = hermite_eigenfunction(model, 0)
        assert np.all(psi0 > 0)
        peak = (model.mass * model.omega0 / (np.pi * model.hbar)) ** 0.25
        mid = len(model.grid) // 2
        assert psi0[mid] == pytest.approx(peak, rel=1e-12)

    def test_quadrature_orthonormality(self, model):
        functions = [hermite_eigenfunction(model, n) for n in range(9)]
        for i in range(9):
            for j in range(9):
                overlap = float(np.sum(functions[i] * functions[j] * model.weights))
                expected = 1.0 if i == j else 0.0
                assert abs(overlap - expected) < 1e-6

    def test_parity(self, model):
        for n in range(6):
            psi = hermite_eigenfunction(model, n)
            assert np.allclose(psi[::-1], (-1) ** n * psi, atol=1e-12)

    def test_index_out_of_range(self, model):
        with pytest.raises(InvalidIndex):
            hermite_eigenfunction(model, model.n_max + 1)

    def test_dimensionful_parameters_keep_normalization(self):
        m = OscillatorModel(n_max=4, hbar=1.3, mass=0.7, omega0=2.1)
        for n in range(5):
            psi = hermite_eigenfunction(m, n)
            assert float(np.sum(psi * psi * m.weights)) == pytest.approx(1.0, abs=1e-6)


class TestModelValidation:
    def test_truncation_floor(self):
        with pytest.raises(InvalidParameter):
            OscillatorModel(n_max=1)

    def test_grid_symmetric(self, model):
        assert np.allclose(model.grid, -model.grid[::-1])

    def test_grid_is_not_settable(self):
        # the grid and its weights are derived from the parameters alone
        for name in ("grid", "weights"):
            with pytest.raises(TypeError):
                OscillatorModel(n_max=3, **{name: np.linspace(-1, 1, 5)})


class TestEigenstatePropositions:
    def test_ground_state_ray(self):
        p = proposition_from_eigenstates({0}, 6)
        assert p.dim == 1
        assert p.contains(np.eye(6)[0])

    def test_two_level_proposition(self):
        p = proposition_from_eigenstates({0, 1}, 6)
        assert p.dim == 2

    def test_complement_is_remaining_levels(self):
        p = proposition_from_eigenstates({0}, 5)
        rest = proposition_from_eigenstates({1, 2, 3, 4}, 5)
        assert np.allclose(ortho(p).projector(), rest.projector())

    def test_no_levels_give_the_zero_subspace(self):
        p = proposition_from_eigenstates(set(), 5)
        assert p.dim == 0
        assert equal(p, zero_subspace(5))

    def test_bad_index(self):
        with pytest.raises(InvalidIndex):
            proposition_from_eigenstates({7}, 5)

    def test_ground_ray_projector_is_rank_one_outer_product(self):
        p = proposition_from_eigenstates({0}, 4)
        e0 = np.eye(4)[0]
        assert np.allclose(p.projector(), np.outer(e0, e0))


class TestTruthValue:
    def test_state_inside_proposition(self):
        q = proposition_from_eigenstates({0, 1}, 5)
        tv = truth_value(np.eye(5)[0], q)
        assert tv.value == pytest.approx(1.0)
        assert tv.classification == "true"

    def test_state_in_complement(self):
        q = proposition_from_eigenstates({0}, 5)
        tv = truth_value(np.eye(5)[3], q)
        assert tv.value == pytest.approx(0.0)
        assert tv.classification == "false"

    def test_superposition_three_quarters(self):
        dim = 9
        state = np.zeros(dim, dtype=complex)
        state[0] = np.sqrt(3 / 4)
        state[1] = np.sqrt(1 / 4)
        q = proposition_from_eigenstates({0}, dim)
        tv = truth_value(state, q)
        assert abs(tv.value - 0.75) < 1e-12
        assert tv.classification == "probabilistic"
        complement = truth_value(state, ortho(q))
        assert abs(complement.value - 0.25) < 1e-12

    def test_complement_values_sum_to_one(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            state = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            q = span_of([rng.standard_normal(6) + 1j * rng.standard_normal(6)])
            total = truth_value(state, q).value + truth_value(state, ortho(q)).value
            assert abs(total - 1.0) < 1e-10

    def test_global_phase_invariance(self):
        state = np.array([0.6, 0.8j, 0.0], dtype=complex)
        q = span_of([np.eye(3)[0]])
        v1 = truth_value(state, q).value
        v2 = truth_value(np.exp(1j * 0.83) * state, q).value
        assert abs(v1 - v2) < 1e-12

    def test_unnormalized_states_are_normalized_first(self):
        state = np.array([3.0, 4.0], dtype=complex)
        q = span_of([np.eye(2)[0]])
        assert truth_value(state, q).value == pytest.approx(9 / 25)

    def test_coefficient_probability_rule(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            c = c / np.linalg.norm(c)
            n = trial % 7
            q = proposition_from_eigenstates({n}, 7)
            assert abs(truth_value(c, q).value - abs(c[n]) ** 2) < 1e-12

    def test_zero_state_rejected(self):
        q = span_of([np.eye(3)[0]])
        with pytest.raises(ZeroState):
            truth_value(np.zeros(3), q)

    def test_classification_thresholds(self):
        assert TruthValue.classify(0.0).classification == "false"
        assert TruthValue.classify(1.0).classification == "true"
        assert TruthValue.classify(0.5).classification == "probabilistic"
        assert TruthValue.classify(EPS_PROB / 2).classification == "false"
        assert TruthValue.classify(2 * EPS_PROB).classification == "probabilistic"
        assert TruthValue.classify(1.0 - EPS_PROB / 2).classification == "true"


@pytest.mark.parametrize("make", [
    lambda: span_of([[1.0, 0.0]]),
    lambda: full_subspace(3),
    lambda: OscillatorModel(n_max=3),
    lambda: build_basis_map(canonical_h(1, 3, 3), canonical_h(2, 3, 3)),
    lambda: sweep_axioms(canonical_h(1, 3, 3), canonical_h(2, 3, 3), 2),
    lambda: riesz([1, 2j, 3]),
    lambda: ClassicalProp(PhaseSpace(("u", "v")), np.array([[1, 2], [3, 0]])),
    lambda: ClassicalProp(PhaseSpace(("u", "v")), 3),
])
def test_array_holding_dataclasses_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True and (a != b) is True
    assert hash(a) == hash(a) and isinstance(hash(b), int)
    assert len({a, b, a}) == 2
