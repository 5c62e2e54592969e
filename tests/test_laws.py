"""Lattice-law checkers: distributivity, orthomodularity, compatibility."""

import numpy as np
import pytest

from orthologic.classical import PhaseSpace, all_props
from orthologic.core import random_vector
from orthologic.errors import PreconditionViolated
from orthologic.laws import (
    check_covering,
    check_distributive,
    check_foulis_distributivity,
    check_orthomodular,
    check_triple_distributive,
    commuting_projectors,
    compatible,
    compatible_second_criterion,
    is_modular_pair,
    nondistributivity_witness,
)
from orthologic.subspace import (
    Ray,
    Subspace,
    compatible_pair,
    equal,
    full_subspace,
    join,
    meet,
    ortho,
    projector_distance,
    random_subspace,
    span_of,
    subspace_from_json,
    zero_subspace,
)
from orthologic.core import random_unitary

E3 = np.eye(3, dtype=complex)


def nested_pair(d, seed):
    rng = np.random.default_rng(seed)
    kq = int(rng.integers(1, d + 1))
    q = random_subspace(d, kq, seed)
    kp = int(rng.integers(1, kq + 1))
    coeffs = rng.standard_normal((kq, kp)) + 1j * rng.standard_normal((kq, kp))
    p = span_of(list((q.basis @ coeffs).T))
    return p, q


class TestDistributive:
    def test_trivial_equal_triple_holds(self):
        p = random_subspace(3, 2, 1)
        assert check_distributive(p, p, p).holds

    def test_generic_subspace_triple_fails(self):
        # a skew ray against the two coordinate rays it mixes
        a = span_of([E3[0] + E3[1]])
        b = span_of([E3[0]])
        c = span_of([E3[1]])
        report = check_distributive(a, b, c)
        assert not report.holds
        assert report.counterexample is not None
        # the recorded sides rebuild to genuinely different subspaces
        left = subspace_from_json(report.counterexample["left"])
        right = subspace_from_json(report.counterexample["right"])
        assert not equal(left, right)

    def test_counterexample_is_recheckable(self):
        a = span_of([E3[0] + E3[1]])
        b = span_of([E3[0]])
        c = span_of([E3[1]])
        report = check_distributive(a, b, c)
        rebuilt = {
            name: subspace_from_json(data)
            for name, data in report.counterexample["inputs"].items()
        }
        again = check_distributive(rebuilt["a"], rebuilt["b"], rebuilt["c"])
        assert not again.holds

    def test_classical_triples_always_hold(self):
        space = PhaseSpace(("u", "v", "w"))
        props = list(all_props(space))
        for a in props:
            for b in props:
                for c in props:
                    assert check_distributive(a, b, c).holds

    def test_mutually_compatible_coordinate_triple_holds(self):
        # coordinate subspaces generate a distributive sublattice, so the
        # law holds on them in every arrangement
        p1 = span_of([E3[0]])
        p2 = span_of([E3[1]])
        p3 = span_of([E3[1], E3[2]])
        for triple in [(p1, p2, p3), (p3, p1, p2), (p2, p3, p1)]:
            assert check_distributive(*triple).holds


class TestNondistributivityWitness:
    def test_reproduces_worked_configuration(self):
        report = nondistributivity_witness()
        assert not report.holds
        left = subspace_from_json(report.counterexample["left"])
        right = subspace_from_json(report.counterexample["right"])
        assert equal(left, span_of([E3[1], E3[2]]))
        assert equal(right, span_of([E3[0], E3[1]]))
        assert projector_distance(left, right) > 0.5
        assert report.detail == {"left_dim": 2, "right_dim": 2}

    def test_left_side_contains_third_vector_right_side_first(self):
        report = nondistributivity_witness()
        left = subspace_from_json(report.counterexample["left"])
        right = subspace_from_json(report.counterexample["right"])
        assert left.contains(E3[2]) and not right.contains(E3[2])
        assert right.contains(E3[0]) and not left.contains(E3[0])


class TestOrthomodular:
    def test_equal_pair(self):
        p = random_subspace(4, 2, 2)
        assert check_orthomodular(p, p).holds

    def test_zero_below_anything(self):
        q = random_subspace(4, 2, 3)
        assert check_orthomodular(zero_subspace(4), q).holds

    def test_seeded_nested_pairs(self):
        for seed in range(200):
            p, q = nested_pair(5, seed)
            report = check_orthomodular(p, q)
            assert report.holds, f"orthomodularity failed at seed {seed}"

    def test_not_applicable_when_not_nested(self):
        p = span_of([E3[0] + E3[1]])
        q = span_of([E3[0]])
        report = check_orthomodular(p, q)
        assert report.holds and not report.applicable

    def test_classical_pairs(self):
        space = PhaseSpace(("a", "b", "c", "d"))
        props = list(all_props(space))
        for p in props:
            for q in props:
                assert check_orthomodular(p, q).holds


def mixed_pair(d, mode, seed):
    rng = np.random.default_rng(seed)
    if mode == 0:  # compatible by construction: common unitary frame
        frame = random_unitary(d, seed)
        k1 = int(rng.integers(1, d + 1))
        k2 = int(rng.integers(1, d + 1))
        cols1 = sorted(rng.permutation(d)[:k1].tolist())
        cols2 = sorted(rng.permutation(d)[:k2].tolist())
        return Subspace(d, frame[:, cols1]), Subspace(d, frame[:, cols2])
    if mode == 1:  # complement pair
        p = random_subspace(d, int(rng.integers(1, d)), seed)
        return p, ortho(p)
    if mode == 2:  # nested pair
        return nested_pair(d, seed)
    p = random_subspace(d, int(rng.integers(1, d)), seed)
    q = random_subspace(d, int(rng.integers(1, d)), seed + 1)
    return p, q


class TestCompatibility:
    def test_complement_is_compatible(self):
        p = random_subspace(4, 2, 5)
        assert compatible(p, ortho(p))

    def test_full_space_compatible_with_everything(self):
        p = random_subspace(4, 2, 6)
        assert compatible(p, full_subspace(4))
        assert compatible(full_subspace(4), p)

    def test_skew_rays_incompatible(self):
        a = span_of([E3[0]])
        b = span_of([(E3[0] + E3[1]) / np.sqrt(2)])
        assert not compatible(a, b)
        pa, pb = a.projector(), b.projector()
        assert np.linalg.norm(pa @ pb - pb @ pa) > 0.1

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8])
    def test_compatible_pair_sampler_is_compatible(self, d):
        for seed in range(200):
            p, q = compatible_pair(d, seed)
            pp, pq = p.projector(), q.projector()
            assert np.linalg.norm(pp @ pq - pq @ pp) < 1e-10
            assert compatible(p, q)
            assert compatible_second_criterion(p, q)
            assert commuting_projectors(p, q)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_criteria_and_commutator_oracle_agree(self, d):
        for trial in range(120):
            p, q = mixed_pair(d, trial % 4, 1000 * d + trial)
            c1 = compatible(p, q)
            c2 = compatible_second_criterion(p, q)
            c3 = commuting_projectors(p, q)
            assert c1 == c2 == c3, f"disagreement at d={d}, trial={trial}"

    def test_nontrivial_elements_admit_incompatible_partner(self):
        # irreducibility spot check: only 0 and the full space commute
        # with everything, so a proper subspace has a skew partner
        for seed in range(10):
            p = random_subspace(4, 1 + seed % 3, seed)
            partner_vec = p.basis[:, 0] + 0.5 * ortho(p).basis[:, 0]
            partner = span_of([partner_vec])
            assert not compatible(p, partner)


class TestFoulisDistributivity:
    def test_family_of_self(self):
        b = random_subspace(4, 2, 7)
        report = check_foulis_distributivity(b, [b])
        assert report.holds and report.applicable

    def test_orthogonal_coordinate_rays_against_plane(self):
        e = np.eye(4, dtype=complex)
        b = span_of([e[0], e[1]])
        family = [span_of([e[k]]) for k in range(4)]
        report = check_foulis_distributivity(b, family)
        assert report.holds and report.applicable

    def test_zero_family(self):
        b = random_subspace(4, 2, 8)
        report = check_foulis_distributivity(b, [zero_subspace(4)])
        assert report.holds

    def test_incompatible_family_not_applicable(self):
        b = span_of([E3[0]])
        family = [span_of([E3[0] + E3[1]])]
        report = check_foulis_distributivity(b, family)
        assert not report.applicable


class TestTripleDistributive:
    def test_coordinate_subspaces(self):
        p1 = span_of([E3[0]])
        p2 = span_of([E3[1]])
        p3 = span_of([E3[1], E3[2]])
        report = check_triple_distributive(p1, p2, p3)
        assert report.holds and report.applicable

    def test_one_element_compatible_with_both(self):
        # the full space is compatible with anything, so the triple
        # hypothesis holds and all six identities must follow
        a = full_subspace(3)
        b = random_subspace(3, 1, 9)
        c = random_subspace(3, 2, 10)
        report = check_triple_distributive(a, b, c)
        assert report.applicable
        assert report.holds

    def test_generic_triple_not_applicable(self):
        a = span_of([E3[0] + 0.3 * E3[1]])
        b = span_of([E3[1] + 0.7 * E3[2]])
        c = span_of([E3[0] + 0.2 * E3[2]])
        report = check_triple_distributive(a, b, c)
        assert not report.applicable


class TestCovering:
    def test_zero_base(self):
        ray = Ray.from_vector(random_vector(4, 3))
        report = check_covering(ray, zero_subspace(4))
        assert report.holds
        assert report.detail["dim_join"] == 1

    def test_coordinate_plane_plus_coordinate_ray(self):
        e = np.eye(4, dtype=complex)
        report = check_covering(Ray.from_vector(e[2]), span_of([e[0], e[1]]))
        assert report.holds
        assert report.detail["dim_join"] == 3

    def test_generic_instance(self):
        a = random_subspace(5, 2, 11)
        ray = Ray.from_vector(random_vector(5, 12))
        report = check_covering(ray, a)
        assert report.holds
        assert report.detail["dim_join"] == 3

    def test_precondition(self):
        e = np.eye(3, dtype=complex)
        a = span_of([e[0], e[1]])
        with pytest.raises(PreconditionViolated):
            check_covering(Ray.from_vector(e[0]), a)


class TestModularPairs:
    def test_r_equals_q_reduces_to_q(self):
        p = random_subspace(4, 2, 13)
        q = random_subspace(4, 2, 14)
        assert equal(meet(join(p, q), q), q)
        assert equal(join(meet(p, q), q), q)

    def test_r_zero_reduces_to_meet(self):
        p = random_subspace(4, 2, 15)
        q = random_subspace(4, 3, 16)
        z = zero_subspace(4)
        assert equal(meet(join(p, z), q), meet(p, q))

    def test_sampled_pairs_modular(self):
        for seed in range(20):
            p = random_subspace(4, 1 + seed % 3, seed)
            q = random_subspace(4, 1 + (seed + 1) % 3, seed + 30)
            report = is_modular_pair(p, q, samples=10, seed=seed)
            assert report.holds
            assert report.worst_residual < 1e-8
