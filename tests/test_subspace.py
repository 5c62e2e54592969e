"""Subspace lattice: span, meet, join, complement, ordering, atoms."""

import numpy as np
import pytest

from orthologic.errors import DimensionMismatch, InvalidDimension
from orthologic.subspace import (
    Ray,
    Subspace,
    equal,
    full_subspace,
    is_atom,
    join,
    leq,
    meet,
    ortho,
    projector_distance,
    random_subspace,
    span_of,
    subspace_from_json,
    subspace_to_json,
    zero_subspace,
)

E3 = np.eye(3, dtype=complex)


def nullspace_meet_oracle(p, q, tol=1e-9):
    """Independent meet: SVD null space of the stacked complement projectors."""
    d = p.ambient_dim
    top = np.eye(d) - p.projector()
    bottom = np.eye(d) - q.projector()
    stacked = np.vstack([top, bottom])
    _, s, vh = np.linalg.svd(stacked)
    null_rows = [vh[k] for k in range(d) if (s[k] if k < len(s) else 0.0) < tol]
    if not null_rows:
        return zero_subspace(d)
    return Subspace(d, np.conj(np.column_stack(null_rows)))


class TestSpan:
    def test_single_vector(self):
        p = span_of([E3[0]])
        assert p.dim == 1 and p.ambient_dim == 3

    def test_column_reduction(self):
        p = span_of([[1, 0, 0], [1, 1, 0]])
        assert p.dim == 2
        assert p.contains([0, 1, 0])

    def test_generating_set_independence(self):
        p = span_of([[1, 0, 0], [0, 1, 0]])
        q = span_of([[1, 1, 0], [1, -1, 0]])
        assert equal(p, q)

    def test_oscillator_superposition_ray(self):
        coeffs = np.zeros(6, dtype=complex)
        coeffs[0] = np.sqrt(3 / 4)
        coeffs[1] = np.sqrt(1 / 4)
        p = span_of([coeffs])
        assert p.dim == 1
        assert p.contains(coeffs)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            span_of([[1, 0], [1, 0, 0]])


class TestMeetJoin:
    def test_meet_idempotent(self):
        p = random_subspace(4, 2, 3)
        assert equal(meet(p, p), p)

    def test_meet_of_distinct_rays_is_zero(self):
        assert meet(span_of([E3[0]]), span_of([E3[1]])).dim == 0

    def test_meet_against_nullspace_oracle(self):
        for seed in range(25):
            p = random_subspace(3, 2, seed)
            q = random_subspace(3, 2, seed + 50)
            m = meet(p, q)
            assert m.dim >= 1
            for k in range(m.dim):
                v = m.basis[:, k]
                assert np.linalg.norm(v - p.projector() @ v) < 1e-8
                assert np.linalg.norm(v - q.projector() @ v) < 1e-8
            assert equal(m, nullspace_meet_oracle(p, q))

    def test_meet_dimension_formula(self):
        p = random_subspace(5, 3, 1)
        q = random_subspace(5, 4, 2)
        assert meet(p, q).dim == p.dim + q.dim - join(p, q).dim

    def test_join_with_zero(self):
        p = random_subspace(4, 2, 9)
        assert equal(join(p, zero_subspace(4)), p)

    def test_join_of_coordinate_rays(self):
        j = join(span_of([E3[0]]), span_of([E3[1]]))
        assert equal(j, span_of([E3[0], E3[1]]))

    def test_eigenstate_pair_joins_to_plane(self):
        # the "in one of two chosen eigenstates" proposition is 2-dim
        j = join(span_of([E3[0]]), span_of([E3[2]]))
        assert j.dim == 2


class TestOrtho:
    def test_ortho_of_full_space(self):
        assert ortho(full_subspace(4)).dim == 0

    def test_ortho_of_coordinate_ray(self):
        o = ortho(span_of([E3[0]]))
        assert equal(o, span_of([E3[1], E3[2]]))

    def test_projector_sum_is_identity(self):
        p = random_subspace(5, 2, 13)
        total = p.projector() + ortho(p).projector()
        assert np.linalg.norm(total - np.eye(5)) < 1e-10

    def test_involution(self):
        p = random_subspace(6, 3, 21)
        assert equal(ortho(ortho(p)), p)


class TestOrderAndEquality:
    def test_zero_below_everything(self):
        q = random_subspace(4, 2, 5)
        assert leq(zero_subspace(4), q)

    def test_ray_below_plane(self):
        assert leq(span_of([E3[0]]), span_of([E3[0], E3[1]]))

    def test_skew_ray_not_below(self):
        assert not leq(span_of([E3[0] + E3[1]]), span_of([E3[0]]))

    def test_leq_agrees_with_join_dimension(self):
        p = random_subspace(5, 2, 31)
        q = random_subspace(5, 3, 32)
        assert leq(p, q) == (join(p, q).dim == q.dim)

    def test_equal_reflexive(self):
        p = random_subspace(4, 2, 8)
        assert equal(p, p)

    def test_perturbed_ray_not_equal(self):
        assert not equal(span_of([E3[0]]), span_of([E3[0] + 1e-3 * E3[1]]))


class TestAtoms:
    def test_coordinate_ray_is_atom(self):
        assert is_atom(span_of([E3[0]]))

    def test_zero_is_not_atom(self):
        assert not is_atom(zero_subspace(3))

    def test_plane_is_not_atom(self):
        assert not is_atom(span_of([E3[0], E3[1]]))

    def test_every_nonzero_subspace_contains_an_atom(self):
        for seed in range(10):
            p = random_subspace(5, 1 + seed % 4, seed)
            atom = span_of([p.basis[:, 0]])
            assert is_atom(atom) and leq(atom, p)

    def test_ray_type_rejects_planes(self):
        with pytest.raises(InvalidDimension):
            Ray(span_of([E3[0], E3[1]]))


class TestRandomSubspace:
    def test_k_zero(self):
        assert random_subspace(4, 0, 1).dim == 0

    def test_k_full(self):
        assert equal(random_subspace(4, 4, 1), full_subspace(4))

    def test_gram_identity(self):
        p = random_subspace(4, 2, 9)
        g = p.basis.conj().T @ p.basis
        assert np.linalg.norm(g - np.eye(2)) < 1e-12

    def test_bad_k_rejected(self):
        with pytest.raises(InvalidDimension):
            random_subspace(3, 4, 0)


class TestLatticeInvariants:
    def test_absorption(self):
        for seed in range(100):
            p = random_subspace(4, 1 + seed % 3, seed)
            q = random_subspace(4, 1 + (seed + 1) % 3, seed + 500)
            assert equal(join(p, meet(p, q)), p)
            assert equal(meet(p, join(p, q)), p)

    def test_commutativity(self):
        p = random_subspace(5, 2, 3)
        q = random_subspace(5, 3, 4)
        assert equal(meet(p, q), meet(q, p))
        assert equal(join(p, q), join(q, p))

    def test_associativity(self):
        p = random_subspace(4, 2, 5)
        q = random_subspace(4, 2, 6)
        r = random_subspace(4, 2, 7)
        assert equal(join(join(p, q), r), join(p, join(q, r)))
        assert equal(meet(meet(p, q), r), meet(p, meet(q, r)))

    def test_complement_axioms(self):
        p = random_subspace(5, 2, 11)
        q = join(p, random_subspace(5, 1, 12))
        assert equal(ortho(ortho(p)), p)
        if leq(p, q):
            assert leq(ortho(q), ortho(p))
        assert equal(join(p, ortho(p)), full_subspace(5))
        assert meet(p, ortho(p)).dim == 0

    def test_de_morgan_families(self):
        for seed in range(50):
            family = [random_subspace(5, 1 + (seed + k) % 3, seed + 97 * k) for k in range(3)]
            joined = join(join(family[0], family[1]), family[2])
            met = meet(meet(family[0], family[1]), family[2])
            meets_of_orthos = meet(
                meet(ortho(family[0]), ortho(family[1])), ortho(family[2])
            )
            joins_of_orthos = join(
                join(ortho(family[0]), ortho(family[1])), ortho(family[2])
            )
            assert projector_distance(meets_of_orthos, ortho(joined)) < 1e-8
            assert projector_distance(joins_of_orthos, ortho(met)) < 1e-8


class TestProjector:
    def test_full_space_projector_is_identity(self):
        assert np.allclose(full_subspace(3).projector(), np.eye(3))

    def test_zero_projector(self):
        assert np.allclose(zero_subspace(3).projector(), np.zeros((3, 3)))

    def test_hermitian_idempotent(self):
        p = random_subspace(5, 2, 17).projector()
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert np.linalg.norm(p @ p - p) < 1e-12


class TestSerialization:
    def test_round_trip(self):
        p = random_subspace(4, 2, 23)
        q = subspace_from_json(subspace_to_json(p))
        assert equal(p, q)
        assert np.allclose(p.basis, q.basis)

    def test_zero_subspace_round_trip(self):
        p = zero_subspace(3)
        q = subspace_from_json(subspace_to_json(p))
        assert q.dim == 0 and q.ambient_dim == 3
