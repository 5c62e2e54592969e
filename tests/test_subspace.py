"""Subspace lattice: span, meet, join, complement, ordering, atoms."""

import json
import re

import numpy as np
import pytest

from orthologic import core
from orthologic.cli import MIN_TOL
from orthologic.core import MAX_STACK, Tolerance, random_unitary
from orthologic.errors import DimensionMismatch, InvalidDimension
from orthologic.subspace import (
    Ray,
    Subspace,
    commutator_norm,
    compatible_pair,
    equal,
    full_subspace,
    inclusion,
    join,
    leq,
    meet,
    ortho,
    projector_distance,
    random_family,
    random_ray,
    random_subspace,
    random_subspace_of,
    rays,
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


def shared_direction_pairs():
    """(p, q, dim of their meet) in C^d: both contain the first s columns
    of a seeded frame, plus kp and kq generic directions of the rest,
    which meet generically in max(0, kp + kq - (d - s)) more."""
    for d in (3, 4, 8, 16):
        frame = random_unitary(d, d)
        for s in range(d):
            shared, rest = frame[:, :s], Subspace(d, frame[:, s:])
            for kp, kq in ((1, 1), (d - s, 1), (d - s - 1, 2), (d - s, d - s)):
                if not (0 <= kp <= d - s and 0 <= kq <= d - s):
                    continue
                seed = 100 * d + 10 * s + kp
                p = Subspace(d, np.hstack([shared, random_subspace_of(rest, kp, seed).basis]))
                q = Subspace(d, np.hstack([shared, random_subspace_of(rest, kq, seed + 1).basis]))
                yield p, q, s + max(0, kp + kq - (d - s))


class TestSpan:
    def test_single_vector(self):
        p = span_of([E3[0]])
        assert p.dim == 1 and p.ambient_dim == 3

    def test_column_reduction(self):
        p = span_of([[1, 0, 0], [1, 1, 0]])
        assert p.dim == 2
        assert leq(span_of([[0, 1, 0]]), p)

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
        assert leq(span_of([coeffs]), p)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            span_of([[1, 0], [1, 0, 0]])

    def test_matrix_is_read_by_columns(self):
        m = random_unitary(4, 3)[:, :2]
        assert equal(span_of(m), span_of([m[:, 0], m[:, 1]]))
        with pytest.raises(DimensionMismatch):
            span_of([])

    def test_rank_is_relative_to_the_largest_scale(self):
        e = np.eye(2)
        assert span_of([1e6 * e[0], 1e-4 * e[1]]).dim == 1
        assert span_of([1e3 * e[0], 1e-3 * e[1]]).dim == 2


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
        for p, q, dim in shared_direction_pairs():
            m = meet(p, q)
            assert m.dim == dim
            assert equal(m, nullspace_meet_oracle(p, q))
            assert equal(m, ortho(join(ortho(p), ortho(q))))

    def test_planes_sharing_a_line_meet_in_that_line(self):
        # 1 - cos(4.5e-5) is about 1e-9, so a cosine test would merge the
        # planes; their sine, 4.5e-5, keeps them apart.
        theta = 4.5e-5
        for d in (3, 8, 16):
            w = random_unitary(d, d)
            p = Subspace(d, w[:, :2])
            tilted = np.cos(theta) * w[:, 1] + np.sin(theta) * w[:, 2]
            q = Subspace(d, np.column_stack([w[:, 0], tilted]))
            m = meet(p, q)
            assert m.dim == 1
            assert equal(m, Subspace(d, w[:, :1]))

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
        included, residual = inclusion(span_of([E3[0] + E3[1]]), span_of([E3[0]]))
        assert not included and residual == pytest.approx(np.sqrt(0.5))

    def test_leq_agrees_with_join_dimension(self):
        p = random_subspace(5, 2, 31)
        q = random_subspace(5, 3, 32)
        assert leq(p, q) == (join(p, q).dim == q.dim)

    def test_equal_reflexive(self):
        p = random_subspace(4, 2, 8)
        assert equal(p, p)

    def test_perturbed_ray_not_equal(self):
        assert not equal(span_of([E3[0]]), span_of([E3[0] + 1e-3 * E3[1]]))

    def test_verdicts_are_python_bools(self):
        # reports are written with json.dumps, which refuses numpy bools
        ray, plane = span_of([E3[0]]), span_of([E3[0], E3[1]])
        for p, q in ((ray, plane), (plane, ray), (ray, ray)):
            assert type(leq(p, q)) is type(equal(p, q)) is type(inclusion(p, q)[0]) is bool

    def test_equal_needs_equal_dimension_and_inclusion(self):
        ray, plane = span_of([E3[0]]), span_of([E3[0], E3[1]])
        assert leq(ray, plane) and not equal(ray, plane) and not equal(plane, ray)
        # a loose bound admits the unit residual of a different plane, but
        # never a subspace of another dimension
        loose = Tolerance(eps_eq=0.9)
        other = span_of([E3[0], E3[2]])
        assert equal(plane, other, loose) and not equal(ray, plane, loose)


class TestEqualArgumentOrder:
    """For dim p = dim q = k both residuals of ``equal`` square to
    k - ||B_q^dagger B_p||_F^2, so the two argument orders differ only by
    rounding: within ORDER_GAP eps sqrt(d), a hundredth of the bound
    MIN_TOL sqrt(d) at the tightest tolerance the CLI accepts."""

    ORDER_GAP = 10 * np.finfo(float).eps

    def assert_order_gap(self, p, q):
        d = p.ambient_dim
        gap = np.abs(inclusion(p, q)[1] - inclusion(q, p)[1])
        assert np.max(gap) <= self.ORDER_GAP * np.sqrt(d)

    def test_the_gap_is_far_below_the_cli_floor(self):
        assert self.ORDER_GAP <= MIN_TOL / 100

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_generic_pairs(self, d):
        for k in range(1, d):
            rngs = core.trial_generators(d, f"order-{k}", 200)
            p = random_subspace(d, [k] * 200, rngs)
            q = random_subspace(d, [k] * 200, rngs)
            self.assert_order_gap(p, q)

    @pytest.mark.parametrize("d", [3, 4, 8, 16])
    def test_equal_spans_with_rotated_bases(self, d):
        for k in range(1, d):
            rngs = core.trial_generators(d, f"rotated-{k}", 50)
            p = random_subspace(d, [k] * 50, rngs)
            q = Subspace(d, tuple(b @ random_unitary(k, rng) for b, rng in zip(p.basis, rngs)))
            assert np.all(equal(p, q)) and np.all(equal(q, p))
            self.assert_order_gap(p, q)

    def test_the_exact_identity_against_an_svd_basis(self):
        # the full space as a join of two complements (an SVD basis) and as
        # the identity: residual 0.0 one way, about 1.6e-15 the other
        p, q = random_subspace(4, 2, 0), random_subspace(4, 2, 50)
        full = join(ortho(p), ortho(q))
        identity = ortho(zero_subspace(4))
        assert inclusion(full, identity)[1] != inclusion(identity, full)[1]
        self.assert_order_gap(full, identity)


def is_atom(p, probes=8):
    """Whether p is a minimal nonzero element, as far as seeded probes
    show: each probe meets p in zero or in all of p."""
    d = p.ambient_dim
    probes = (random_subspace(d, 1 + k % (d - 1), k) for k in range(probes))
    return p.dim > 0 and all(meet(p, q).dim == 0 or equal(meet(p, q), p) for q in probes)


class TestAtoms:
    def test_coordinate_ray_is_atom(self):
        ray = span_of([E3[0]])
        assert is_atom(ray) and is_atom(meet(ray, span_of([E3[0], E3[1]])))
        assert Ray(ray).subspace is ray

    def test_zero_is_not_atom(self):
        assert not is_atom(zero_subspace(3))
        with pytest.raises(InvalidDimension):
            Ray(zero_subspace(3))

    def test_plane_is_not_atom(self):
        plane = span_of([E3[0], E3[1]])
        assert not is_atom(plane)
        assert leq(span_of([E3[1]]), plane) and not equal(span_of([E3[1]]), plane)

    def test_every_nonzero_subspace_contains_an_atom(self):
        for seed in range(10):
            p = random_subspace(5, 1 + seed % 4, seed)
            atom = span_of([p.basis[:, 0]])
            assert atom.dim == 1 and leq(atom, p)

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

    def test_subspace_of(self):
        q = random_subspace(6, 3, 4)
        for k in range(4):
            r = random_subspace_of(q, k, 7)
            assert r.dim == k and r.ambient_dim == 6 and leq(r, q)
        with pytest.raises(InvalidDimension):
            random_subspace_of(q, 4, 7)


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

    def test_codec_matches_the_entry_loop(self):
        # the JSON bytes of the vectorized codec equal those of a loop
        # over the entries, column by column
        p = random_subspace(8, 3, 12)
        flat = []
        for col in range(p.dim):
            for row in range(p.ambient_dim):
                z = p.basis[row, col]
                flat.append([float(z.real), float(z.imag)])
        looped = {"ambient_dim": 8, "basis": flat}
        assert json.dumps(subspace_to_json(p)) == json.dumps(looped)
        back = subspace_from_json(json.loads(json.dumps(looped)))
        assert np.array_equal(back.basis, p.basis) and back.basis.flags["C_CONTIGUOUS"]


def ragged_pairs(d, seed):
    """Pairs of subspaces of C^d: every pair of dimensions 0..d, and pairs
    tilted by 1e-11 .. 1e-6 rad out of sharing a ray, a plane or all of p."""
    rng = np.random.default_rng(seed)
    pairs = []
    for kp in range(d + 1):
        for kq in range(d + 1):
            s = int(rng.integers(1 << 30))
            pairs.append((random_subspace(d, kp, s), random_subspace(d, kq, s + 1)))
    for tilt in (1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        frame = random_unitary(d, int(rng.integers(1 << 30)))
        for k in {1, min(2, d - 1), d - 1}:
            tilted = frame[:, :k].copy()
            tilted[:, 0] = np.cos(tilt) * frame[:, 0] + np.sin(tilt) * frame[:, k]
            pairs.append((Subspace(d, frame[:, :k]), Subspace(d, tilted)))
            pairs.append((Subspace(d, frame[:, :k]), Subspace(d, frame[:, 1:k + 1])))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def batch_of(subspaces):
    return Subspace.batch(subspaces[0].ambient_dim, subspaces)


def assert_orthonormal(batch):
    for b in batch.basis:
        assert np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])) <= 1e-13 * batch.ambient_dim
        # stored as one subspace's basis is: BLAS takes another path for
        # some strided rank-one operands
        assert b.flags["C_CONTIGUOUS"]


class TestBatches:
    """A batch gives, element by element, bitwise what one subspace gives."""

    def test_elements_give_back_the_batched_subspaces(self):
        pairs = ragged_pairs(3, 0)
        batch = batch_of([p for p, _ in pairs])
        assert batch.is_batch and not pairs[0][0].is_batch
        assert len(batch.elements()) == len(pairs)
        for element, (p, _) in zip(batch.elements(), pairs):
            assert not element.is_batch and np.array_equal(element.basis, p.basis)
        single = pairs[-1][0]
        assert single.elements() == (single,)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_split_and_batch_take_apart_and_rebuild_a_batch(self, k, monkeypatch):
        pairs = ragged_pairs(3, 0)[:12]
        batch = batch_of([p for p, _ in pairs])
        single = pairs[0][1]
        # the bases were checked when their subspaces were built: no
        # regroup checks them again
        monkeypatch.setattr("orthologic.subspace._gram_defects", None)
        runs = batch.split(k)
        assert len(runs) == k
        assert all(run.is_batch and run.ambient_dim == 3 and len(run.elements()) == 12 // k
                   for run in runs)
        assert [b for run in runs for b in run.basis] == list(batch.basis)
        whole = Subspace.batch(3, runs)
        assert whole.is_batch and whole.ambient_dim == 3 and len(whole.basis) == 12
        assert all(a is b for a, b in zip(whole.basis, batch.basis))
        assert len(Subspace.batch(3, iter(runs)).basis) == 12  # parts read once
        # single subspaces and batches mix, in order, each basis kept
        mixed = Subspace.batch(3, [single, *runs, single, *batch.elements()[:2]])
        expected = [single.basis, *batch.basis, single.basis, *batch.basis[:2]]
        assert len(mixed.basis) == len(expected)
        assert all(a is b for a, b in zip(mixed.basis, expected))

    def test_split_and_batch_refuse_what_does_not_fit(self):
        batch = batch_of([zero_subspace(3)] * 4)
        for bad in (lambda: batch.split(3), lambda: full_subspace(3).split(1),
                    lambda: Subspace.batch(3, [batch, batch_of([zero_subspace(4)])]),
                    lambda: Subspace.batch(3, [batch, full_subspace(4)]),
                    lambda: Subspace.batch(4, [full_subspace(4), batch])):
            with pytest.raises(DimensionMismatch):
                bad()
        # the empty batch, of no parts or of empty parts, splits into empty runs
        for empty in (Subspace.batch(3, []), Subspace.batch(3, [Subspace.batch(3, [])] * 2)):
            assert empty.is_batch and empty.ambient_dim == 3 and empty.basis == ()
            assert [len(run.basis) for run in empty.split(2)] == [0, 0]

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_ops_equal_single_ops(self, d, seed):
        pairs = ragged_pairs(d, seed)
        ps, qs = batch_of([p for p, _ in pairs]), batch_of([q for _, q in pairs])
        joined, met, complements = join(ps, qs), meet(ps, qs), ortho(ps)
        holds, residual = inclusion(ps, qs)
        same = equal(ps, qs)
        distance, commutator = projector_distance(ps, qs), commutator_norm(ps, qs)
        for i, (p, q) in enumerate(pairs):
            assert np.array_equal(joined.basis[i], join(p, q).basis)
            assert np.array_equal(met.basis[i], meet(p, q).basis)
            assert np.array_equal(complements.basis[i], ortho(p).basis)
            assert (holds[i], residual[i]) == inclusion(p, q)
            assert same[i] == equal(p, q)
            assert distance[i] == projector_distance(p, q)
            assert commutator[i] == commutator_norm(p, q)
        for batch in (joined, met, complements):
            assert_orthonormal(batch)
        assert list(met.dim) == [meet(p, q).dim for p, q in pairs]

    def test_one_element_batches_equal_single_ops(self):
        # a group of one element is passed as a view, not a stacked copy
        for p, q in ragged_pairs(8, 2):
            pb, qb = batch_of([p]), batch_of([q])
            for op in (join, meet):
                assert np.array_equal(op(pb, qb).basis[0], op(p, q).basis)
            assert np.array_equal(ortho(pb).basis[0], ortho(p).basis)
            assert inclusion(pb, qb)[1][0] == inclusion(p, q)[1]

    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    def test_batched_samplers_draw_each_seed_alone(self, d):
        seeds = np.array([0, 7, 2**64 - 1, 12345], dtype=object)  # seed + 1 passes 2^64
        ks = np.array([0, 1, d // 2, d])
        for u, s in zip(random_unitary(d, seeds), seeds):
            assert np.array_equal(u, random_unitary(d, s))
        batch = random_subspace(d, ks, seeds)
        for b, k, s in zip(batch.basis, ks, seeds):
            assert np.array_equal(b, random_subspace(d, int(k), s).basis)
        inner = random_subspace_of(batch, ks // 2, seeds + 1)
        for b, q, k, s in zip(inner.basis, batch.basis, ks // 2, seeds + 1):
            assert np.array_equal(b, random_subspace_of(Subspace(d, q), int(k), s).basis)
        for members, single in zip(zip(*(m.basis for m in random_family((d, d), seeds, True))),
                                   (random_family((d, d), s, True) for s in seeds)):
            assert all(np.array_equal(b, m.basis) for b, m in zip(members, single))
        for pair, s in zip(zip(*(m.basis for m in compatible_pair(d, seeds))), seeds):
            assert all(np.array_equal(b, m.basis) for b, m in zip(pair, compatible_pair(d, s)))
        assert_orthonormal(inner)

    @pytest.mark.parametrize("proper", [True, False])
    def test_a_family_draws_every_member_from_its_trial_generator(self, monkeypatch, proper):
        # one generator per trial: the dimensions of the members, then their
        # frames in member order
        seeds = np.array([5, 6, 5, 7, 2**64 - 1], dtype=object)
        singles = [random_family((3, 3, 4), s, proper) for s in seeds]
        drawn = []
        gaussian = core._gaussian
        monkeypatch.setattr(core, "_gaussian", lambda d, s: drawn.append((d, s)) or gaussian(d, s))
        family = random_family((3, 3, 4), seeds, proper)
        assert len(drawn) == 3 * len(seeds)
        for members, single, s in zip(zip(*(m.basis for m in family)), singles, seeds):
            assert all(np.array_equal(b, m.basis) for b, m in zip(members, single))
            rng = np.random.default_rng(s)
            ks = [int(rng.integers(1, d if proper else d + 1)) for d in (3, 3, 4)]
            for b, d, k in zip(members, (3, 3, 4), ks):
                assert np.array_equal(b, random_unitary(d, rng)[:, :k])

    def test_the_members_of_a_family_are_distinct(self):
        # 100 trials of three members in C^8 are 300 distinct subspaces
        family = random_family((8, 8, 8), core.trial_generators(0, "lattice-dist", 100), True)
        members = [b for m in family for b in m.basis]
        projectors = np.array([(b @ b.conj().T).ravel() for b in members])
        # ||P - Q||_F^2 = ||P||_F^2 + ||Q||_F^2 - 2 tr(PQ), from one Gram matrix
        gram = (projectors @ projectors.conj().T).real
        gaps = np.diag(gram)[:, None] + np.diag(gram)[None] - 2 * gram
        assert len(members) == 300
        assert np.min(gaps + np.eye(300)) > 0.01

    def test_rays_are_the_spans_of_their_vectors(self):
        # a zero vector spans the zero subspace, as span_of of it does
        vectors = [core.random_vector(4, 0), E3[0].copy(), np.zeros(4), 1e-3j * np.ones(4)]
        vectors[1] = np.append(vectors[1], 0.0)
        batch = rays(4, vectors)
        assert batch.is_batch and list(batch.dim) == [1, 1, 0, 1]
        for b, v in zip(batch.basis, vectors):
            assert np.array_equal(b, span_of([v]).basis)
        assert_orthonormal(batch)

    def test_random_ray_is_rays_of_random_vectors(self):
        seeds = np.array([0, 7, 2**64 - 1], dtype=object)
        batch = random_ray(3, seeds)
        expected = rays(3, [core.random_vector(3, s) for s in seeds])
        assert all(np.array_equal(b, e) for b, e in zip(batch.basis, expected.basis))
        assert Ray(batch).subspace is batch

    def test_stacked_norms_past_one_stack_equal_single_norms(self):
        # 90 pairs of one shape split into three stacks; the zero-dimensional
        # elements give empty residuals
        n = 3 * MAX_STACK
        seeds = np.arange(n, dtype=object)
        pairs = list(zip(random_subspace(4, np.full(n, 2), seeds).elements(),
                         random_subspace(4, np.full(n, 3), seeds + n).elements()))
        zero, plane = zero_subspace(4), random_subspace(4, 2, 0)
        pairs[::16] = [(zero, plane), (plane, zero), (zero, zero)] * 2
        ps, qs = batch_of([p for p, _ in pairs]), batch_of([q for _, q in pairs])
        residual, distance = inclusion(ps, qs)[1], projector_distance(ps, qs)
        commutator = commutator_norm(ps, qs)
        for i, (p, q) in enumerate(pairs):
            a, b = p.basis, q.basis
            assert residual[i] == inclusion(p, q)[1] == np.linalg.norm(a - b @ (b.conj().T @ a))
            assert distance[i] == projector_distance(p, q) == np.linalg.norm(
                p.projector() - q.projector())
            pp, pq = p.projector(), q.projector()
            assert commutator[i] == commutator_norm(p, q) == np.linalg.norm(pp @ pq - pq @ pp, 2)
        assert residual[0] == residual[32] == 0.0 < residual[16]

    def test_batch_validates_every_element(self):
        good = random_subspace(3, 2, 0).basis
        with pytest.raises(ValueError):
            Subspace(3, (good, 2 * good))
        with pytest.raises(DimensionMismatch):
            Subspace(3, (good, good[:2]))

    def test_the_first_misshapen_element_is_named(self):
        good = random_subspace(3, 2, 0).basis
        with pytest.raises(DimensionMismatch,
                           match=re.escape("basis shape (2, 2) does not match ambient dim 3")):
            Subspace(3, (good, good[:2], np.zeros((4, 1)), good[0]))
        with pytest.raises(DimensionMismatch,
                           match=re.escape("basis shape (3,) does not match ambient dim 3")):
            Subspace(3, (good, good[:, 0]))

    def test_a_nan_in_a_later_group_is_not_finite(self):
        # the NaN basis has the shape of neither earlier group
        bases = (E3[:, :1], E3[:, :2], E3[:, :1], np.full((3, 3), np.nan))
        with pytest.raises(ValueError, match="basis entries must be finite"):
            Subspace(3, bases)

    def test_a_skewed_basis_in_a_later_stack_is_refused(self):
        # 3 MAX_STACK rays: the one non-orthonormal basis sits in the third stack
        rays = [E3[:, i % 3:i % 3 + 1] for i in range(3 * MAX_STACK)]
        Subspace(3, tuple(rays))
        rays[2 * MAX_STACK + 5] = 2 * E3[:, :1]
        with pytest.raises(ValueError, match="basis columns are not orthonormal"):
            Subspace(3, tuple(rays))
