"""Lattice-law checkers: distributivity, orthomodularity, compatibility."""

import functools
import itertools
import json
import traceback

import numpy as np
import pytest

from orthologic import classical, cli, laws
from orthologic import subspace as sub
from orthologic.classical import ClassicalProp, PhaseSpace, prop_and
from orthologic.cli import main
from orthologic.core import DEFAULT_TOL, Tolerance, random_unitary, random_vector, trial_generators
from orthologic.laws import (
    LawReport,
    check_compatibility_criteria,
    check_covering,
    check_de_morgan,
    check_distributive,
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

from test_classical import all_props

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
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_reproduces_worked_configuration(self, d):
        report = nondistributivity_witness(d)
        assert not report.holds and (report.trials, report.failures) == (1, 1)
        e = np.eye(d)
        inputs = {k: subspace_from_json(v) for k, v in report.counterexample["inputs"].items()}
        for name, v in zip("abc", (e[0], e[1], e[0] + e[1])):
            assert equal(inputs[name], span_of([v]))
        left = subspace_from_json(report.counterexample["left"])
        right = subspace_from_json(report.counterexample["right"])
        assert equal(left, span_of([e[0]]))
        assert equal(right, span_of([e[0], e[1]]))
        assert projector_distance(left, right) > 0.5

    def test_configuration_is_fixed(self):
        with pytest.raises(TypeError):
            nondistributivity_witness(3, psi1=E3[0])


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
        assert (report.holds, report.applicable, report.trials) == (True, False, 0)

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

    def test_criteria_agree_on_nearly_equal_subspaces(self):
        theta, disagree = 1e-8, []
        for d in (3, 8, 16):
            w = random_unitary(d, d)
            for k in (1, 2):  # a ray, then a plane sharing a line
                tilted = np.cos(theta) * w[:, k - 1] + np.sin(theta) * w[:, d - 1]
                p = Subspace(d, w[:, :k])
                q = Subspace(d, np.column_stack([w[:, : k - 1], tilted]))
                if not check_compatibility_criteria(p, q).holds:
                    disagree.append((d, k))
        assert disagree == []

    @pytest.mark.parametrize(
        "theta", [1e-11, 1e-10, 5e-10, 9e-10, 1.1e-9, 2e-9, 5e-9, 1e-8, 1e-7, 1e-6, np.pi / 2 - 1e-8]
    )
    def test_tilt_sweep_gives_one_verdict(self, theta):
        # a ray, or a plane sharing a line, tilted by theta towards a
        # direction orthogonal to both: the pair is compatible exactly
        # when theta is within eps_rank = 1e-9 of 0 or pi/2, and the two
        # lattice criteria and the commutator oracle all say so
        expected = min(theta, np.pi / 2 - theta) <= 1e-9
        for d in (3, 8, 16):
            for seed in range(20):
                w = random_unitary(d, 1000 * d + seed)
                for k in (1, 2):
                    tilted = np.cos(theta) * w[:, k - 1] + np.sin(theta) * w[:, d - 1]
                    p = Subspace(d, w[:, :k])
                    q = Subspace(d, np.column_stack([w[:, : k - 1], tilted]))
                    verdicts = (
                        compatible(p, q),
                        compatible_second_criterion(p, q),
                        commuting_projectors(p, q),
                    )
                    assert verdicts == (expected,) * 3, (d, seed, k)

    def test_the_criteria_share_one_meet_of_the_pair(self, monkeypatch):
        # a meet b enters both criteria: checking them meets a and b once
        p, q = cli._mixed_pair(4, np.arange(8) % 4, trial_generators(3, "compat", 8))
        pairs = []
        original = sub.meet

        def recorded(x, y, tol=DEFAULT_TOL):
            pairs.append((x, y))
            return original(x, y, tol)

        monkeypatch.setattr(sub, "meet", recorded)
        assert check_compatibility_criteria(p, q).holds
        assert len(pairs) == 3 and sum(x is p and y is q for x, y in pairs) == 1

    def test_nontrivial_elements_admit_incompatible_partner(self):
        # irreducibility spot check: only 0 and the full space commute
        # with everything, so a proper subspace has a skew partner
        for seed in range(10):
            p = random_subspace(4, 1 + seed % 3, seed)
            partner_vec = p.basis[:, 0] + 0.5 * ortho(p).basis[:, 0]
            partner = span_of([partner_vec])
            assert not compatible(p, partner)


class TestDeMorgan:
    def test_verdict_uses_the_callers_eps_eq(self):
        # two planes in general position in C^4: every meet is zero and every
        # join is the whole space, so the residual is rounding alone, far
        # below the default eps_eq and far above a tight one
        family = (random_subspace(4, 2, 0), random_subspace(4, 2, 50))
        loose = check_de_morgan(family)
        residual = loose.worst_residual
        assert loose.holds and 0 < residual < 1e-12
        tight = check_de_morgan(family, Tolerance(eps_eq=residual / 10))
        assert tight.worst_residual == residual
        assert not tight.holds
        assert tight.counterexample is not None


def foulis_sides(b, family):
    """join_k (b meet a_k) and b meet (join_k a_k)."""
    left = functools.reduce(join, [meet(b, a) for a in family])
    return left, meet(b, functools.reduce(join, family))


class TestFoulisDistributivity:
    """Foulis-Holland: b compatible with every a_k gives
    join_k (b meet a_k) = b meet (join_k a_k).  For a family of two this
    is within the triple law, whose hypothesis b then meets."""

    def test_family_of_self(self):
        b = random_subspace(4, 2, 7)
        assert compatible(b, b) and equal(*foulis_sides(b, [b]))
        report = check_triple_distributive(b, b, b)
        assert report.holds and report.applicable

    def test_orthogonal_coordinate_rays_against_plane(self):
        e = np.eye(4, dtype=complex)
        b = span_of([e[0], e[1]])
        family = [span_of([e[k]]) for k in range(4)]
        assert all(compatible(b, a) for a in family) and equal(*foulis_sides(b, family))
        for a1, a2 in itertools.combinations(family, 2):
            report = check_triple_distributive(b, a1, a2)
            assert report.holds and report.applicable

    def test_zero_family(self):
        b = random_subspace(4, 2, 8)
        left, right = foulis_sides(b, [zero_subspace(4)])
        assert left.dim == right.dim == 0
        report = check_triple_distributive(b, zero_subspace(4), zero_subspace(4))
        assert report.holds and report.applicable

    def test_incompatible_family_not_applicable(self):
        b = span_of([E3[0]])
        family = [span_of([E3[0] + E3[1]])]
        assert not compatible(b, family[0])
        assert not check_triple_distributive(b, *family * 2).applicable
        # outside the hypothesis the identity can fail: the diagonal ray
        # against the two coordinate rays of its plane
        diagonal = span_of([E3[0] + E3[1]])
        left, right = foulis_sides(diagonal, [span_of([E3[0]]), span_of([E3[1]])])
        assert left.dim == 0 and equal(right, diagonal)


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
        assert (report.holds, report.applicable, report.trials) == (True, False, 0)


class TestCovering:
    def test_zero_base(self):
        ray = Ray(span_of([random_vector(4, 3)]))
        report = check_covering(ray, zero_subspace(4))
        assert report.holds
        assert sub.join(zero_subspace(4), ray.subspace).dim == 1

    def test_coordinate_plane_plus_coordinate_ray(self):
        e = np.eye(4, dtype=complex)
        a, ray = span_of([e[0], e[1]]), Ray(span_of([e[2]]))
        report = check_covering(ray, a)
        assert report.holds
        assert sub.join(a, ray.subspace).dim == 3

    def test_generic_instance(self):
        a = random_subspace(5, 2, 11)
        ray = Ray(span_of([random_vector(5, 12)]))
        report = check_covering(ray, a)
        assert report.holds
        assert sub.join(a, ray.subspace).dim == 3

    def test_precondition(self):
        # an atom inside a is outside the hypothesis: nothing is checked
        e = np.eye(3, dtype=complex)
        a = span_of([e[0], e[1]])
        report = check_covering(Ray(span_of([e[0]])), a)
        assert (report.holds, report.applicable, report.trials) == (True, False, 0)

    @pytest.mark.parametrize("batch", [False, True])
    def test_one_meet_and_one_join_decide_it(self, monkeypatch, batch):
        # dim(a join p) = dim a + 1 decides the law: no other ray of the
        # gap is joined with a, however many instances the batch holds
        if batch:
            a, ray = cli._covering_instance(8, np.array(range(20), dtype=object))
        else:
            a, ray = random_subspace(5, 2, 11), Ray(span_of([random_vector(5, 12)]))
        calls = {"join": 0, "meet": 0}
        for name, original in [(name, getattr(sub, name)) for name in calls]:
            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sub, name, counted)
        assert check_covering(ray, a).holds
        assert calls == {"join": 1, "meet": 1}

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: for rays at angles between eps_rank and 2 eps_rank, meet finds "
        "no shared direction while join keeps one dimension"))
    def test_a_ray_at_one_and_a_half_eps_rank_is_covered(self):
        t = 1.5 * DEFAULT_TOL.eps_rank
        e = np.eye(4, dtype=complex)
        ray = Ray(span_of([np.cos(t) * e[0] + np.sin(t) * e[1]]))
        assert check_covering(ray, span_of([e[0]])).holds


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

    @pytest.mark.parametrize("broken", [False, True])
    def test_batch_and_single_pairs_match_the_sample_loop(self, monkeypatch, broken):
        if broken:  # a join that loses a direction whenever it spans three
            join = sub.join

            def lossy(p, q, tol=DEFAULT_TOL):
                j = join(p, q, tol)
                cut = (lambda b: b[:, :2] if b.shape[1] == 3 else b)
                if isinstance(j.basis, tuple):
                    return Subspace(j.ambient_dim, tuple(map(cut, j.basis)))
                return Subspace(j.ambient_dim, cut(j.basis))

            monkeypatch.setattr(sub, "join", lossy)

        # as lattice-check runs it: each pair's generator draws the pair,
        # then its samples
        def pairs():
            rngs = trial_generators(101, "modular", 12)
            return (*sub.random_family((6, 6), rngs, proper=True), rngs)

        p, q, rngs = pairs()
        batch = is_modular_pair(p, q, samples=6, seed=rngs)
        loops = [per_sample_modular_pair(a, b, 6, g) for a, b, g in zip(*elements(pairs()))]
        singles = [is_modular_pair(a, b, samples=6, seed=g) for a, b, g in zip(*elements(pairs()))]
        assert [r.to_json() for r in singles] == [r.to_json() for r in loops]
        failing = [r for r in loops if not r.holds]
        assert bool(failing) == broken and (not broken or len(failing) < len(loops))
        assert batch.holds == (not failing)
        assert batch.failures == sum(r.failures for r in loops) >= len(failing)
        assert batch.trials == sum(r.trials for r in loops) == 12 * 6
        assert batch.worst_residual == max(r.worst_residual for r in loops)
        assert batch.counterexample == (failing[0].counterexample if failing else None)


def elements(batches):
    """The elements of each batch of subspaces, and an array as it is."""
    return [x.elements() if isinstance(x, Subspace) else x for x in batches]


def per_sample_modular_pair(p, q, samples, seed, tol=DEFAULT_TOL):
    """is_modular_pair as one sample at a time: each sample one trial, the
    worst residual over all of them, the first failing one's counterexample."""
    worst, failures, counterexample = 0.0, 0, None
    rng = np.random.default_rng(seed)
    for trial in range(samples):
        r = sub.random_subspace_of(q, trial % (q.dim + 1), rng)
        left = sub.meet(sub.join(p, r, tol), q, tol)
        right = sub.join(sub.meet(p, q, tol), r, tol)
        worst = max(worst, sub.projector_distance(left, right))
        if not sub.equal(left, right, tol):
            failures += 1
            counterexample = counterexample or {
                "inputs": {k: sub.subspace_to_json(x) for k, x in (("p", p), ("q", q), ("r", r))},
                "left": sub.subspace_to_json(left),
                "right": sub.subspace_to_json(right),
            }
    return LawReport("modular_pair", trials=samples, worst_residual=worst,
                     counterexample=counterexample, failures=failures)


def lossy_join(a, b):
    """A broken join: the union loses point 0 when both sides hold it or
    when the union holds point 1."""
    union = a.members | b.members
    return ClassicalProp(a.space, union & ~((a.members & b.members | union >> 1) & 1))


def lopsided_meet(a, b):
    """A broken meet that does not commute: a meet b keeps point 0 of a
    also when b holds point 1 instead."""
    return ClassicalProp(a.space, a.members & (b.members | b.members >> 1 & 1))


def per_a_lattice_report(omega, tol=DEFAULT_TOL):
    """cli._classical_lattice_report with distributivity checked one
    a-value per checker call, over int64 bitmasks: the oracle of the
    blocked sweep over the narrowest unsigned bitmasks."""
    space = PhaseSpace(tuple(f"w{k}" for k in range(omega)))
    masks = np.arange(1 << omega, dtype=np.int64)
    col, row = ClassicalProp(space, masks[:, None]), ClassicalProp(space, masks[None, :])
    ok_dist = all(
        check_triple_distributive(ClassicalProp(space, a), col, row).holds
        for a in range(1 << omega)
    )
    ok_om = check_orthomodular(classical.prop_and(col, row), col).holds
    ok_absorb = bool(
        np.all(classical.prop_or(col, classical.prop_and(col, row)).members == col.members)
        and np.all(classical.prop_and(col, classical.prop_or(col, row)).members == col.members)
    )
    nonzero = ClassicalProp(space, masks[1:, None])
    atoms = ClassicalProp(space, 1 << np.arange(omega)[None, :])
    below = classical.prop_and(nonzero, atoms).members == atoms.members
    ok_atomic = bool(np.all(np.any(below, axis=1)))
    ok_dm = check_de_morgan((col, row), tol).holds
    return {
        "omega": omega,
        "prop_count": len(masks),
        "distributive": ok_dist,
        "orthomodular": ok_om,
        "absorption": ok_absorb,
        "atomic": ok_atomic,
        "de_morgan": ok_dm,
        "expected_pattern": ok_dist and ok_om and ok_absorb and ok_atomic and ok_dm,
    }


def batch_axes(space, dims):
    """One batch per axis of a dims-dimensional grid of every bitmask."""
    masks = np.arange(1 << space.size)
    return [
        ClassicalProp(space, masks.reshape([-1 if k == axis else 1 for k in range(dims)]))
        for axis in range(dims)
    ]


def fold(reports):
    """(every report holds, trials, failures, worst residual) of reports
    on single propositions, added up as a batch adds up its elements."""
    return (all(r.holds for r in reports), sum(r.trials for r in reports),
            sum(r.failures for r in reports), max(r.worst_residual for r in reports))


def counts(report):
    return report.holds, report.trials, report.failures, report.worst_residual


def scalar_sweep(check, props, arity):
    """fold of check over every tuple."""
    return fold([check(*args) for args in itertools.product(props, repeat=arity)])


def replay(check, counterexample, space):
    """check on the counterexample's inputs, rebuilt from its JSON."""
    inputs = counterexample["inputs"]
    return check(*(ClassicalProp.from_json(space, inputs[name]) for name in sorted(inputs)))


class TestClassicalBatches:
    """A batch runs the same checker body as a scalar, on every element."""

    @pytest.fixture(params=["intact", "lossy_join", "lopsided_meet"])
    def connectives(self, request, monkeypatch):
        if request.param == "lossy_join":
            monkeypatch.setattr(classical, "prop_or", lossy_join)
        if request.param == "lopsided_meet":
            monkeypatch.setattr(classical, "prop_and", lopsided_meet)
        return request.param

    @pytest.mark.parametrize("omega", [1, 2, 3])
    def test_batches_match_scalar_sweeps(self, connectives, omega):
        space = PhaseSpace(tuple(f"w{k}" for k in range(omega)))
        props = list(all_props(space))
        col, row = batch_axes(space, 2)
        pairs = list(itertools.product(props, repeat=2))
        # orthomodularity over every pair checks only the nested ones; over
        # (q meet s, q) every pair is nested
        mixed = check_orthomodular(col, row)
        assert mixed.applicable
        assert counts(mixed) == fold([check_orthomodular(p, q) for p, q in pairs if q.contains(p)])
        nested = check_orthomodular(prop_and(col, row), col)
        assert counts(nested) == fold([check_orthomodular(prop_and(q, s), q) for q, s in pairs])
        assert counts(check_de_morgan((col, row))) == scalar_sweep(
            lambda a, b: check_de_morgan((a, b)), props, 2
        )
        # every triple in one batch, and as one batch per first element
        triples = check_triple_distributive(*batch_axes(space, 3))
        per_a = [check_triple_distributive(a, col, row) for a in props]
        assert counts(triples) == fold(per_a) == scalar_sweep(check_triple_distributive, props, 3)
        # on one point the lopsided meet is the meet
        intact = connectives == "intact" or (connectives, omega) == ("lopsided_meet", 1)
        assert triples.holds == intact

    def test_a_batch_counts_its_failing_elements(self, monkeypatch):
        # a join that drops point 0 fails 18 of the 27 nested pairs of a
        # 3-point space; the batch of all 64 pairs checks those 27
        monkeypatch.setattr(classical, "prop_or",
                            lambda a, b: ClassicalProp(a.space, (a.members | b.members) >> 1 << 1))
        report = check_orthomodular(*batch_axes(PhaseSpace(("u", "v", "w")), 2))
        assert (report.holds, report.trials, report.failures) == (False, 27, 18)

    @pytest.mark.parametrize("chunk", [classical._CHUNK, 8])
    def test_lattice_report_matches_the_per_a_oracle(self, connectives, chunk, monkeypatch):
        # the real budget sweeps omega 5 in one box, its whole cube, and
        # omega 6 in 4 boxes; a budget of 8 splits each omega from 2 on into
        # boxes of mostly one b-value.  The cover checks the cube's
        # identities for any connectives, a meet that does not commute too
        monkeypatch.setattr(classical, "_CHUNK", chunk)
        for omega in range(1, 7):
            report = cli._classical_lattice_report(omega, DEFAULT_TOL)
            assert report == per_a_lattice_report(omega), omega
        assert report["distributive"] == (connectives == "intact")

    def test_failing_batch_counterexample_replays_on_scalars(self, monkeypatch):
        monkeypatch.setattr(classical, "prop_or", lossy_join)
        space = PhaseSpace(("u", "v", "w"))
        col, row = batch_axes(space, 2)
        for report, check in (
            (check_triple_distributive(*batch_axes(space, 3)), check_triple_distributive),
            (check_orthomodular(prop_and(col, row), col), check_orthomodular),
            (check_orthomodular(col, row), check_orthomodular),
            (check_de_morgan((col, row)), lambda *family: check_de_morgan(family)),
            (check_distributive(*batch_axes(space, 3)), check_distributive),
        ):
            assert report.holds is False and report.worst_residual >= 1
            ce = report.counterexample
            for prop in (*ce["inputs"].values(), ce["left"], ce["right"]):
                assert len(prop["members"]) == space.size
            assert ce["left"] != ce["right"]
            assert replay(check, ce, space).holds is False

    def test_a_partly_nested_batch_checks_its_nested_elements(self, monkeypatch):
        space = PhaseSpace(("u", "v", "w"))
        # element 0 is nested, {u} <= {u, v}; element 1 is not
        p, q = ClassicalProp(space, np.array([1, 3])), ClassicalProp(space, np.array([3, 1]))
        assert check_orthomodular(p, q).applicable and check_orthomodular(p, q).holds
        monkeypatch.setattr(classical, "prop_or", lambda a, b: a)  # a join that drops b
        report = check_orthomodular(p, q)
        assert report.applicable and not report.holds
        inputs = {"p": ClassicalProp(space, 1).to_json(), "q": ClassicalProp(space, 3).to_json()}
        assert report.counterexample["inputs"] == inputs
        assert replay(check_orthomodular, report.counterexample, space).holds is False
        # a batch with no nested element stays outside the hypothesis
        outside = check_orthomodular(ClassicalProp(space, np.array([3, 2])),
                                     ClassicalProp(space, 1))
        assert not outside.applicable and outside.holds

    def test_residual_counts_every_differing_point(self, monkeypatch):
        # with the complement as the identity, de Morgan compares a meet b
        # with a join b, which differ in every point of a xor b
        monkeypatch.setattr(classical, "prop_not", lambda a: a)
        space = PhaseSpace(tuple(f"w{k}" for k in range(5)))
        col, row = batch_axes(space, 2)
        assert check_de_morgan((col, row)).worst_residual == 5.0
        pair = (ClassicalProp(space, 0b01010), ClassicalProp.full(space))  # {w1, w3}
        assert check_de_morgan(pair).worst_residual == 3.0

    def test_a_passing_sweep_counts_no_residual(self, monkeypatch, capsys):
        # where equal holds a classical residual is 0, so a sweep whose
        # every law holds counts none and reports the same bytes
        argv = ["lattice-check", "--classical", "--omega", "5"]
        assert main(argv) == 0
        expected = capsys.readouterr().out

        def refuse(masks):
            raise AssertionError("a residual was counted on a passing law")

        monkeypatch.setattr(laws, "_bit_counts", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_no_connective_rechecks_its_result(self, monkeypatch, capsys):
        # the and/or of in-range masks and a masked complement are in range
        callers = []
        original = classical._check_range

        def recorded(*args):
            callers.append({frame.name for frame in traceback.extract_stack()})
            return original(*args)

        monkeypatch.setattr(classical, "_check_range", recorded)
        assert main(["lattice-check", "--classical", "--omega", "5"]) == 0
        assert callers
        assert not [names for names in callers if names & {"prop_and", "prop_or", "prop_not"}]

    def test_counterexample_is_the_first_failing_element(self, monkeypatch):
        monkeypatch.setattr(classical, "prop_or", lossy_join)
        space = PhaseSpace(("u", "v"))
        a, b, c = batch_axes(space, 3)
        report = check_distributive(a, b, c)
        first = next(
            args for args in itertools.product(all_props(space), repeat=3)
            if not check_distributive(*args).holds
        )
        assert report.counterexample == check_distributive(*first).counterexample

    def test_classical_lattice_check_sees_a_broken_join(self, monkeypatch, capsys):
        monkeypatch.setattr(classical, "prop_or", lossy_join)
        assert main(["lattice-check", "--classical", "--omega", "3"]) == 1
        results = json.loads(capsys.readouterr().out)["results"]
        broken = ("distributive", "orthomodular", "absorption", "de_morgan")
        assert not any(results[law] for law in broken)
        assert results["atomic"]

    def test_batches_are_never_hashed_or_compared_whole(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a ClassicalProp was hashed or compared with ==")

        monkeypatch.setattr(ClassicalProp, "__eq__", refuse)
        monkeypatch.setattr(ClassicalProp, "__hash__", refuse)
        space = PhaseSpace(("u", "v", "w"))
        col, row = batch_axes(space, 2)
        # passing and failing batches, the latter building counterexamples
        for join in (classical.prop_or, lossy_join):
            monkeypatch.setattr(classical, "prop_or", join)
            check_triple_distributive(*batch_axes(space, 3))
            check_orthomodular(prop_and(col, row), col)
            check_de_morgan((col, row))
            main(["lattice-check", "--classical", "--omega", "3"])
        capsys.readouterr()


def frame_triples(d, seeds):
    """One triple per seed: by seed parity, three coordinate subspaces of one
    seeded frame (compatible, so the triple laws apply) or a generic family
    with the frame's first coordinate subspace (rarely compatible)."""
    triples = []
    for s in seeds:
        rng = np.random.default_rng(s)
        frame = random_unitary(d, s)
        coords = [frame[:, sorted(rng.permutation(d)[:rng.integers(1, d + 1)])] for _ in range(3)]
        if s % 2:
            generic = sub.random_family((d, d), s + 1, proper=True)
            coords[1:] = [g.basis for g in generic]
        triples.append(coords)
    return [Subspace(d, tuple(t[j] for t in triples)) for j in range(3)]


def per_identity_triple(a, b, c, tol=DEFAULT_TOL):
    """check_triple_distributive on one triple, one identity at a time:
    one trial, the worst residual of all six identities, and the first
    failing identity's sides as the counterexample."""
    def both(x, y, z):
        return compatible(x, y, tol) and compatible(x, z, tol)

    if not (both(a, b, c) or both(b, a, c) or both(c, a, b)):
        return LawReport("triple_distributive", trials=0, failures=0)
    worst, counterexample = 0.0, None
    for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
        for j, m in ((sub.join, sub.meet), (sub.meet, sub.join)):
            left, right = j(x, m(y, z, tol), tol), m(j(x, y, tol), j(x, z, tol), tol)
            worst = max(worst, sub.projector_distance(left, right))
            if not sub.equal(left, right, tol) and counterexample is None:
                inputs = {k: sub.subspace_to_json(v) for k, v in (("a", a), ("b", b), ("c", c))}
                counterexample = {"inputs": inputs, "left": sub.subspace_to_json(left),
                                  "right": sub.subspace_to_json(right)}
    return LawReport("triple_distributive", trials=1,
                     failures=int(counterexample is not None), worst_residual=worst,
                     counterexample=counterexample)


def fold_elements(check, batches):
    """The batch report of check as a fold of its per-element reports over
    the elements within its hypothesis."""
    n = len(batches[0].basis)
    reports = [check(*(Subspace(b.ambient_dim, b.basis[i]) for b in batches)) for i in range(n)]
    checked = [r for r in reports if r.applicable]
    failing = [r for r in checked if not r.holds]
    return {
        "applicable": bool(checked),
        "holds": not failing,
        "failures": len(failing),
        "trials": sum(r.trials for r in checked),
        "worst_residual": max([0.0, *(r.worst_residual for r in checked)]),
        "counterexample": failing[0].counterexample if failing else None,
    }


def batch_fields(report):
    return {k: getattr(report, k) for k in ("applicable", "holds", "failures", "trials",
                                            "worst_residual", "counterexample")}


class TestDistributivityHypothesisOnBatches:
    """The triple law decides its compatibility hypothesis per element of
    a subspace batch and checks only the elements within it; a law without
    a hypothesis checks every element."""

    @pytest.fixture(params=["intact", "lossy_join"])
    def ops(self, request, monkeypatch):
        if request.param == "lossy_join":  # a join spanning C^4 loses a direction
            intact = sub.join

            def lossy(p, q, tol=DEFAULT_TOL):
                cut = (lambda b: b[:, :3] if b.shape[1] == 4 else b)
                j = intact(p, q, tol)
                bases = tuple(map(cut, j.basis)) if isinstance(j.basis, tuple) else cut(j.basis)
                return Subspace(j.ambient_dim, bases)

            monkeypatch.setattr(sub, "join", lossy)
        return request.param

    @pytest.mark.parametrize("d", [3, 4])
    def test_triple_batch_folds_its_elements(self, ops, d):
        seeds = np.arange(2000, 2024, dtype=object)
        batches = frame_triples(d, seeds)
        report = check_triple_distributive(*batches)
        assert batch_fields(report) == fold_elements(per_identity_triple, batches)
        if d == 4:
            assert report.applicable and report.holds == (ops == "intact")

    @pytest.mark.parametrize("d", [3, 4])
    def test_foulis_batch_folds_its_elements(self, ops, d):
        # the distributive law has no hypothesis, so its batch folds every
        # element; the frame elements (even seed values), where b is compatible
        # with a1 and a2, hold by Foulis-Holland unless the join is lossy
        seeds = np.arange(5000, 5024, dtype=object)
        b, a1, a2 = frame_triples(d, seeds)
        report = check_distributive(b, a1, a2)
        assert batch_fields(report) == fold_elements(check_distributive, (b, a1, a2))
        frame = [[Subspace(d, x.basis[i]) for x in (b, a1, a2)]
                 for i, s in enumerate(seeds) if s % 2 == 0]
        if ops == "intact":
            assert all(compatible(x, y) and compatible(x, z) for x, y, z in frame)
        # the lossy join cuts only the joins that span C^4
        holds = [check_distributive(*t).holds for t in frame]
        assert all(holds) == (ops == "intact" or d == 3)

    def test_generic_triples_are_outside_the_hypothesis(self):
        seeds = np.arange(3000, 3012, dtype=object)
        report = check_triple_distributive(*sub.random_family((4, 4, 4), seeds, proper=True))
        assert not report.applicable and report.holds
