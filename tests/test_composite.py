"""Composite-system machinery: axioms, intertwiners, basis maps, isomorphism."""

import dataclasses
import gc
import itertools
import json
import weakref

import numpy as np
import pytest

from orthologic import composite, core
from orthologic import subspace as sub
from orthologic.cli import main
from orthologic.composite import (
    GEMISCHT,
    AxiomReport,
    SubspaceMorphism,
    build_U_V,
    build_basis_map,
    canonical_h,
    check_commutation,
    check_m_morphism,
    classify_linearity,
    composite_onb,
    default_anchors,
    intertwiner_F,
    recheck_axiom_counterexample,
    restriction_iso_u,
    restriction_iso_v,
    sweep_axioms,
    verify_axioms,
    verify_tensor_isomorphism,
)
from orthologic.core import DEFAULT_TOL, Tolerance, as_vector, random_unitary, random_vector
from orthologic.core import rank, subseed
from orthologic.errors import (
    AxiomViolation,
    InvalidDimension,
    NotInDomain,
    NotOrthonormal,
    PreconditionViolated,
    ZeroState,
)
from orthologic.laws import LawReport
from orthologic.subspace import (
    Subspace,
    equal,
    full_subspace,
    join,
    meet,
    span_of,
    zero_subspace,
)
from orthologic.tensor import TensorIndex


@pytest.fixture(scope="module")
def pair33():
    return canonical_h(1, 3, 3), canonical_h(2, 3, 3)


def make_slice_embedding(d1=3, d2=3):
    """Join-preserving but non-unitary: p -> p tensor <f0>."""
    f0 = np.zeros((d2, 1), dtype=complex)
    f0[0, 0] = 1.0

    def embed(p):
        if p.dim == 0:
            return zero_subspace(d1 * d2)
        return Subspace(d1 * d2, np.kron(p.basis, f0))

    return SubspaceMorphism(d1, d1 * d2, embed)


def make_rank_inflating(d1=3, d2=3):
    """Sends rays to planes through a non-additive second column."""
    base = canonical_h(1, d1, d2)
    f = np.eye(d2, dtype=complex)

    def embed(p):
        if p.dim == 1:
            v = p.basis[:, 0]
            w = np.abs(v).astype(complex)
            return span_of([np.kron(v, f[0]), np.kron(w, f[1])])
        return base.map(p)

    return SubspaceMorphism(d1, d1 * d2, embed)


def make_gemischt(d1=3, d2=4):
    """p -> (p tensor A) + (conj(p) tensor B) with A + B = C^{d2}: the
    scalar action lambda P1 + conj(lambda) P2 with both parts nonzero."""
    f = np.eye(d2, dtype=complex)
    a, b = f[:, : d2 // 2], f[:, d2 // 2 :]

    def embed(p):
        if p.dim == 0:
            return zero_subspace(d1 * d2)
        cols = np.hstack([np.kron(p.basis, a), np.kron(np.conj(p.basis), b)])
        return Subspace(d1 * d2, cols)

    return SubspaceMorphism(d1, d1 * d2, embed)


def map_only(h):
    """The lattice map of h alone, in a morphism built by hand."""
    return SubspaceMorphism(h.source_dim, h.target_dim, h.map)


def canonical_ray_map(side, d1, d2, twist, conjugate, y, x):
    """Closed-form ray intertwiner of canonical_h, the differential oracle.

    On the image of <x>, every vector is the image of x tensor v (side
    1; mirrored for side 2) for a unique v; the map replaces the x
    factor by y.
    """
    xc, yc = (np.conj(as_vector(v)) if conjugate else as_vector(v) for v in (x, y))
    xnorm2 = float(np.linalg.norm(xc)) ** 2

    def apply(u):
        uv = as_vector(u)
        m = (twist.conj().T @ uv if twist is not None else uv).reshape(d1, d2)
        if side == 1:
            out = np.outer(yc, np.conj(xc) @ m / xnorm2)
        else:
            out = np.outer(m @ np.conj(xc) / xnorm2, yc)
        return twist @ out.reshape(-1) if twist is not None else out.reshape(-1)

    return apply


FLAG_PAIRS = list(itertools.product((False, True), repeat=2))


def make_zero_to_full(d1=3, d2=3):
    """Canonical, except that the zero subspace goes to the full space."""
    base = canonical_h(1, d1, d2)

    def embed(p):
        return base.map(p) if p.dim else full_subspace(d1 * d2)

    return SubspaceMorphism(d1, d1 * d2, embed)


def make_oblique(d1=3, d2=3):
    """Join-preserving but not complement-preserving: p -> W(p tensor C^d2)
    for an invertible, non-unitary diagonal W."""
    w = np.diag(np.arange(1.0, d1 * d2 + 1.0))

    def embed(p):
        if p.dim == 0:
            return zero_subspace(d1 * d2)
        return span_of(list((w @ np.kron(p.basis, np.eye(d2))).T))

    return SubspaceMorphism(d1, d1 * d2, embed)


# tampered pair -> the counterexample kind each failing axiom must record
TAMPERED_PAIRS = {
    "slice-embedding": (
        lambda: (make_slice_embedding(), canonical_h(2, 3, 3)),
        {"I_c_morphism": "unitarity"},
    ),
    "zero-to-full": (
        lambda: (make_zero_to_full(), canonical_h(2, 3, 3)),
        {"I_c_morphism": "zero"},
    ),
    "rank-inflating": (
        lambda: (make_rank_inflating(), canonical_h(2, 3, 3)),
        {"I_c_morphism": "join"},
    ),
    "oblique": (
        lambda: (make_oblique(), canonical_h(2, 3, 3)),
        {"I_c_morphism": "complement"},
    ),
    "same-factor": (
        lambda: (canonical_h(1, 3, 3), canonical_h(1, 3, 3)),
        {"II_compatibility": "compatibility", "III_atoms": "atom_meet"},
    ),
}


class TestCanonicalH:
    def test_full_space_maps_to_full_space(self, pair33):
        h1, _ = pair33
        assert equal(h1(full_subspace(3)), full_subspace(9))

    def test_coordinate_ray_image_untwisted(self, pair33):
        h1, _ = pair33
        image = h1.map_ray(np.eye(3)[0])
        idx = TensorIndex(3, 3)
        expected = span_of([np.eye(9)[idx.flatten(0, j)] for j in range(3)])
        assert equal(image, expected)

    def test_twisted_join_preservation(self):
        w = random_unitary(9, 5)
        h1 = canonical_h(1, 3, 3, twist=w)
        for seed in range(50):
            p = span_of([random_vector(3, seed)])
            q = span_of([random_vector(3, seed + 100)])
            assert equal(h1(join(p, q)), join(h1(p), h1(q)))

    def test_small_dimension_warns(self):
        with pytest.warns(UserWarning):
            canonical_h(1, 2, 3)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimension):
            canonical_h(1, 0, 3)
        with pytest.raises(InvalidDimension):
            canonical_h(3, 3, 3)

    def test_nonunitary_twist_rejected(self):
        with pytest.raises(NotOrthonormal):
            canonical_h(1, 3, 3, twist=np.ones((9, 9)))


def kron_oracle(side, d1, d2, twist, conjugate, basis):
    """The image basis of canonical_h, one element, by np.kron."""
    block = np.conj(basis) if conjugate else basis
    eye = np.eye(d2 if side == 1 else d1, dtype=complex)
    cols = np.kron(block, eye) if side == 1 else np.kron(eye, block)
    return cols if twist is None else twist @ cols


@pytest.mark.parametrize("side, conjugate, twisted",
                         list(itertools.product((1, 2), (False, True), (False, True))))
def test_batched_canonical_h_equals_the_kron_oracle(side, conjugate, twisted):
    # unequal factors, so that a transposed layout cannot pass
    d1, d2 = 3, 5
    twist = random_unitary(d1 * d2, 17) if twisted else None
    h = canonical_h(side, d1, d2, twist=twist, conjugate=conjugate)
    d = h.source_dim
    # zero and full elements, and more rays than one stacked call takes
    ks = [0, d, 2, 0, d - 1] + [1] * (core.MAX_STACK + 5) + [d]
    seeds = np.array([subseed(6, "oracle", t) for t in range(len(ks))], dtype=object)
    batch = sub.random_subspace(d, ks, seeds)
    image = h(batch)
    assert image.is_batch and len(image.basis) == len(ks)
    for got, element in zip(image.basis, batch.basis):
        expected = kron_oracle(side, d1, d2, twist, conjugate, element)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(expected.view(float)))
        assert np.array_equal(h(Subspace(d, element)).basis, expected)


def test_only_a_batched_map_takes_the_batch_whole(pair33):
    batch = sub.random_subspace(3, [1, 2, 0], np.array([4, 5, 6], dtype=object))
    calls = []

    def record(p):
        calls.append(p.is_batch)
        return pair33[0].map(p)

    plain = SubspaceMorphism(3, 9, record)
    record.batched = False
    assert [b.shape for b in plain(batch).basis] == [(9, 3), (9, 6), (9, 0)]
    assert calls == [False] * 3
    record.batched = True
    assert all(np.array_equal(a, b) for a, b in zip(plain(batch).basis, pair33[0](batch).basis))
    assert calls == [False] * 3 + [True]


class TestVerifyAxioms:
    def test_canonical_pair_passes(self, pair33):
        h1, h2 = pair33
        reports = verify_axioms(h1, h2, trials=100, seed=3)
        assert [r.axiom for r in reports] == [
            "I_c_morphism",
            "II_compatibility",
            "III_atoms",
        ]
        for report in reports:
            assert report.passed
            assert report.worst_residual < 1e-8

    def test_conjugated_pair_passes(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3, conjugate=True)
        for report in verify_axioms(h1, h2, trials=40, seed=4):
            assert report.passed

    def test_nonunitary_image_fails_first_axiom(self, pair33):
        _, h2 = pair33
        fake = make_slice_embedding()
        reports = verify_axioms(fake, h2, trials=10, seed=5)
        first = reports[0]
        assert first.axiom == "I_c_morphism"
        assert not first.passed
        assert first.counterexample["kind"] == "unitarity"

    def test_counterexamples_recheck(self, pair33):
        _, h2 = pair33
        fake = make_slice_embedding()
        reports = verify_axioms(fake, h2, trials=10, seed=6)
        for report in reports:
            if report.counterexample is not None:
                assert recheck_axiom_counterexample(fake, h2, report.counterexample)


    @pytest.mark.parametrize("name", sorted(TAMPERED_PAIRS))
    def test_every_failure_replays_from_json(self, pair33, name):
        make, expected = TAMPERED_PAIRS[name]
        h1, h2 = make()
        reports = verify_axioms(h1, h2, trials=10, seed=6)
        failed = {r.axiom: r.counterexample["kind"] for r in reports if not r.passed}
        assert expected.items() <= failed.items()
        for report in reports:
            if report.passed:
                continue
            ce = json.loads(json.dumps(report.counterexample))
            assert recheck_axiom_counterexample(h1, h2, ce)
            assert not recheck_axiom_counterexample(*pair33, ce)


class TestRestrictionIso:
    def test_full_space_maps_to_slice(self, pair33):
        h1, h2 = pair33
        x2 = random_vector(3, 7)
        u = restriction_iso_u(h1, h2, x2)
        assert equal(u(full_subspace(3)), h2.map_ray(x2))

    def test_coordinate_rays_map_to_product_rays(self, pair33):
        h1, h2 = pair33
        x2 = random_vector(3, 8)
        u = restriction_iso_u(h1, h2, x2)
        for i in range(3):
            expected = span_of([np.kron(np.eye(3)[i], x2)])
            assert equal(u(span_of([np.eye(3)[i]])), expected)

    def test_dimension_preserving(self, pair33):
        h1, h2 = pair33
        x2 = random_vector(3, 9)
        u = restriction_iso_u(h1, h2, x2)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(0, 4))
            p = (
                zero_subspace(3)
                if k == 0
                else span_of([random_vector(3, seed + 10 * j) for j in range(k)])
            )
            assert u(p).dim == p.dim

    def test_join_preserving_on_samples(self, pair33):
        h1, h2 = pair33
        u = restriction_iso_u(h1, h2, random_vector(3, 10))
        p = span_of([random_vector(3, 11)])
        q = span_of([random_vector(3, 12)])
        assert equal(u(join(p, q)), join(u(p), u(q)))

    def test_zero_slice_rejected(self, pair33):
        h1, h2 = pair33
        with pytest.raises(ZeroState):
            restriction_iso_u(h1, h2, np.zeros(3))

    def test_mirror_map_is_dimension_preserving(self, pair33):
        h1, h2 = pair33
        x1 = random_vector(3, 13)
        v = restriction_iso_v(h1, h2, x1)
        assert equal(v(full_subspace(3)), h1.map_ray(x1))
        for seed in range(20):
            p = span_of([random_vector(3, seed + 400)])
            assert v(p).dim == 1


def domain_vector(h, x, seed):
    domain = h.map_ray(x)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)
    return domain.basis @ coeff


@pytest.mark.parametrize("conjugate", [False, True])
class TestIntertwinerProperties:
    def test_identity_on_domain(self, conjugate):
        h = canonical_h(1, 3, 3, conjugate=conjugate)
        for seed in range(20):
            x = random_vector(3, seed)
            u = domain_vector(h, x, seed)
            assert np.linalg.norm(intertwiner_F(h, x, x)(u) - u) < 1e-9

    def test_inverse_pair(self, conjugate):
        h = canonical_h(1, 3, 3, conjugate=conjugate)
        x, y = random_vector(3, 1), random_vector(3, 2)
        u = domain_vector(h, x, 3)
        roundtrip = intertwiner_F(h, x, y)(intertwiner_F(h, y, x)(u))
        assert np.linalg.norm(roundtrip - u) < 1e-9

    def test_composition(self, conjugate):
        h = canonical_h(1, 3, 3, conjugate=conjugate)
        x, y, z = (random_vector(3, s) for s in (4, 5, 6))
        u = domain_vector(h, x, 7)
        via_y = intertwiner_F(h, z, y)(intertwiner_F(h, y, x)(u))
        direct = intertwiner_F(h, z, x)(u)
        assert np.linalg.norm(via_y - direct) < 1e-9

    def test_additivity_in_target_label(self, conjugate):
        h = canonical_h(1, 3, 3, conjugate=conjugate)
        x, y, z = (random_vector(3, s) for s in (8, 9, 10))
        u = domain_vector(h, x, 11)
        lhs = intertwiner_F(h, y + z, x)(u)
        rhs = intertwiner_F(h, y, x)(u) + intertwiner_F(h, z, x)(u)
        assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_simultaneous_scaling_invariance(self, conjugate):
        h = canonical_h(1, 3, 3, conjugate=conjugate)
        x, y = random_vector(3, 12), random_vector(3, 13)
        lam = 0.8 - 1.1j
        u = domain_vector(h, y, 14)
        lhs = intertwiner_F(h, lam * x, lam * y)(u)
        rhs = intertwiner_F(h, x, y)(u)
        assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_isometry_at_equal_norms(self, conjugate):
        h = canonical_h(1, 3, 3, conjugate=conjugate)
        x = random_vector(3, 15)
        y = random_vector(3, 16)
        y = y * (np.linalg.norm(x) / np.linalg.norm(y))
        f = intertwiner_F(h, y, x)
        u1, u2 = domain_vector(h, x, 17), domain_vector(h, x, 18)
        lhs = np.vdot(f(u1), f(u2))
        rhs = np.vdot(u1, u2)
        assert abs(lhs - rhs) < 1e-10

    def test_scalar_action_is_pure(self, conjugate):
        # the two complementary projectors in the scalar action are
        # (id, 0) for the linear family and (0, id) for the antilinear one
        h = canonical_h(1, 3, 3, conjugate=conjugate)
        x = random_vector(3, 19)
        u = domain_vector(h, x, 20)
        lam = 0.4 + 1.7j
        out = intertwiner_F(h, lam * x, x)(u)
        expected = (np.conj(lam) if conjugate else lam) * u
        assert np.linalg.norm(out - expected) < 1e-9


class TestIntertwinerDomain:
    def test_outside_vector_rejected(self, pair33):
        h1, _ = pair33
        x, y = np.eye(3)[0], np.eye(3)[1]
        f = intertwiner_F(h1, y, x)
        outside = np.kron(np.eye(3)[2], random_vector(3, 1))
        with pytest.raises(NotInDomain):
            f(outside)

    def test_zero_source_label_rejected(self, pair33):
        h1, _ = pair33
        with pytest.raises(ZeroState):
            intertwiner_F(h1, np.eye(3)[1], np.zeros(3))

    def test_caller_tolerance_decides_the_domain(self, pair33):
        h1, _ = pair33
        e = np.eye(3)
        v = random_vector(3, 3)
        near = np.kron(e[0], v) + 1e-6 * np.kron(e[2], e[0])
        loose = Tolerance(eps_eq=1e-4)
        assert np.linalg.norm(intertwiner_F(h1, e[1], e[0], loose)(near) - np.kron(e[1], v)) < 1e-5
        with pytest.raises(NotInDomain):
            intertwiner_F(h1, e[1], e[0])(near)

    def test_degenerate_labels(self, pair33):
        h1, _ = pair33
        x = random_vector(3, 4)
        u = domain_vector(h1, x, 5)
        assert np.array_equal(intertwiner_F(h1, np.zeros(3), x)(u), np.zeros(9))
        with pytest.warns(UserWarning):
            h = canonical_h(1, 1, 3)
        with pytest.raises(InvalidDimension):
            intertwiner_F(h, 2.0 * np.ones(1), np.ones(1))

    def test_rank_inflating_map_is_no_graph(self):
        fake = make_rank_inflating()
        for seed in range(3):
            x, y = random_vector(3, seed), random_vector(3, seed + 10)
            with pytest.raises(AxiomViolation, match="m_morphism"):
                intertwiner_F(fake, y, x)


@pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 4), (5, 3)])
@pytest.mark.parametrize("twisted,conjugate", FLAG_PAIRS)
def test_derived_intertwiner_matches_the_closed_form(dims, twisted, conjugate):
    d1, d2 = dims
    twist = random_unitary(d1 * d2, 17 * d1 + d2) if twisted else None
    lam = 0.6 - 1.3j
    for side in (1, 2):
        h = canonical_h(side, d1, d2, twist=twist, conjugate=conjugate)
        d = h.source_dim
        x = random_vector(d, 10 * side + d1)
        domain = h.map_ray(x).basis
        for y in (random_vector(d, 10 * side + d2 + 100), lam * x, x):
            oracle = canonical_ray_map(side, d1, d2, twist, conjugate, y, x)
            derived = intertwiner_F(h, y, x)
            for u in domain.T:
                expected = oracle(u)
                scale = max(1.0, float(np.linalg.norm(expected)))
                assert np.linalg.norm(derived(u) - expected) / scale < 1e-12
        scalar = np.conj(lam) if conjugate else lam
        action = np.column_stack([intertwiner_F(h, lam * x, x)(u) for u in domain.T])
        assert np.linalg.norm(action - scalar * domain) / abs(lam) < 1e-12


class TestCommutation:
    def test_coordinate_vectors_commute_exactly(self, pair33):
        h1, h2 = pair33
        e = np.eye(3)
        report = check_commutation(h1, h2, e[0], e[1], e[0], e[2])
        assert report.holds
        assert report.worst_residual < 1e-12

    def test_generic_vectors_commute(self, pair33):
        h1, h2 = pair33
        report = check_commutation(
            h1,
            h2,
            random_vector(3, 1),
            random_vector(3, 2),
            random_vector(3, 3),
            random_vector(3, 4),
        )
        assert report.holds

    def test_scalar_multiple_extension(self, pair33):
        h1, h2 = pair33
        x1 = random_vector(3, 5)
        report = check_commutation(
            h1,
            h2,
            x1,
            (0.3 - 2.1j) * x1,
            random_vector(3, 6),
            random_vector(3, 7),
            allow_scalar_multiple=True,
        )
        assert report.holds

    def test_dependent_labels_rejected(self, pair33):
        h1, h2 = pair33
        x1 = random_vector(3, 8)
        with pytest.raises(PreconditionViolated):
            check_commutation(h1, h2, x1, 2.0 * x1, np.eye(3)[0], np.eye(3)[1])

    def test_commutation_with_twist(self):
        w = random_unitary(9, 21)
        h1 = canonical_h(1, 3, 3, twist=w)
        h2 = canonical_h(2, 3, 3, twist=w)
        report = check_commutation(
            h1,
            h2,
            random_vector(3, 22),
            random_vector(3, 23),
            random_vector(3, 24),
            random_vector(3, 25),
        )
        assert report.holds


class TestClassifyLinearity:
    def test_plain_embedding_is_linear(self, pair33):
        h1, _ = pair33
        assert classify_linearity(h1, seed=1) == "linear"

    def test_conjugated_embedding_is_antilinear(self):
        h = canonical_h(1, 3, 3, conjugate=True)
        assert classify_linearity(h, seed=2) == "antilinear"

    def test_twisted_variants_keep_their_class(self):
        w = random_unitary(12, 31)
        assert classify_linearity(canonical_h(1, 3, 4, twist=w), seed=3) == "linear"
        assert (
            classify_linearity(canonical_h(1, 3, 4, twist=w, conjugate=True), seed=4)
            == "antilinear"
        )

    def test_mixed_scalar_action_flagged_as_gemischt(self):
        fake = make_gemischt()
        assert classify_linearity(fake, seed=5) == GEMISCHT

    def test_map_only_morphisms_classify_and_commute(self):
        for conj1, conj2 in FLAG_PAIRS:
            h1 = map_only(canonical_h(1, 3, 3, conjugate=conj1))
            h2 = map_only(canonical_h(2, 3, 3, conjugate=conj2))
            assert classify_linearity(h1) == ("antilinear" if conj1 else "linear")
            assert classify_linearity(h2) == ("antilinear" if conj2 else "linear")
            labels = (random_vector(3, s) for s in range(4))
            assert check_commutation(h1, h2, *labels).holds


class TestMMorphism:
    def test_canonical_embedding_passes(self, pair33):
        h1, _ = pair33
        report = check_m_morphism(h1, trials=50, seed=1)
        assert report.holds
        assert report.worst_residual < 1e-9

    def test_conjugated_embedding_passes(self):
        h = canonical_h(1, 3, 3, conjugate=True)
        assert check_m_morphism(h, trials=30, seed=2).holds

    def test_colinear_pair_is_trivially_contained(self, pair33):
        h1, _ = pair33
        x = random_vector(3, 3)
        image = h1.map_ray(x - 2.0 * x)
        target = join(h1.map_ray(x), h1.map_ray(2.0 * x))
        assert equal(image, target)

    def test_rank_inflating_map_fails(self):
        fake = make_rank_inflating()
        report = check_m_morphism(fake, trials=50, seed=4)
        assert not report.holds
        assert report.law_name == "m_morphism"
        assert report.counterexample is not None


class TestBuildUV:
    def test_untwisted_u_is_normalized_product(self, pair33):
        h1, h2 = pair33
        u_map, _ = build_U_V(h1, h2)
        for seed in range(20):
            x1 = random_vector(3, seed)
            x2 = random_vector(3, seed + 40)
            expected = np.kron(x1, x2) / np.linalg.norm(x2)
            assert np.linalg.norm(u_map(x2, x1) - expected) < 1e-10

    def test_norm_preservation(self):
        w = random_unitary(9, 51)
        h1 = canonical_h(1, 3, 3, twist=w)
        h2 = canonical_h(2, 3, 3, twist=w)
        u_map, v_map = build_U_V(h1, h2)
        for seed in range(100):
            x1 = random_vector(3, seed)
            x2 = random_vector(3, seed + 200)
            assert np.linalg.norm(u_map(x2, x1)) == pytest.approx(
                np.linalg.norm(x1), abs=1e-10
            )
            assert np.linalg.norm(v_map(x1, x2)) == pytest.approx(
                np.linalg.norm(x2), abs=1e-10
            )

    def test_output_ray_is_the_atom_meet(self, pair33):
        h1, h2 = pair33
        u_map, _ = build_U_V(h1, h2)
        for seed in range(10):
            x1 = random_vector(3, seed)
            x2 = random_vector(3, seed + 60)
            out_ray = span_of([u_map(x2, x1)])
            assert equal(out_ray, meet(h1.map_ray(x1), h2.map_ray(x2)))

    def test_u_and_v_agree_at_equal_norms(self, pair33):
        h1, h2 = pair33
        u_map, v_map = build_U_V(h1, h2)
        x1 = random_vector(3, 70)
        x2 = random_vector(3, 71)
        x2 = x2 * (np.linalg.norm(x1) / np.linalg.norm(x2))
        assert np.linalg.norm(u_map(x2, x1) - v_map(x1, x2)) < 1e-10

    def test_additivity_and_scalar_action(self):
        for conjugate in (False, True):
            h1 = canonical_h(1, 3, 3, conjugate=conjugate)
            h2 = canonical_h(2, 3, 3, conjugate=conjugate)
            u_map, _ = build_U_V(h1, h2)
            x2 = random_vector(3, 80)
            a, b = random_vector(3, 81), random_vector(3, 82)
            assert np.linalg.norm(
                u_map(x2, a + b) - u_map(x2, a) - u_map(x2, b)
            ) < 1e-10
            lam = 1.4 - 0.6j
            expected_scale = np.conj(lam) if conjugate else lam
            assert np.linalg.norm(
                u_map(x2, lam * a) - expected_scale * u_map(x2, a)
            ) < 1e-10

    def test_zero_slice_label_rejected(self, pair33):
        h1, h2 = pair33
        u_map, _ = build_U_V(h1, h2)
        with pytest.raises(ZeroState):
            u_map(np.zeros(3), np.eye(3)[0])

    def test_default_anchors_span_the_atom_meet(self, pair33):
        h1, h2 = pair33
        z1, z2, z = default_anchors(h1, h2)
        assert np.allclose(z1, np.eye(3)[0]) and np.allclose(z2, np.eye(3)[0])
        assert meet(h1.map_ray(z1), h2.map_ray(z2)).contains(z)
        # deterministic phase convention: leading coordinate real positive
        lead = z[int(np.argmax(np.abs(z)))]
        assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_default_anchors_take_one_meet(self, pair33, monkeypatch):
        # the basis map takes its anchors from default_anchors, whose z
        # spans the meet of the anchor rays' images: one meet in all
        meets = []
        original = sub.meet
        monkeypatch.setattr(sub, "meet", lambda *args: meets.append(args) or original(*args))
        build_basis_map(*pair33)
        assert len(meets) == 1


class TestCompositeOnb:
    def test_untwisted_basis_is_standard(self, pair33):
        h1, h2 = pair33
        vectors = composite_onb(h1, h2)
        matrix = np.column_stack(vectors)
        assert np.linalg.norm(matrix - np.eye(9)) < 1e-10

    @pytest.mark.parametrize("dims", [(3, 3), (3, 4), (4, 4)])
    def test_gram_identity(self, dims):
        d1, d2 = dims
        w = random_unitary(d1 * d2, 90 + d1 + d2)
        h1 = canonical_h(1, d1, d2, twist=w)
        h2 = canonical_h(2, d1, d2, twist=w)
        vectors = composite_onb(h1, h2)
        matrix = np.column_stack(vectors)
        gram = matrix.conj().T @ matrix
        assert np.linalg.norm(gram - np.eye(d1 * d2)) < 1e-8

    def test_spans_whole_space(self):
        w = random_unitary(9, 93)
        h1 = canonical_h(1, 3, 3, twist=w)
        h2 = canonical_h(2, 3, 3, twist=w)
        matrix = np.column_stack(composite_onb(h1, h2))
        assert np.linalg.matrix_rank(matrix) == 9

    def test_rejects_nonorthonormal_basis(self, pair33):
        h1, h2 = pair33
        skew = [np.eye(3)[0], np.eye(3)[0] + np.eye(3)[1], np.eye(3)[2]]
        with pytest.raises(NotOrthonormal):
            composite_onb(h1, h2, basis1=skew)

    def test_gram_identity_for_antilinear_pair_with_complex_bases(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3, conjugate=True)
        e = random_unitary(3, 910)
        f = random_unitary(3, 911)
        vectors = composite_onb(
            h1,
            h2,
            basis1=[e[:, k] for k in range(3)],
            basis2=[f[:, k] for k in range(3)],
        )
        matrix = np.column_stack(vectors)
        assert np.linalg.norm(matrix.conj().T @ matrix - np.eye(9)) < 1e-8


class TestBasisMap:
    def test_untwisted_linear_pair_is_identity(self, pair33):
        h1, h2 = pair33
        bm = build_basis_map(h1, h2)
        assert bm.target == "H1xH2"
        assert not bm.antiunitary
        v = random_vector(9, 1)
        assert np.linalg.norm(bm.apply(v) - v) < 1e-10

    def test_conjugated_pair_conjugates_coefficients(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3, conjugate=True)
        bm = build_basis_map(h1, h2)
        assert bm.target == "H1xH2"
        assert bm.antiunitary
        v = random_vector(9, 2)
        assert np.linalg.norm(bm.apply(v)) == pytest.approx(np.linalg.norm(v), abs=1e-10)

    @pytest.mark.parametrize(
        "conj1,conj2,target",
        [
            (False, False, "H1xH2"),
            (True, True, "H1xH2"),
            (True, False, "H1*xH2"),
            (False, True, "H1*xH2"),
        ],
    )
    def test_case_dispatch(self, conj1, conj2, target):
        h1 = canonical_h(1, 3, 3, conjugate=conj1)
        h2 = canonical_h(2, 3, 3, conjugate=conj2)
        bm = build_basis_map(h1, h2)
        assert bm.target == target
        assert bm.index.dual_first_factor == (conj1 != conj2)

    def test_norm_preserved_on_random_vectors(self):
        w = random_unitary(9, 94)
        h1 = canonical_h(1, 3, 3, twist=w, conjugate=True)
        h2 = canonical_h(2, 3, 3, twist=w)
        bm = build_basis_map(h1, h2)
        for seed in range(30):
            v = random_vector(9, seed)
            assert np.linalg.norm(bm.apply(v)) == pytest.approx(
                np.linalg.norm(v), abs=1e-10
            )

    def test_basis_independence(self, pair33):
        h1, h2 = pair33
        bm_std = build_basis_map(h1, h2)
        e = random_unitary(3, 95)
        f = random_unitary(3, 96)
        bm_alt = build_basis_map(
            h1,
            h2,
            basis1=[e[:, k] for k in range(3)],
            basis2=[f[:, k] for k in range(3)],
        )
        for seed in range(50):
            v = random_vector(9, seed)
            assert np.linalg.norm(bm_std.apply(v) - bm_alt.apply(v)) < 1e-8

    def test_matrix_basis_is_read_by_columns(self):
        # a basis given as a matrix means its columns, as a list of vectors
        # means its entries; a unitary's rows are another basis, so reading
        # the rows would give a different map
        w = random_unitary(9, 98)
        h1 = canonical_h(1, 3, 3, twist=w, conjugate=True)
        h2 = canonical_h(2, 3, 3, twist=w)
        e, f = random_unitary(3, 99), random_unitary(3, 100)
        from_matrix = build_basis_map(h1, h2, basis1=e, basis2=f)
        from_columns = build_basis_map(h1, h2, basis1=list(e.T), basis2=list(f.T))
        from_rows = build_basis_map(h1, h2, basis1=list(e), basis2=list(f))
        assert np.array_equal(from_matrix.matrix, from_columns.matrix)
        assert np.array_equal(
            from_matrix.coefficient_transform, from_columns.coefficient_transform
        )
        assert not np.allclose(from_matrix.matrix, from_rows.matrix)
        assert np.array_equal(
            np.column_stack(composite_onb(h1, h2, basis1=e, basis2=f)), from_matrix.matrix
        )

    def test_map_only_pairs_verify_with_the_canonical_target(self):
        for conj1, conj2 in FLAG_PAIRS:
            h1 = map_only(canonical_h(1, 3, 3, conjugate=conj1))
            h2 = map_only(canonical_h(2, 3, 3, conjugate=conj2))
            sweep = sweep_axioms(h1, h2, 10, 7)
            report = verify_tensor_isomorphism(sweep, trials=10, axiom_trials=10)
            assert report.passed
            assert report.target == ("H1*xH2" if conj1 != conj2 else "H1xH2")

    def test_round_trip(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3)
        bm = build_basis_map(h1, h2)
        v = random_vector(9, 97)
        assert np.linalg.norm(bm.apply_inverse(bm.apply(v)) - v) < 1e-10


class TestTensorIsomorphism:
    def test_untwisted_linear_case(self, pair33):
        h1, h2 = pair33
        report = verify_tensor_isomorphism(sweep_axioms(h1, h2, 50, 1), trials=25, axiom_trials=50)
        assert report.passed
        assert report.target == "H1xH2"
        assert report.linearity == ("linear", "linear")
        assert report.worst_residual < 1e-8

    def test_twisted_case_lifts_to_twist_conjugation(self):
        w = random_unitary(9, 98)
        h1 = canonical_h(1, 3, 3, twist=w)
        h2 = canonical_h(2, 3, 3, twist=w)
        report = verify_tensor_isomorphism(sweep_axioms(h1, h2, 50, 2), trials=20, axiom_trials=50)
        assert report.passed and report.target == "H1xH2"
        bm = build_basis_map(h1, h2)
        for seed in range(5):
            g = span_of([random_vector(9, seed), random_vector(9, seed + 5)])
            lifted = bm.lift(g)
            expected = span_of([w @ g.basis[:, k] for k in range(g.dim)])
            assert equal(lifted, expected)

    def test_antilinear_case(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3, conjugate=True)
        report = verify_tensor_isomorphism(sweep_axioms(h1, h2, 50, 3), trials=20, axiom_trials=50)
        assert report.passed and report.target == "H1xH2"
        assert report.linearity == ("antilinear", "antilinear")

    def test_mixed_case_targets_dual_product(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3)
        report = verify_tensor_isomorphism(sweep_axioms(h1, h2, 50, 4), trials=20, axiom_trials=50)
        assert report.passed and report.target == "H1*xH2"

    def test_unequal_factor_dimensions(self):
        # isometry between the factors is never used downstream, so
        # nothing requires d1 == d2
        h1 = canonical_h(1, 3, 4)
        h2 = canonical_h(2, 3, 4)
        report = verify_tensor_isomorphism(sweep_axioms(h1, h2, 15, 6), trials=10, axiom_trials=15)
        assert report.passed and report.target == "H1xH2"

    def test_refuses_on_axiom_failure(self, pair33):
        sweep = sweep_axioms(make_slice_embedding(), pair33[1], 50, 5)
        with pytest.raises(AxiomViolation):
            verify_tensor_isomorphism(sweep, trials=5, axiom_trials=50)

    def test_refuses_when_the_anchor_rays_do_not_meet(self):
        # the basis map is built before the axiom sweep, so its anchors
        # are the first thing such a pair fails
        h1 = canonical_h(1, 3, 3)
        h2 = canonical_h(2, 3, 3, twist=random_unitary(9, 99))
        with pytest.raises(AxiomViolation, match="III_atoms"):
            verify_tensor_isomorphism(sweep_axioms(h1, h2, 50, 5), trials=5, axiom_trials=50)


# verify_axioms as it ran before the batched sweep: trial by trial with
# the single-seed samplers, each axiom up to its first failure.  The
# batched sweep and its prefix fold must reproduce it byte for byte.


def per_trial_axioms(h1, h2, trials, seed, tol=DEFAULT_TOL):
    def sweep(morphisms, side, sample):
        worst = 0.0
        for trial in range(trials):
            for kind, subspaces in sample(trial):
                holds, residual = composite._AXIOM_CHECKS[kind](composite._Memo(tol), *morphisms,
                                                                 *subspaces)
                worst = max(worst, residual)
                if not holds:
                    return worst, composite._axiom_ce(kind, side, subspaces), trial + 1
        return worst, None, trials

    worst, ce, samples = 0.0, None, 0
    for side, h in ((1, h1), (2, h2)):
        d = h.source_dim
        samples += 1
        if not composite._AXIOM_CHECKS["unitarity"](composite._Memo(tol), h)[0]:
            ce = composite._axiom_ce("unitarity", side, ())
            continue
        samples += 1
        if not composite._AXIOM_CHECKS["zero"](composite._Memo(tol), h)[0]:
            ce = composite._axiom_ce("zero", side, ())
            continue

        def c_morphism_checks(trial, side=side, d=d):
            p, q, r = sub.random_family((d, d, d), subseed(seed, f"axiom1_side{side}", trial),
                                        proper=False)
            cp, cq = sub.compatible_pair(d, subseed(seed, f"compat{side}", trial))
            return (("join", (p, q)), ("family_join", (p, q, r)), ("complement", (p,)),
                    ("compat_preservation", (cp, cq)))

        side_worst, failure, run = sweep((h,), side, c_morphism_checks)
        worst, samples = max(worst, side_worst), samples + run
        if failure is not None:
            ce = failure
            break
    reports = [AxiomReport("I_c_morphism", ce is None, samples, worst, ce)]

    def cross_checks(trial):
        s = subseed(seed, "axiom2", trial)
        p1, p2 = sub.random_family((h1.source_dim, h2.source_dim), s, proper=False)
        return (("compatibility", (p1, p2)),)

    def atom_checks(trial):
        s = subseed(seed, "axiom3", trial)
        r1 = span_of([random_vector(h1.source_dim, s)], tol)
        r2 = span_of([random_vector(h2.source_dim, s + 1)], tol)
        return (("atom_meet", (r1, r2)),)

    for axiom, checks in (("II_compatibility", cross_checks), ("III_atoms", atom_checks)):
        worst, ce, _ = sweep((h1, h2), None, checks)
        reports.append(AxiomReport(axiom, ce is None, trials, worst, ce))
    return reports


def report_bytes(reports):
    return json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)


def make_sometimes_twisted(d1=3, d2=3):
    """Canonical, except that rays near the first coordinate axis go through
    a fixed twist: axioms I-III each fail from some later trial on."""
    base = canonical_h(1, d1, d2)
    twisted = canonical_h(1, d1, d2, twist=random_unitary(d1 * d2, 5))

    def embed(p):
        return twisted.map(p) if p.dim == 1 and abs(p.basis[0, 0]) > 0.8 else base.map(p)

    return SubspaceMorphism(d1, d1 * d2, embed)


def make_dim_skipping(d1=3, d2=4):
    """A second-factor map sending its (d2 - 1)-dimensional subspaces to the
    full image: joins and complements fail on some trials only."""
    base = canonical_h(2, d1, d2)
    top = base.map(full_subspace(d2))

    def embed(p):
        return top if p.dim == d2 - 1 else base.map(p)

    return SubspaceMorphism(d2, d1 * d2, embed)


def canonical_pair(d1, d2, twisted, conj1, conj2, twist_seed=41):
    twist = random_unitary(d1 * d2, twist_seed) if twisted else None
    return (canonical_h(1, d1, d2, twist=twist, conjugate=conj1),
            canonical_h(2, d1, d2, twist=twist, conjugate=conj2))


SWEEP_PAIRS = {
    "plain": lambda: canonical_pair(3, 3, False, False, False),
    "twist": lambda: canonical_pair(4, 4, True, False, False),
    "conjugated": lambda: canonical_pair(3, 4, False, True, True),
    "mixed": lambda: canonical_pair(4, 3, True, True, False),
    **{name: make for name, (make, _) in TAMPERED_PAIRS.items()},
    # side 1 passes and side 2 fails, or both sides fail
    "second-oblique": lambda: (canonical_h(1, 3, 3), make_oblique()),
    "slice-then-oblique": lambda: (make_slice_embedding(), make_oblique()),
    "zero-then-slice": lambda: (make_zero_to_full(), make_slice_embedding()),
    "sometimes-twisted": lambda: (make_sometimes_twisted(), canonical_h(2, 3, 3)),
    "dim-skipping": lambda: (canonical_h(1, 3, 4), make_dim_skipping()),
}


class TestBatchedAxiomSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_PAIRS))
    @pytest.mark.parametrize("trials", [1, 10, 25])
    def test_batched_reports_equal_the_per_trial_fold(self, name, trials):
        h1, h2 = SWEEP_PAIRS[name]()
        seed = 3 + trials
        batched = report_bytes(verify_axioms(h1, h2, trials=trials, seed=seed))
        assert batched == report_bytes(per_trial_axioms(h1, h2, trials, seed))

    @pytest.mark.parametrize("name", ["twist", "sometimes-twisted", "dim-skipping"])
    def test_every_prefix_folds_to_its_own_sweep(self, name):
        h1, h2 = SWEEP_PAIRS[name]()
        sweep = sweep_axioms(h1, h2, 25, 0)
        for n in range(26):
            alone = report_bytes(sweep_axioms(h1, h2, n, 0).reports(n))
            assert report_bytes(sweep.reports(n)) == alone, (name, n)
        assert all(r.passed for r in sweep.reports(25)) == (name == "twist")

    def test_tampered_maps_fail_on_later_trials(self):
        # the prefix checks above are only as strong as the failing trials
        # are spread: each axiom of these pairs fails past its first trial
        for name in ("sometimes-twisted", "dim-skipping"):
            h1, h2 = SWEEP_PAIRS[name]()
            sweep = sweep_axioms(h1, h2, 25, 0)
            checks = [*sweep.cross, *(c for _, _, c in sweep.sides if c is not None)]
            runs = [composite._first_failure(c, None, 25)[2] for c in checks]
            assert any(1 < run < 25 for run in runs), (name, runs)

    def test_a_prefix_longer_than_the_sweep_is_refused(self, pair33):
        with pytest.raises(ValueError):
            sweep_axioms(*pair33, 4, 0).reports(5)

    def test_a_given_sweep_is_folded_not_redrawn(self, pair33, monkeypatch):
        sweep = sweep_axioms(*pair33, 12, 1)
        monkeypatch.setattr(composite, "sweep_axioms", None)
        report = verify_tensor_isomorphism(sweep, trials=3, axiom_trials=12)
        assert report.axiom_reports == sweep.reports(12)


def counting(monkeypatch, module, names):
    """Wrap module's functions ``names`` to record the seeds of each call."""
    seen = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            seed = kwargs.get("seed", args[1])
            seen[_name].append(len(seed) if isinstance(seed, np.ndarray) else None)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return seen


@pytest.mark.parametrize("trials, swept", [(25, 25), (4, 10)])
def test_one_composite_verify_run_draws_each_axiom_batch_once(capsys, monkeypatch, trials, swept):
    seen = counting(monkeypatch, sub, ("random_family", "compatible_pair", "random_ray"))
    argv = ["composite-verify", "--dim1", "3", "--dim2", "3", "--twist", "--trials", str(trials)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)["results"]
    # axiom I on both sides and axiom II; the pairs of axiom I; the rays of
    # axiom III (both factors) and of the isomorphism's atoms
    assert seen == {"random_family": [swept] * 3, "compatible_pair": [swept] * 2,
                    "random_ray": [swept, swept, trials]}
    assert report["axioms"][1]["samples"] == trials
    assert report["isomorphism"]["axioms"][1]["samples"] == max(10, trials // 2)


# check_m_morphism as it ran before its trials became one batch: trial by
# trial, three single-ray morphism calls each, up to the first failure.  It
# records the counterexample the batch records: the x, y and x - y rays as
# p, q and r of side 1, which recheck_axiom_counterexample replays.


def per_trial_m_morphism(h, trials, seed, tol=DEFAULT_TOL):
    worst = 0.0
    for trial in range(trials):
        s = subseed(seed, "mmorph", trial)
        x = random_vector(h.source_dim, s)
        if trial % 5 == 4:
            y = 2.0 * x
        else:
            y = random_vector(h.source_dim, s + 1)
        diff = x - y
        if float(np.linalg.norm(diff)) < tol.eps_rank:  # never taken: x - y is -x or Gaussian
            continue
        rays = [span_of([v], tol) for v in (x, y, diff)]
        p, q, r = (h(ray) for ray in rays)
        included, residual = sub.inclusion(r, join(p, q, tol), tol)
        worst = max(worst, residual)
        if not included:
            report = LawReport("m_morphism", False, trials=trial + 1, worst_residual=worst)
            report.counterexample = {"kind": "m_morphism", "side": 1}
            report.counterexample.update(zip("pqr", map(sub.subspace_to_json, rays)))
            return report
    return LawReport("m_morphism", True, trials=trials, worst_residual=worst)


M_MORPHISMS = {
    "canonical-3x3": lambda: canonical_h(1, 3, 3),
    "conjugated-3x4": lambda: canonical_h(1, 3, 4, conjugate=True),
    "twisted-4x4": lambda: canonical_h(2, 4, 4, twist=random_unitary(16, 41)),
    "map-only-3x5": lambda: map_only(canonical_h(2, 3, 5)),
    "rank-inflating": make_rank_inflating,
    "slice-embedding": make_slice_embedding,
    "gemischt": make_gemischt,
    "oblique": make_oblique,
    # fails past trial 1, so a counterexample is read off a later trial
    "sometimes-twisted": make_sometimes_twisted,
}


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(1e-12)], ids=["default", "1e-12"])
@pytest.mark.parametrize("name", sorted(M_MORPHISMS))
def test_batched_m_morphism_equals_the_per_trial_loop(name, tol):
    h = M_MORPHISMS[name]()
    differ, runs = [], set()
    for trials, seed in itertools.product((0, 1, 7, 50), (0, 1, 2, 4)):
        batched = check_m_morphism(h, trials, seed, tol).to_json()
        if batched != per_trial_m_morphism(h, trials, seed, tol).to_json():
            differ.append((trials, seed))
        runs.add((batched["holds"], batched["trials"]))
    assert differ == []
    failing = {n for holds, n in runs if not holds}
    assert bool(failing) == (name in ("rank-inflating", "sometimes-twisted"))
    if name == "sometimes-twisted":
        assert max(failing) > 1


@pytest.mark.parametrize("make", [make_rank_inflating, make_sometimes_twisted])
def test_m_morphism_counterexample_replays_from_json(make):
    h = make()
    report = check_m_morphism(h, trials=50, seed=4)
    assert not report.holds
    ce = json.loads(json.dumps(report.to_json()))["counterexample"]
    assert ce["kind"] == "m_morphism" and ce["side"] == 1
    assert recheck_axiom_counterexample(h, h, ce)
    canonical = canonical_h(1, 3, 3)
    assert not recheck_axiom_counterexample(canonical, canonical, ce)


def test_one_m_morphism_check_maps_each_ray_batch_once(monkeypatch, pair33):
    calls = []
    original = SubspaceMorphism.__call__

    def counted(self, p):
        calls.append(len(p.elements()))
        return original(self, p)

    monkeypatch.setattr(SubspaceMorphism, "__call__", counted)
    assert check_m_morphism(pair33[0], trials=50, seed=1).holds
    assert calls == [50, 50, 50]


LIFT_PAIRS = [(3, 3, False, False, False), (3, 4, True, False, False),
              (4, 3, True, True, True), (3, 3, True, True, False), (3, 4, False, False, True)]


@pytest.mark.parametrize("config", LIFT_PAIRS)
def test_batched_lifts_equal_each_element_lift(config):
    bm = build_basis_map(*canonical_pair(*config))
    dim = bm.index.dim
    ks = [0, dim, 1, dim - 1, 0, 2, 1, 1, 3, 0, dim]
    seeds = np.array([subseed(9, "lift", t) for t in range(len(ks))], dtype=object)
    g = sub.random_subspace(dim, ks, seeds)
    for lift in (bm.lift, bm.lift_inverse):
        batch = lift(g)
        assert isinstance(batch.basis, tuple) and len(batch.basis) == len(ks)
        for b, element in zip(batch.basis, g.basis):
            alone = lift(Subspace(dim, element)).basis
            assert alone.shape == b.shape == element.shape
            assert np.array_equal(b, alone)
    # the lift spans the images of the basis vectors, as a per-column map would
    for element in g.basis:
        if element.shape[1]:
            lifted = bm.lift(Subspace(dim, element))
            assert equal(lifted, span_of([bm.apply(v) for v in element.T]))
            assert equal(bm.lift_inverse(lifted), Subspace(dim, element))


# The isomorphism trials as verify_tensor_isomorphism checked them one by
# one before they ran as one batch: the failures named, in order, and the
# worst residual.


def per_trial_isomorphism(bm, trials, seed, tol=DEFAULT_TOL):
    dim, same = bm.index.dim, composite._same
    worst, failures = 0.0, []
    for trial in range(trials):
        s = subseed(seed, "tensoriso", trial)
        rng = np.random.default_rng(s)
        g1 = sub.random_subspace(dim, int(rng.integers(0, dim + 1)), s)
        g2 = sub.random_subspace(dim, int(rng.integers(1, dim)), s + 1)
        l1, l2 = bm.lift(g1, tol), bm.lift(g2, tol)
        checks = [
            ("join", same(bm.lift(sub.join(g1, g2, tol), tol), sub.join(l1, l2, tol), tol)),
            ("meet", same(bm.lift(sub.meet(g1, g2, tol), tol), sub.meet(l1, l2, tol), tol)),
            ("ortho", same(bm.lift(sub.ortho(g1), tol), sub.ortho(l1), tol)),
            ("atom", composite._atom(bm.lift(span_of([random_vector(dim, s + 2)], tol), tol))),
            ("roundtrip", same(bm.lift_inverse(l1, tol), g1, tol)),
        ]
        if sub.leq(g1, sub.join(g1, g2, tol), tol):
            checks.append(("leq", (sub.leq(l1, sub.join(l1, l2, tol), tol), 0.0)))
        for op, (ok, residual) in checks:
            worst = max(worst, residual)
            if not ok:
                failures.append(f"{op}@{trial}")
    return failures, worst


class TestBatchedIsomorphism:
    @pytest.mark.parametrize("config", LIFT_PAIRS)
    def test_batched_trials_equal_the_per_trial_loop(self, config):
        h1, h2 = canonical_pair(*config)
        bm = build_basis_map(h1, h2)
        report = verify_tensor_isomorphism(sweep_axioms(h1, h2, 3, 2), trials=15, axiom_trials=3)
        assert (report.failures, report.worst_residual) == per_trial_isomorphism(bm, 15, 2)
        assert report.passed and report.trials == 15

    def test_agrees_where_some_trials_fail(self, monkeypatch):
        # a meet and a join that drop their result where the first entry of
        # p's first basis vector is small fail on the tensor side or on the
        # twisted composite side alone, on some trials; the axioms are
        # swept before they break
        h1, h2 = canonical_pair(3, 3, True, False, False)
        sweep = sweep_axioms(h1, h2, 10, 4)

        def per_element(op):
            def broken(p, q, out):
                small = p.dim and abs(p.basis[0, 0]) < 0.3
                return zero_subspace(p.ambient_dim) if small else out

            def patched(p, q, tol=DEFAULT_TOL):
                out = op(p, q, tol)
                if not p.is_batch:
                    return broken(p, q, out)
                parts = map(broken, p.elements(), q.elements(), out.elements())
                return Subspace.batch(out.ambient_dim, parts)
            return patched

        monkeypatch.setattr(sub, "meet", per_element(sub.meet))
        monkeypatch.setattr(sub, "join", per_element(sub.join))
        report = verify_tensor_isomorphism(sweep, trials=30, axiom_trials=10)
        failures, worst = per_trial_isomorphism(build_basis_map(h1, h2), 30, 4)
        assert (report.failures, report.worst_residual) == (failures, worst)
        assert 0 < len({f.split("@")[1] for f in failures}) < 30
        assert {f.split("@")[0] for f in failures} >= {"join", "meet"}


# Each image, join, ray image and frame of a composite-verify run is
# computed once.  The counts come from wrapping SubspaceMorphism.__call__,
# subspace.join and core._gaussian; the oracles below compute the same
# values the way the module did before it shared them.


def recording(monkeypatch, owner, name):
    """Wrap owner.name to record (arguments, result) of each call; the
    record holds the objects, so no id recurs while it lives."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(owner, name, recorded)
    return calls


def uncached_sweep(sweep):
    """``sweep`` with each _AXIOM_CHECKS entry run again on its batches,
    every entry through a fresh _Memo, so that no check sees another's
    images or joins: the oracle of the memo that _checked shares."""
    tol = sweep.tol

    def rerun(morphisms, checks):
        out = []
        for kind, _, _, batches in checks:
            holds, residual = composite._AXIOM_CHECKS[kind](composite._Memo(tol), *morphisms,
                                                             *batches)
            trials = len(batches[0].elements())
            out.append((kind, np.broadcast_to(holds, trials), np.broadcast_to(residual, trials),
                        batches))
        return out

    sides = tuple((side, precheck, checks and rerun(((sweep.h1, sweep.h2)[side - 1],), checks))
                  for side, precheck, checks in sweep.sides)
    cross = tuple(rerun((sweep.h1, sweep.h2), checks) for checks in sweep.cross)
    return dataclasses.replace(sweep, sides=sides, cross=cross)


class TestOneSweepComputesEachImageOnce:
    @pytest.mark.parametrize("name", ["plain", "twist", "conjugated", "dim-skipping"])
    def test_each_batch_is_mapped_and_each_pair_joined_once_per_side(self, monkeypatch, name):
        h1, h2 = SWEEP_PAIRS[name]()
        maps = recording(monkeypatch, SubspaceMorphism, "__call__")
        joins = recording(monkeypatch, sub, "join")
        sweep = sweep_axioms(h1, h2, 12, 5)
        keys = [(id(h), id(p)) for (h, p), _ in maps]
        assert len(keys) == len(set(keys))
        assert len(joins) == len({(id(p), id(q)) for (p, q, *_), _ in joins})
        for (side, _, checks), h in zip(sweep.sides, (h1, h2)):
            p, q, r = checks[1][3]
            images = {id(b): out for (g, b), out in maps if g is h}
            assert all(id(b) in images for b in (p, q, r))
            pairs = [(id(a), id(b)) for (a, b, *_), _ in joins]
            assert pairs.count((id(p), id(q))) == 1
            assert pairs.count((id(images[id(p)]), id(images[id(q)]))) == 1

    @pytest.mark.parametrize("name", sorted(SWEEP_PAIRS))
    def test_reports_equal_the_uncached_fold(self, name):
        h1, h2 = SWEEP_PAIRS[name]()
        sweep = sweep_axioms(h1, h2, 15, 2)
        oracle = uncached_sweep(sweep)
        for n in (0, 1, 7, 15):
            assert report_bytes(sweep.reports(n)) == report_bytes(oracle.reports(n)), n

    def test_a_map_taking_one_subspace_verifies_through_the_memo(self):
        h1, h2 = canonical_pair(3, 4, True, False, True)
        seen = ([], [])

        def one_at_a_time(h, bases):
            def mapped(p):
                assert not p.is_batch
                bases.append(p.basis)
                return h.map(p)
            return SubspaceMorphism(h.source_dim, h.target_dim, mapped)

        plain = (one_at_a_time(h1, seen[0]), one_at_a_time(h2, seen[1]))
        reports = verify_axioms(*plain, trials=10, seed=4)
        # the memo maps each element of a batch once: no basis array twice
        for bases in seen:
            assert len(bases) > 10 and len({id(b) for b in bases}) == len(bases)
        assert report_bytes(reports) == report_bytes(verify_axioms(h1, h2, trials=10, seed=4))
        assert all(r.passed for r in reports)
        iso = verify_tensor_isomorphism(sweep_axioms(*plain, 10, 4), trials=5, axiom_trials=10)
        assert iso.passed

    def test_a_patched_broken_map_records_and_replays_its_counterexample(self, monkeypatch):
        h1, h2 = canonical_pair(3, 4, False, False, False)
        base = h2.map
        top = base(full_subspace(4))
        bases = []

        def broken(p):
            bases.append(p.basis)
            return top if p.dim == 3 else base(p)

        monkeypatch.setattr(h2, "map", broken)
        reports = verify_axioms(h1, h2, trials=20, seed=1)
        assert len({id(b) for b in bases}) == len(bases)
        ce = reports[0].counterexample
        assert not reports[0].passed and ce["side"] == 2
        assert ce["kind"] in ("join", "family_join", "complement")
        assert recheck_axiom_counterexample(h1, h2, ce)
        assert not recheck_axiom_counterexample(*canonical_pair(3, 4, False, False, False), ce)

    def test_equal_batches_are_each_mapped(self, monkeypatch, pair33):
        h = pair33[0]
        seeds = np.array([3, 4, 5], dtype=object)
        p = sub.random_subspace(3, [1, 2, 1], seeds)
        twin = Subspace(3, tuple(b.copy() for b in p.basis))
        maps = recording(monkeypatch, SubspaceMorphism, "__call__")
        joins = recording(monkeypatch, sub, "join")
        memo = composite._Memo(DEFAULT_TOL)
        image, twin_image = memo.image(h, p), memo.image(h, twin)
        assert twin_image is not image and memo.image(h, p) is image
        assert [args[1] for args, _ in maps] == [p, twin]
        assert all(np.array_equal(a, b) for a, b in zip(image.basis, twin_image.basis))
        assert memo.image(pair33[1], sub.random_subspace(3, [1, 1, 1], seeds)) is not image
        joined = memo.join(p, twin)
        assert memo.join(twin, p) is not joined and memo.join(p, twin) is joined
        assert len(joins) == 2

    def test_the_memo_holds_its_keys(self, pair33):
        memo = composite._Memo(DEFAULT_TOL)
        p = sub.random_subspace(3, [1, 2], np.array([1, 2], dtype=object))
        key = weakref.ref(p)
        image = memo.image(pair33[0], p)
        del p
        gc.collect()
        assert key() is not None
        assert memo.image(pair33[0], key()) is image


def single_ray_matrix(h, y, x, tol=DEFAULT_TOL):
    """F_{y,x} derived one ray at a time, each ray mapped on its own: the
    oracle of the batched derivation."""
    xv, yv = as_vector(x), as_vector(y)
    if rank(np.column_stack([xv, yv]), tol) < 2:
        z = np.eye(h.source_dim, dtype=complex)[int(np.argmin(np.abs(xv)))]
        return single_ray_matrix(h, yv, z, tol) @ single_ray_matrix(h, z, xv, tol)
    bx, by, bd = (h.map_ray(v).basis for v in (xv, yv, xv - yv))
    coef = np.linalg.lstsq(np.hstack([bx, -by]), bd, rcond=None)[0]
    k = bx.shape[1]
    return by @ np.linalg.solve(coef[:k].T, coef[k:].T).T @ bx.conj().T


def single_ray_onb(h1, h2, tol=DEFAULT_TOL):
    """The basis map's matrix on the coordinate bases, one ray at a time."""
    z1, z2, z = default_anchors(h1, h2, tol)
    alpha = float(np.linalg.norm(z1) * np.linalg.norm(z2) / np.linalg.norm(z))
    e, f = np.eye(h1.source_dim, dtype=complex), np.eye(h2.source_dim, dtype=complex)
    k_steps = np.column_stack([single_ray_matrix(h2, y, z2, tol) @ z for y in f.T])
    return alpha * np.hstack([single_ray_matrix(h1, x, z1, tol) @ k_steps for x in e.T])


class TestBasisMapMapsRaysInBatches:
    def test_the_twisted_4x4_map_takes_few_morphism_calls(self, monkeypatch):
        h1, h2 = canonical_pair(4, 4, True, False, False)
        oracle = single_ray_onb(h1, h2)
        maps = recording(monkeypatch, SubspaceMorphism, "__call__")
        bm = build_basis_map(h1, h2)
        assert len(maps) <= 10
        assert bm.matrix.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("config", [*LIFT_PAIRS, (5, 3, True, True, True),
                                        (3, 5, False, True, False)])
    def test_the_matrix_equals_the_single_ray_derivation(self, config):
        h1, h2 = canonical_pair(*config)
        assert build_basis_map(h1, h2).matrix.tobytes() == single_ray_onb(h1, h2).tobytes()

    @pytest.mark.parametrize("config", LIFT_PAIRS)
    def test_intertwiners_equal_the_single_ray_derivation(self, config):
        for h in canonical_pair(*config):
            d = h.source_dim
            x = random_vector(d, 7)
            for y in (random_vector(d, 8), (0.3 - 2j) * x, x, np.eye(d)[0]):
                domain = h.map_ray(x)
                u = domain.basis @ random_vector(domain.dim, 9)
                assert np.array_equal(intertwiner_F(h, y, x)(u), single_ray_matrix(h, y, x) @ u)


class TestIsomorphismDrawsEachFrameOnce:
    def test_g1_and_g2_come_from_one_draw(self, monkeypatch):
        h1, h2 = canonical_pair(4, 4, True, False, False)
        sweep = sweep_axioms(h1, h2, 12, 101)
        trials = 25
        drawn = recording(monkeypatch, core, "_gaussian")
        subspaces = recording(monkeypatch, sub, "random_subspace")
        assert verify_tensor_isomorphism(sweep, trials=trials, axiom_trials=12).passed
        keys = [args for args, _ in drawn]
        assert len(keys) == len(set(keys))
        monkeypatch.undo()
        # the two-call draw
        seeds = np.array([subseed(101, "tensoriso", t) for t in range(trials)], dtype=object)
        rngs = [np.random.default_rng(s) for s in seeds]
        dims = [(rng.integers(0, 17), rng.integers(1, 16)) for rng in rngs]
        g1 = sub.random_subspace(16, [k for k, _ in dims], seeds)
        g2 = sub.random_subspace(16, [k for _, k in dims], seeds + 1)
        assert len(set(keys)) == len({(16, s) for s in [*seeds, *(seeds + 1)]})
        merged = [b for _, out in subspaces for b in out.basis]
        assert len(merged) == 2 * trials
        for got, want in zip(merged, g1.basis + g2.basis):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
