"""Composite-system machinery: axioms, intertwiners, basis maps, isomorphism."""

import json

import numpy as np
import pytest

from orthologic.composite import (
    GEMISCHT,
    SubspaceMorphism,
    build_U_V,
    build_basis_map,
    canonical_h,
    check_commutation,
    check_m_morphism,
    classify_linearity,
    composite_onb,
    default_anchors,
    extended_intertwiner,
    intertwiner_F,
    recheck_axiom_counterexample,
    restriction_iso_u,
    restriction_iso_v,
    verify_axioms,
    verify_tensor_isomorphism,
)
from orthologic.core import random_unitary, random_vector
from orthologic.errors import (
    AnchorNotInMeet,
    AxiomViolation,
    InvalidDimension,
    NotInDomain,
    NotOrthonormal,
    PreconditionViolated,
    UnknownLinearity,
    ZeroState,
)
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

    return SubspaceMorphism(d1, d1 * d2, embed, label="slice-embedding")


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

    return SubspaceMorphism(d1, d1 * d2, embed, label="rank-inflating")


def make_gemischt(d1=3, d2=4):
    """Scalar action lambda P1 + conj(lambda) P2 with both parts nonzero."""
    base = canonical_h(1, d1, d2)
    split = d2 // 2

    def mixed_intertwiner(y, x):
        xv = np.asarray(x, dtype=complex).reshape(-1)
        yv = np.asarray(y, dtype=complex).reshape(-1)
        lam = np.vdot(xv, yv) / np.vdot(xv, xv)

        def apply(u):
            m = np.asarray(u, dtype=complex).reshape(d1, d2)
            v = (np.conj(xv) @ m) / float(np.vdot(xv, xv).real)
            head, tail = v.copy(), v.copy()
            head[split:] = 0.0
            tail[:split] = 0.0
            out = lam * np.outer(xv, head) + np.conj(lam) * np.outer(xv, tail)
            return out.reshape(-1)

        return apply

    return SubspaceMorphism(
        source_dim=d1,
        target_dim=d1 * d2,
        map=base.map,
        intertwiner=mixed_intertwiner,
        label="gemischt-action",
    )


def make_zero_to_full(d1=3, d2=3):
    """Canonical, except that the zero subspace goes to the full space."""
    base = canonical_h(1, d1, d2)

    def embed(p):
        return base.map(p) if p.dim else full_subspace(d1 * d2)

    return SubspaceMorphism(d1, d1 * d2, embed, label="zero-to-full")


def make_oblique(d1=3, d2=3):
    """Join-preserving but not complement-preserving: p -> W(p tensor C^d2)
    for an invertible, non-unitary diagonal W."""
    w = np.diag(np.arange(1.0, d1 * d2 + 1.0))

    def embed(p):
        if p.dim == 0:
            return zero_subspace(d1 * d2)
        return span_of(list((w @ np.kron(p.basis, np.eye(d2))).T))

    return SubspaceMorphism(d1, d1 * d2, embed, label="oblique")


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

    def test_extension_is_identity_off_domain(self, pair33):
        h1, _ = pair33
        x, y = np.eye(3)[0], np.eye(3)[1]
        f_ext = extended_intertwiner(h1, y, x)
        outside = np.kron(np.eye(3)[2], random_vector(3, 2))
        assert np.allclose(f_ext(outside), outside)

    def test_zero_source_label_rejected(self, pair33):
        h1, _ = pair33
        with pytest.raises(ZeroState):
            intertwiner_F(h1, np.eye(3)[1], np.zeros(3))


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

    def test_morphism_without_intertwiner_rejected(self):
        fake = make_slice_embedding()
        with pytest.raises(UnknownLinearity):
            classify_linearity(fake)


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

    def test_bad_anchor_rejected(self, pair33):
        h1, h2 = pair33
        z1 = np.eye(3)[0]
        z2 = np.eye(3)[0]
        stray = np.kron(np.eye(3)[1], np.eye(3)[2])
        with pytest.raises(AnchorNotInMeet):
            build_U_V(h1, h2, anchors=(z1, z2, stray))

    def test_zero_anchor_rejected(self, pair33):
        h1, h2 = pair33
        with pytest.raises(ZeroState):
            build_U_V(h1, h2, anchors=(np.zeros(3), np.eye(3)[0], np.eye(9)[0]))

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

    def test_unknown_linearity_rejected(self, pair33):
        _, h2 = pair33
        nameless = make_slice_embedding()
        with pytest.raises(UnknownLinearity):
            build_basis_map(nameless, h2)

    def test_round_trip(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3)
        bm = build_basis_map(h1, h2)
        v = random_vector(9, 97)
        assert np.linalg.norm(bm.apply_inverse(bm.apply(v)) - v) < 1e-10


class TestTensorIsomorphism:
    def test_untwisted_linear_case(self, pair33):
        h1, h2 = pair33
        report = verify_tensor_isomorphism(h1, h2, trials=25, seed=1)
        assert report.passed
        assert report.target == "H1xH2"
        assert report.linearity == ("linear", "linear")
        assert report.worst_residual < 1e-8

    def test_twisted_case_lifts_to_twist_conjugation(self):
        w = random_unitary(9, 98)
        h1 = canonical_h(1, 3, 3, twist=w)
        h2 = canonical_h(2, 3, 3, twist=w)
        report = verify_tensor_isomorphism(h1, h2, trials=20, seed=2)
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
        report = verify_tensor_isomorphism(h1, h2, trials=20, seed=3)
        assert report.passed and report.target == "H1xH2"
        assert report.linearity == ("antilinear", "antilinear")

    def test_mixed_case_targets_dual_product(self):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3)
        report = verify_tensor_isomorphism(h1, h2, trials=20, seed=4)
        assert report.passed and report.target == "H1*xH2"

    def test_unequal_factor_dimensions(self):
        # isometry between the factors is never used downstream, so
        # nothing requires d1 == d2
        h1 = canonical_h(1, 3, 4)
        h2 = canonical_h(2, 3, 4)
        report = verify_tensor_isomorphism(h1, h2, trials=10, seed=6, axiom_trials=15)
        assert report.passed and report.target == "H1xH2"

    def test_refuses_on_axiom_failure(self, pair33):
        _, h2 = pair33
        with pytest.raises(AxiomViolation):
            verify_tensor_isomorphism(make_slice_embedding(), h2, trials=5, seed=5)
