"""End-to-end acceptance suite.

One test per acceptance criterion, each run at its stated tolerance;
every test prints a single pass/fail line (visible with `pytest -s`,
or in the captured output section of a failing run).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from orthologic import composite
from orthologic.composite import (
    build_basis_map,
    canonical_h,
    check_m_morphism,
    classify_linearity,
    intertwiner_F,
    sweep_axioms,
    verify_axioms,
    verify_tensor_isomorphism,
)
from orthologic.classical import (
    ClassicalProp,
    PhaseSpace,
    canonical_h_classical,
    product_space_isomorphism,
    prop_and,
    prop_not,
    prop_or,
)
from orthologic.core import inner, random_unitary, random_vector
from orthologic.errors import AxiomViolation
from orthologic.laws import (
    commuting_projectors,
    compatible,
    compatible_second_criterion,
    nondistributivity_witness,
)
from orthologic.oscillator import (
    OscillatorModel,
    hermite_eigenfunction,
    ladder_operators,
    proposition_from_eigenstates,
)
from orthologic.subspace import (
    Subspace,
    equal,
    join,
    meet,
    ortho,
    projector_distance,
    random_subspace,
    span_of,
    subspace_from_json,
)
from orthologic.tensor import TensorIndex, elementary_tensor, is_separable
from orthologic.truth import truth_value

from test_composite import (
    FLAG_PAIRS,
    assert_basis_independent,
    make_gemischt,
    make_rank_inflating,
    make_slice_embedding,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


def test_criterion_01_nondistributivity_counterexample():
    with criterion(1, "three-ray non-distributivity counterexample in C^3"):
        start = time.perf_counter()
        report = nondistributivity_witness(3)
        e = np.eye(3, dtype=complex)
        assert not report.holds
        left = subspace_from_json(report.counterexample["left"])
        right = subspace_from_json(report.counterexample["right"])
        assert equal(left, span_of([e[0]]))
        assert equal(right, span_of([e[0], e[1]]))
        assert projector_distance(left, right) > 0.5
        assert time.perf_counter() - start < 1.0


def test_criterion_02_superposition_truth_value():
    with criterion(2, "superposition state gives 75% / 25% truth values"):
        dim = 9
        state = np.zeros(dim, dtype=complex)
        state[0] = np.sqrt(3.0 / 4.0)
        state[1] = np.sqrt(1.0 / 4.0)
        ground = proposition_from_eigenstates({0}, dim)
        assert abs(truth_value(state, ground).value - 0.75) < 1e-12
        assert abs(truth_value(state, ortho(ground)).value - 0.25) < 1e-12


def test_criterion_03_oscillator_energies_and_eigenfunctions():
    with criterion(3, "ladder energies exact; grid eigenfunctions orthonormal to 1e-6"):
        start = time.perf_counter()
        model = OscillatorModel(n_max=8)
        _, _, _, hamiltonian = ladder_operators(model)
        for n in range(model.n_max):
            e_n = np.zeros(model.levels, dtype=complex)
            e_n[n] = 1.0
            expected = model.hbar * model.omega0 * (n + 0.5)
            assert np.array_equal(hamiltonian @ e_n, expected * e_n)
        functions = [hermite_eigenfunction(model, n) for n in range(9)]
        for i in range(9):
            for j in range(9):
                overlap = float(np.sum(functions[i] * functions[j] * model.weights))
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-6
        assert time.perf_counter() - start < 5.0


def test_criterion_04_complement_identities_on_families():
    with criterion(4, "complement/join/meet identities on 1000 families in C^5"):
        worst = 0.0
        for trial in range(1000):
            rng = np.random.default_rng(trial)
            family = [
                random_subspace(5, int(rng.integers(1, 5)), 3 * trial + k)
                for k in range(3)
            ]
            joined = join(join(family[0], family[1]), family[2])
            met = meet(meet(family[0], family[1]), family[2])
            meets_of_orthos = meet(
                meet(ortho(family[0]), ortho(family[1])), ortho(family[2])
            )
            joins_of_orthos = join(
                join(ortho(family[0]), ortho(family[1])), ortho(family[2])
            )
            worst = max(
                worst,
                projector_distance(meets_of_orthos, ortho(joined)),
                projector_distance(joins_of_orthos, ortho(met)),
            )
        assert worst < 1e-8


def _mixed_pair(d, mode, seed):
    rng = np.random.default_rng(seed)
    if mode == 0:
        frame = random_unitary(d, seed)
        cols1 = sorted(rng.permutation(d)[: int(rng.integers(1, d + 1))].tolist())
        cols2 = sorted(rng.permutation(d)[: int(rng.integers(1, d + 1))].tolist())
        return Subspace(d, frame[:, cols1]), Subspace(d, frame[:, cols2])
    if mode == 1:
        p = random_subspace(d, int(rng.integers(1, d)), seed)
        return p, ortho(p)
    if mode == 2:
        kq = int(rng.integers(1, d + 1))
        q = random_subspace(d, kq, seed)
        kp = int(rng.integers(1, kq + 1))
        coeffs = rng.standard_normal((kq, kp)) + 1j * rng.standard_normal((kq, kp))
        return span_of(list((q.basis @ coeffs).T)), q
    p = random_subspace(d, int(rng.integers(1, d)), seed)
    q = random_subspace(d, int(rng.integers(1, d)), seed + 1)
    return p, q


def test_criterion_05_compatibility_criteria_equivalence():
    with criterion(5, "both compatibility criteria and commutator oracle agree on 1000 pairs"):
        trial = 0
        for d in (3, 4, 5, 6):
            for k in range(250):
                p, q = _mixed_pair(d, k % 4, 10_000 * d + k)
                c1 = compatible(p, q)
                c2 = compatible_second_criterion(p, q)
                c3 = commuting_projectors(p, q)
                assert c1 == c2 == c3, f"criteria disagree at d={d}, k={k}"
                trial += 1
        assert trial == 1000


def test_criterion_06_classical_product_isomorphism():
    with criterion(6, "cartesian-product isomorphism exhaustive at |O1|=2, |O2|=3"):
        start = time.perf_counter()
        s1 = PhaseSpace(("a", "b"))
        s2 = PhaseSpace(("x", "y", "z"))
        h1 = canonical_h_classical(1, s1, s2)
        h2 = canonical_h_classical(2, s1, s2)
        eta, report = product_space_isomorphism(h1, h2)
        assert report.prop_count == 64
        assert report.bijective
        assert report.preserves_union
        assert report.preserves_intersection
        assert report.preserves_complement
        # spot re-check of the defining identities through the returned map
        target = h1.target
        props = [ClassicalProp(target, mask) for mask in range(8)]
        for a in props:
            for b in props:
                assert eta(prop_or(a, b)).members == prop_or(eta(a), eta(b)).members
                assert eta(prop_and(a, b)).members == prop_and(eta(a), eta(b)).members
            assert eta(prop_not(a)).members == prop_not(eta(a)).members
        assert time.perf_counter() - start < 1.0


def test_criterion_07_tensor_isomorphism_four_cases(monkeypatch):
    with criterion(7, "tensor isomorphism verified for plain/twisted/antilinear/mixed pairs"):
        right = composite._onb_matrix
        start = time.perf_counter()
        twist = random_unitary(9, 2024)
        cases = [
            (dict(), dict(), "H1xH2"),
            (dict(twist=twist), dict(twist=twist), "H1xH2"),
            (dict(conjugate=True), dict(conjugate=True), "H1xH2"),
            (dict(conjugate=True), dict(), "H1*xH2"),
            (dict(), dict(conjugate=True), "H1*xH2"),
        ]
        for case_index, (kw1, kw2, expected_target) in enumerate(cases):
            h1 = canonical_h(1, 3, 3, **kw1)
            h2 = canonical_h(2, 3, 3, **kw2)
            axioms = verify_axioms(h1, h2, trials=50, seed=100 + case_index)
            for report in axioms:
                assert report.holds, f"case {case_index}: {report.law_name} failed"
                assert report.worst_residual < 1e-8
            sweep = sweep_axioms(h1, h2, 20, seed=200 + case_index)
            iso = verify_tensor_isomorphism(sweep, trials=50, axiom_trials=20)
            assert iso.passed, f"case {case_index} failures: {iso.failures[:3]}"
            assert iso.target == expected_target
            # the verdict can fail: a unitary basis map with its columns
            # reversed is refused, since h1 and h2 are no longer its cylinders
            with monkeypatch.context() as patch:
                patch.setattr(composite, "_onb_matrix", lambda *a: right(*a)[:, ::-1])
                wrong = verify_tensor_isomorphism(sweep, trials=50, axiom_trials=20)
            assert not wrong.passed, f"case {case_index}: a wrong basis map passes"
        assert time.perf_counter() - start < 60.0


def test_criterion_08_intertwiner_property_suite():
    with criterion(8, "intertwiner identity/inverse/composition/additivity/scaling/isometry/scalar action"):
        worst = 0.0

        def residual(value):
            nonlocal worst
            worst = max(worst, value)
            assert value < 1e-9

        for instance in range(200):
            side = 1 + instance % 2
            conjugate = (instance // 2) % 2 == 1
            h = canonical_h(side, 3, 3, conjugate=conjugate)
            s = 17 * instance
            x, y, z = (random_vector(3, s + k) for k in range(3))
            domain = h.map_ray(x)
            rng = np.random.default_rng(s)
            u = domain.basis @ (
                rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)
            )
            scale = max(1.0, float(np.linalg.norm(u)))
            # identity
            residual(np.linalg.norm(intertwiner_F(h, x, x)(u) - u) / scale)
            # inverse
            back = intertwiner_F(h, x, y)(intertwiner_F(h, y, x)(u))
            residual(np.linalg.norm(back - u) / scale)
            # composition
            via = intertwiner_F(h, z, y)(intertwiner_F(h, y, x)(u))
            residual(np.linalg.norm(via - intertwiner_F(h, z, x)(u)) / scale)
            # additivity in the target label
            lhs = intertwiner_F(h, y + z, x)(u)
            rhs = intertwiner_F(h, y, x)(u) + intertwiner_F(h, z, x)(u)
            residual(np.linalg.norm(lhs - rhs) / scale)
            # simultaneous scaling invariance
            lam = complex(rng.standard_normal(), rng.standard_normal() + 2.0)
            w = domain.basis @ (
                rng.standard_normal(domain.dim) + 1j * rng.standard_normal(domain.dim)
            )
            residual(
                np.linalg.norm(
                    intertwiner_F(h, lam * y, lam * x)(w) - intertwiner_F(h, y, x)(w)
                )
                / scale
            )
            # isometry at equal norms
            y_eq = y * (np.linalg.norm(x) / np.linalg.norm(y))
            f_iso = intertwiner_F(h, y_eq, x)
            residual(abs(np.vdot(f_iso(u), f_iso(w)) - np.vdot(u, w)) / scale**2)
            # pure scalar action
            expected = np.conj(lam) * u if conjugate else lam * u
            residual(
                np.linalg.norm(intertwiner_F(h, lam * x, x)(u) - expected)
                / (abs(lam) * scale)
            )
        assert worst < 1e-9


def test_criterion_09_composite_basis_gram_identity():
    with criterion(9, "composite basis Gram matrix is the identity for three dim pairs"):
        for d1, d2 in ((3, 3), (3, 4), (4, 4)):
            twist = random_unitary(d1 * d2, 7 * d1 + d2)
            h1 = canonical_h(1, d1, d2, twist=twist)
            h2 = canonical_h(2, d1, d2, twist=twist)
            matrix = build_basis_map(h1, h2).matrix
            gram = matrix.conj().T @ matrix
            assert np.linalg.norm(gram - np.eye(d1 * d2)) < 1e-8


def test_criterion_10_basis_map_independence():
    with criterion(10, "the basis map sends random product bases onto their composite bases"):
        h1 = canonical_h(1, 3, 3, conjugate=True)
        h2 = canonical_h(2, 3, 3)
        assert classify_linearity(h1, seed=0) == "antilinear"
        assert classify_linearity(h2, seed=0) == "linear"
        bases = ((random_unitary(3, 301), random_unitary(3, 302)),
                 (random_unitary(3, 303), random_unitary(3, 304)))
        for conj1, conj2 in FLAG_PAIRS:
            pair = (canonical_h(1, 3, 3, conjugate=conj1), canonical_h(2, 3, 3, conjugate=conj2))
            for e, f in bases:
                assert_basis_independent(*pair, e, f)


def polarization_r(x, y):
    """R(x, y) = (||x + y||^2 - ||x - y||^2) / 4: the real part of the inner
    product, from norms alone."""
    return (np.linalg.norm(x + y) ** 2 - np.linalg.norm(x - y) ** 2) / 4


def test_criterion_11_polarization_identities():
    with criterion(11, "polarization formula and R-symmetries on 1000 pairs, dims 1..8"):
        trial = 0
        for dim in range(1, 9):
            for k in range(125):
                x = random_vector(dim, 100_000 + 1000 * dim + k)
                y = random_vector(dim, 200_000 + 1000 * dim + k)
                # R(x, y) - i R(x, iy) is the inner product only if it is
                # conjugate-linear in its first argument
                polarized = polarization_r(x, y) - 1j * polarization_r(x, 1j * y)
                assert abs(polarized - inner(x, y)) < 1e-10
                assert abs(polarization_r(x, y) - polarization_r(y, x)) < 1e-10
                assert abs(polarization_r(x, 1j * y) + polarization_r(1j * x, y)) < 1e-10
                trial += 1
        assert trial == 1000


def test_criterion_12_separability_and_product_probabilities():
    with criterion(12, "Schmidt ranks of product/swap states; product truth values factorize"):
        idx = TensorIndex(2, 2)
        e, f = np.eye(2), np.eye(2)
        product = elementary_tensor(random_vector(2, 1), random_vector(2, 2), idx)
        separable, schmidt = is_separable(product, idx)
        assert separable and schmidt == 1
        swap = (
            elementary_tensor(e[0], f[1], idx) + elementary_tensor(e[1], f[0], idx)
        ) / np.sqrt(2)
        separable, schmidt = is_separable(swap, idx)
        assert not separable and schmidt == 2
        # psi1 tensor psi2 against the meet of the cylinders of coordinate
        # propositions B1 and B2: the product of the factor truth values
        h1, h2 = canonical_h(1, 3, 4), canonical_h(2, 3, 4)
        for seed in range(25):
            v1 = random_vector(3, seed)
            v2 = random_vector(4, seed + 100)
            psi1 = v1 / np.linalg.norm(v1)
            psi2 = v2 / np.linalg.norm(v2)
            rng = np.random.default_rng(seed)
            b1 = span_of([np.eye(3)[i] for i in rng.permutation(3)[: 1 + seed % 3]])
            b2 = span_of([np.eye(4)[j] for j in rng.permutation(4)[: 1 + seed % 4]])
            state = elementary_tensor(psi1, psi2, TensorIndex(3, 4))
            joint = truth_value(state, meet(h1(b1), h2(b2))).value
            marginals = truth_value(psi1, b1).value * truth_value(psi2, b2).value
            assert abs(joint - marginals) < 1e-12


def test_criterion_13_tampered_morphisms_named_rejections():
    with criterion(13, "tampered morphisms rejected with the correct named violation"):
        h2 = canonical_h(2, 3, 3)
        # non-unitary image: first axiom, named
        fake_slice = make_slice_embedding()
        reports = verify_axioms(fake_slice, h2, trials=10, seed=1)
        assert reports[0].law_name == "I_c_morphism"
        assert not reports[0].holds
        with pytest.raises(AxiomViolation, match="I_c_morphism"):
            verify_tensor_isomorphism(sweep_axioms(fake_slice, h2, 50, 1), trials=5,
                                      axiom_trials=50)
        # rank-inflating map: modularity criterion, named
        inflating = make_rank_inflating()
        report = check_m_morphism(inflating, trials=50, seed=2)
        assert report.law_name == "m_morphism"
        assert not report.holds
        # hand-built mixed scalar action: linearity classification, named
        mixed = make_gemischt()
        assert classify_linearity(mixed, seed=3) == "gemischt"
        with pytest.raises(AxiomViolation, match="gemischt"):
            verify_tensor_isomorphism(sweep_axioms(mixed, canonical_h(2, 3, 4), 50, 3), trials=5,
                                      axiom_trials=50)
