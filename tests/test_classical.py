"""Classical propositions: connectives, atoms, products, the cartesian
isomorphism for composed systems, and the sampled oscillator curve."""

import itertools
import math

import numpy as np
import pytest

from orthologic import classical
from orthologic.classical import (
    ClassicalMorphism,
    ClassicalProp,
    PhaseSpace,
    ProductIsoReport,
    all_props,
    canonical_h_classical,
    classical_atoms,
    curve_energy,
    product_phase_space,
    product_space_isomorphism,
    prop_and,
    prop_implies,
    prop_not,
    prop_or,
    sample_oscillator_curve,
)
from orthologic.errors import AxiomViolation, InvalidParameter, SpaceMismatch


SPACE3 = PhaseSpace(("p", "q", "r"))


def implies_oracle(a, b):
    """Pointwise truth-table oracle for material implication."""
    mask = 0
    for k in range(a.space.size):
        a_true = bool(a.members >> k & 1)
        b_true = bool(b.members >> k & 1)
        if (not a_true) or b_true:
            mask |= 1 << k
    return mask


class TestConnectives:
    def test_contradiction_is_empty(self):
        a = ClassicalProp.from_labels(SPACE3, ["p", "q"])
        assert prop_and(a, prop_not(a)).members == 0

    def test_self_implication_is_tautology(self):
        a = ClassicalProp.from_labels(SPACE3, ["q"])
        assert prop_implies(a, a).members == ClassicalProp.full(SPACE3).members

    def test_implies_matches_truth_table_oracle_exhaustively(self):
        for a in all_props(SPACE3):
            for b in all_props(SPACE3):
                assert prop_implies(a, b).members == implies_oracle(a, b)

    def test_space_mismatch(self):
        other = PhaseSpace(("x", "y"))
        with pytest.raises(SpaceMismatch):
            prop_and(ClassicalProp.full(SPACE3), ClassicalProp.full(other))

    def test_json_round_trip(self):
        a = ClassicalProp.from_labels(SPACE3, ["p", "r"])
        b = ClassicalProp.from_json(SPACE3, a.to_json())
        assert a.members == b.members


class TestAtoms:
    def test_singleton_space(self):
        space = PhaseSpace(("only",))
        atoms = classical_atoms(space)
        assert len(atoms) == 1
        assert atoms[0].members == ClassicalProp.full(space).members

    def test_four_point_space(self):
        space = PhaseSpace(tuple("abcd"))
        atoms = classical_atoms(space)
        assert len(atoms) == 4
        total = ClassicalProp.empty(space)
        for atom in atoms:
            total = prop_or(total, atom)
        assert total.members == ClassicalProp.full(space).members

    def test_every_nonempty_prop_contains_an_atom(self):
        space = PhaseSpace(tuple("abcd"))
        atoms = classical_atoms(space)
        for p in all_props(space):
            if p.members:
                assert any(p.contains(atom) for atom in atoms)


class TestProductSpace:
    def test_sizes_multiply(self):
        s1 = PhaseSpace(("a", "b"))
        s2 = PhaseSpace(("x", "y", "z"))
        assert product_phase_space(s1, s2).size == 6

    def test_singleton_factor(self):
        s1 = PhaseSpace(("only",))
        s2 = PhaseSpace(("x", "y", "z"))
        prod = product_phase_space(s1, s2)
        assert [pt[1] for pt in prod.points] == list(s2.points)

    def test_labels_are_exactly_all_pairs(self):
        s1 = PhaseSpace(("a", "b"))
        s2 = PhaseSpace(("x", "y", "z"))
        prod = product_phase_space(s1, s2)
        assert set(prod.points) == set(itertools.product(s1.points, s2.points))


class TestCanonicalMorphisms:
    S1 = PhaseSpace(("a", "b"))
    S2 = PhaseSpace(("x", "y", "z"))

    def test_empty_maps_to_empty(self):
        h1 = canonical_h_classical(1, self.S1, self.S2)
        assert h1(ClassicalProp.empty(self.S1)).members == 0

    def test_singleton_cylinder_size(self):
        h1 = canonical_h_classical(1, self.S1, self.S2)
        image = h1(ClassicalProp.from_labels(self.S1, ["a"]))
        assert image.size == self.S2.size

    def test_cross_sections_are_products_exhaustively(self):
        h1 = canonical_h_classical(1, self.S1, self.S2)
        h2 = canonical_h_classical(2, self.S1, self.S2)
        prod = product_phase_space(self.S1, self.S2)
        for a in all_props(self.S1):
            for b in all_props(self.S2):
                image = prop_and(h1(a), h2(b))
                expected = {
                    (x1, x2)
                    for x1 in a.labels()
                    for x2 in b.labels()
                }
                assert set(image.labels()) == expected, "cylinder meet != set product"

    def test_full_maps_to_full(self):
        h2 = canonical_h_classical(2, self.S1, self.S2)
        prod = product_phase_space(self.S1, self.S2)
        assert h2(ClassicalProp.full(self.S2)).members == ClassicalProp.full(prod).members

    def test_complement_law_exhaustively(self):
        # h(a') = h(a)' meet h(full), for both sides
        for side, space in ((1, self.S1), (2, self.S2)):
            h = canonical_h_classical(side, self.S1, self.S2)
            full_image = h(ClassicalProp.full(space))
            for a in all_props(space):
                lhs = h(prop_not(a))
                rhs = prop_and(prop_not(h(a)), full_image)
                assert lhs.members == rhs.members


class TestProductIsomorphism:
    def test_singleton_first_factor_is_relabeling(self):
        s1 = PhaseSpace(("only",))
        s2 = PhaseSpace(("x", "y", "z"))
        h1 = canonical_h_classical(1, s1, s2)
        h2 = canonical_h_classical(2, s1, s2)
        eta, report = product_space_isomorphism(s1, s2, h1, h2)
        assert report.passed
        target = h1.target
        for a in all_props(target):
            assert eta(a).size == a.size

    def test_two_by_three_exhaustive(self):
        s1 = PhaseSpace(("a", "b"))
        s2 = PhaseSpace(("x", "y", "z"))
        h1 = canonical_h_classical(1, s1, s2)
        h2 = canonical_h_classical(2, s1, s2)
        eta, report = product_space_isomorphism(s1, s2, h1, h2)
        assert report.prop_count == 64
        assert report.bijective
        assert report.preserves_union
        assert report.preserves_intersection
        assert report.preserves_complement
        assert report.passed

    def test_point_dropping_morphism_fails_unitarity(self):
        s1 = PhaseSpace(("a", "b"))
        s2 = PhaseSpace(("x", "y", "z"))
        good = canonical_h_classical(1, s1, s2)
        h2 = canonical_h_classical(2, s1, s2)

        def dropping(p):
            image = good(p)
            # drop the composite point ("a", "x") from every image
            return ClassicalProp(image.space, image.members & ~1)

        bad = ClassicalMorphism(s1, good.target, dropping)
        with pytest.raises(AxiomViolation, match="I_c_morphism"):
            product_space_isomorphism(s1, s2, bad, h2)

    def test_scrambled_morphism_gives_empty_atom_image(self):
        # conjugating one cylinder embedding by a non-product transposition
        # keeps joins and the full space intact but empties an atom meet
        s1 = PhaseSpace(("a", "b"))
        s2 = PhaseSpace(("x", "y", "z"))
        good = canonical_h_classical(1, s1, s2)
        h2 = canonical_h_classical(2, s1, s2)
        target = good.target
        i, j = target.index(("a", "x")), target.index(("b", "y"))

        def swap_bits(mask):
            bit_i, bit_j = mask >> i & 1, mask >> j & 1
            mask &= ~((1 << i) | (1 << j))
            return mask | (bit_i << j) | (bit_j << i)

        scrambled = ClassicalMorphism(
            s1, target, lambda p: ClassicalProp(target, swap_bits(good(p).members))
        )
        with pytest.raises(AxiomViolation, match="III_atoms"):
            product_space_isomorphism(s1, s2, scrambled, h2)


def loop_product_space_isomorphism(s1, s2, h1, h2):
    """Independent oracle: the exhaustive check as plain Python loops over
    every pair of propositions, with eta rebuilt bit by bit on each call.
    Its ``bijective`` counts distinct images only (injectivity)."""
    if h1.target != h2.target:
        raise AxiomViolation("I_c_morphism: morphism targets differ")
    target = h1.target
    full_target = ClassicalProp.full(target)
    for name, h, s in (("h1", h1, s1), ("h2", h2, s2)):
        if h(ClassicalProp.full(s)).members != full_target.members:
            raise AxiomViolation(f"I_c_morphism: {name} is not unitary")
        if h(ClassicalProp.empty(s)).members != 0:
            raise AxiomViolation(f"I_c_morphism: {name} does not send empty to empty")
        for a in all_props(s):
            for b in all_props(s):
                if h(prop_or(a, b)).members != (h(a).members | h(b).members):
                    raise AxiomViolation(f"I_c_morphism: {name} does not preserve joins")
    atom_map = {}
    for x1 in s1.points:
        for x2 in s2.points:
            image = prop_and(
                h1(ClassicalProp.from_labels(s1, [x1])),
                h2(ClassicalProp.from_labels(s2, [x2])),
            )
            if image.size != 1:
                raise AxiomViolation(
                    "III_atoms: atom images must meet in an atom, got size "
                    f"{image.size} for pair ({x1!r}, {x2!r})"
                )
            atom_map[(x1, x2)] = image.members
    product = product_phase_space(s1, s2)
    union_of_atoms = 0
    for mask in atom_map.values():
        union_of_atoms |= mask
    if union_of_atoms != full_target.members:
        raise AxiomViolation("III_atoms: atom images do not cover the composite space")

    def eta(a):
        mask = 0
        for k, pair in enumerate(product.points):
            if atom_map[pair] & ~a.members == 0:
                mask |= 1 << k
        return ClassicalProp(product, mask)

    images = set()
    ok_union = ok_inter = ok_compl = True
    props = list(all_props(target))
    for a in props:
        images.add(eta(a).members)
        if eta(prop_not(a)).members != prop_not(eta(a)).members:
            ok_compl = False
    for a in props:
        for b in props:
            if eta(prop_or(a, b)).members != prop_or(eta(a), eta(b)).members:
                ok_union = False
            if eta(prop_and(a, b)).members != prop_and(eta(a), eta(b)).members:
                ok_inter = False
    report = ProductIsoReport(len(props), len(images) == len(props), ok_union, ok_inter, ok_compl)
    return eta, report


def remapped(h, remap):
    """h with every image mask m replaced by remap(source mask, m)."""
    return ClassicalMorphism(
        h.source, h.target, lambda p: ClassicalProp(h.target, remap(p.members, h(p).members))
    )


def canonical_pair(s1, s2):
    return canonical_h_classical(1, s1, s2), canonical_h_classical(2, s1, s2)


def point_dropping_pair(s1, s2):
    h1, h2 = canonical_pair(s1, s2)
    return remapped(h1, lambda m, image: image & ~1), h2


def scrambled_pair(s1, s2):
    """h1 conjugated by a transposition of two composite points that is no
    product map: joins and the full space survive, an atom meet empties."""
    if s1.size < 2 or s2.size < 2:
        return None
    h1, h2 = canonical_pair(s1, s2)
    i = h1.target.index((s1.points[0], s2.points[0]))
    j = h1.target.index((s1.points[1], s2.points[1]))

    def swap_bits(m, mask):
        bit_i, bit_j = mask >> i & 1, mask >> j & 1
        return mask & ~((1 << i) | (1 << j)) | bit_i << j | bit_j << i

    return remapped(h1, swap_bits), h2


def join_breaking_pair(s1, s2):
    """One factor map sends its first atom to the empty set and is
    canonical elsewhere: full and empty are kept, and only a mixed pair
    ({x0}, b) with b missing x0 breaks join preservation."""
    h1, h2 = canonical_pair(s1, s2)
    if s2.size >= 2:
        return h1, remapped(h2, lambda m, image: 0 if m == 1 else image)
    if s1.size >= 2:
        return remapped(h1, lambda m, image: 0 if m == 1 else image), h2
    return None


def uncovering_pair(s1, s2):
    """Both factor maps miss the first composite point, so no atom image
    covers it.  Join preservation makes h(full) the union of the atom
    images of h, so unitarity already rejects every such pair."""
    h1, h2 = canonical_pair(s1, s2)
    drop = lambda m, image: image & ~1
    return remapped(h1, drop), remapped(h2, drop)


PAIRS = (canonical_pair, point_dropping_pair, scrambled_pair, join_breaking_pair, uncovering_pair)
SIZES = [(n1, n2) for n1 in range(1, 7) for n2 in range(1, 7) if n1 * n2 <= 6]


def factor_spaces(n1, n2):
    return (
        PhaseSpace(tuple(f"a{k}" for k in range(n1))),
        PhaseSpace(tuple(f"b{k}" for k in range(n2))),
    )


def outcome(isomorphism, s1, s2, h1, h2):
    """The report and every value of eta, or the AxiomViolation message."""
    try:
        eta, report = isomorphism(s1, s2, h1, h2)
    except AxiomViolation as exc:
        return str(exc)
    return report.to_json(), [eta(a).members for a in all_props(h1.target)]


class TestProductIsomorphismOracle:
    @pytest.mark.parametrize("chunk", [classical._CHUNK, 8])
    @pytest.mark.parametrize("pair", PAIRS, ids=lambda f: f.__name__)
    def test_tables_match_loop_oracle(self, pair, chunk, monkeypatch):
        # chunk = 8 splits every sweep into chunks of one or two rows
        monkeypatch.setattr(classical, "_CHUNK", chunk)
        checked = 0
        for n1, n2 in SIZES:
            s1, s2 = factor_spaces(n1, n2)
            morphisms = pair(s1, s2)
            if morphisms is None:
                continue
            mine = outcome(product_space_isomorphism, s1, s2, *morphisms)
            oracle = outcome(loop_product_space_isomorphism, s1, s2, *morphisms)
            assert mine == oracle, (n1, n2)
            checked += 1
        assert checked >= 3  # the scrambled pair needs two points per factor

    @pytest.mark.parametrize(
        "pair, message",
        [
            (join_breaking_pair, "I_c_morphism: h2 does not preserve joins"),
            (uncovering_pair, "I_c_morphism: h1 is not unitary"),
        ],
        ids=["join_breaking", "uncovering"],
    )
    def test_each_broken_pair_fails_its_own_check(self, pair, message):
        s1, s2 = factor_spaces(2, 3)
        with pytest.raises(AxiomViolation) as exc:
            product_space_isomorphism(s1, s2, *pair(s1, s2))
        assert str(exc.value).startswith(message)

    def test_collapsed_target_is_not_bijective(self):
        # h1 forgets the first factor: every atom meet is one point of a
        # target with only |s2| points, so eta is injective but not onto
        # the 2^(n1 n2) product propositions (the loop oracle counts only
        # distinct images and reports it bijective)
        s1, s2 = factor_spaces(2, 3)
        h2 = ClassicalMorphism(s2, s2, lambda p: p)
        h1 = ClassicalMorphism(
            s1, s2, lambda p: ClassicalProp.full(s2) if p.members else ClassicalProp.empty(s2)
        )
        _, report = product_space_isomorphism(s1, s2, h1, h2)
        assert report.prop_count == 8
        assert not report.bijective
        assert not report.passed


class TestComplementAxioms:
    SPACE = PhaseSpace(tuple("abcd"))

    def test_involution_exhaustive(self):
        for a in all_props(self.SPACE):
            assert prop_not(prop_not(a)).members == a.members

    def test_order_reversal_exhaustive(self):
        for a in all_props(self.SPACE):
            for b in all_props(self.SPACE):
                if b.contains(a):
                    assert prop_not(a).contains(prop_not(b))

    def test_excluded_middle_and_contradiction(self):
        full = ClassicalProp.full(self.SPACE)
        for a in all_props(self.SPACE):
            assert prop_or(a, prop_not(a)).members == full.members
            assert prop_and(a, prop_not(a)).members == 0


class TestOscillatorCurve:
    def test_time_zero_from_rest_phase(self):
        sample = sample_oscillator_curve(1.0, 0.0, 2.0, 3.0, [0.0])
        x, p = sample.states[0]
        assert x == pytest.approx(0.0)
        assert p == pytest.approx(2.0 * 3.0 * 1.0)

    def test_quarter_phase_peaks_position(self):
        sample = sample_oscillator_curve(1.0, math.pi / 2, 1.0, 1.0, [0.0])
        x, _ = sample.states[0]
        assert x == pytest.approx(1.0)

    def test_energy_constant_along_curve(self):
        mass, omega0, amplitude = 1.7, 2.3, 0.8
        times = np.linspace(0.0, 10.0, 257)
        sample = sample_oscillator_curve(amplitude, 0.4, omega0, mass, times)
        energies = curve_energy(sample, mass, omega0)
        assert np.max(np.abs(energies - energies[0])) < 1e-9

    def test_samples_lie_on_energy_ellipse(self):
        mass, omega0, amplitude = 2.0, 1.5, 1.1
        spring = mass * omega0**2
        expected = 0.5 * spring * amplitude**2
        sample = sample_oscillator_curve(amplitude, 0.0, omega0, mass, np.linspace(0, 7, 64))
        for x, p in sample.states:
            assert p * p / (2 * mass) + 0.5 * spring * x * x == pytest.approx(expected, abs=1e-9)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            sample_oscillator_curve(1.0, 0.0, -1.0, 1.0, [0.0])
        with pytest.raises(InvalidParameter):
            sample_oscillator_curve(1.0, 0.0, 1.0, 0.0, [0.0])
