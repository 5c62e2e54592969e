"""Classical propositions: connectives, atoms, products, the cartesian
isomorphism for composed systems, and the oscillator's phase curve."""

import functools
import itertools
import json
import math

import numpy as np
import pytest

from orthologic import classical
from orthologic.classical import (
    ClassicalMorphism,
    ClassicalProp,
    PhaseSpace,
    ProductIsoReport,
    canonical_h_classical,
    product_phase_space,
    product_space_isomorphism,
    prop_and,
    prop_not,
    prop_or,
    rotation_cover,
)
from orthologic.errors import AxiomViolation, InvalidParameter, SpaceMismatch
from orthologic.oscillator import OscillatorModel, phase_curve


SPACE3 = PhaseSpace(("p", "q", "r"))


@functools.cache
def all_props(space):
    """Every proposition of a small phase space, in bitmask order."""
    return tuple(ClassicalProp(space, mask) for mask in range(1 << space.size))


def labels(p):
    """The points of a single proposition, in the order of its space."""
    return tuple(x for k, x in enumerate(p.space.points) if p.members >> k & 1)


def of_labels(space, points):
    """The proposition holding exactly the given points."""
    return ClassicalProp(space, sum(1 << space.index(x) for x in set(points)))


def implies_oracle(a, b):
    """Pointwise truth-table oracle for material implication."""
    mask = 0
    for k in range(a.space.size):
        a_true = bool(a.members >> k & 1)
        b_true = bool(b.members >> k & 1)
        if (not a_true) or b_true:
            mask |= 1 << k
    return mask


def implies(a, b):
    """Material implication from the connectives: not a, or b."""
    return prop_or(prop_not(a), b)


def atoms(space):
    """The singleton propositions, one per point."""
    return [ClassicalProp(space, 1 << k) for k in range(space.size)]


def out_of_range(members, size):
    """The range check as elementwise compares: its oracle."""
    return bool(np.any((members < 0) | (members >= 1 << size)))


def too_narrow(members, size):
    """Whether members has a numpy dtype whose largest value is below the
    full set of a size-point space: its oracle."""
    return not isinstance(members, int) and np.iinfo(members.dtype).max < (1 << size) - 1


MASK_DTYPES = (np.int8, np.int64, np.uint8, np.uint16, np.uint64)


def range_candidates(size):
    """Masks at and around the edges of a size-point space: Python ints,
    and scalars and arrays of each integer dtype."""
    values = [-(1 << 70), -1, 0, 1, (1 << size) - 1, 1 << size, 1 << 70]
    candidates = list(values)
    for dtype in MASK_DTYPES:
        info = np.iinfo(dtype)
        fitting = [v for v in values + [info.min, info.max] if info.min <= v <= info.max]
        candidates += [dtype(v) for v in fitting]
        candidates += [np.array(pair, dtype=dtype) for pair in itertools.product(fitting, repeat=2)]
        candidates += [np.array(fitting, dtype=dtype).reshape(-1, 1), np.zeros((0, 2), dtype=dtype)]
    return candidates


@pytest.mark.parametrize("size", [1, 2, 8, 12])
def test_range_check_refuses_exactly_the_out_of_range_masks(size):
    candidates = range_candidates(size)
    space = PhaseSpace(tuple(range(size)))
    for members in candidates:
        try:
            ClassicalProp(space, members)
            refused = False
        except InvalidParameter:
            refused = True
        # a dtype too narrow for the full set is refused too, even in range
        assert refused == (out_of_range(members, size) or too_narrow(members, size)), \
            (members, size)
    # the pairs as tables of a 1-point source, one image per source mask
    for table in (t for t in candidates if np.shape(t) == (2,)):
        try:
            ClassicalMorphism(PhaseSpace(("s",)), space, table)
            refused = False
        except InvalidParameter as exc:
            assert str(exc) == "morphism table has an image outside the target"
            refused = True
        assert refused == out_of_range(table, size), (table, size)


@pytest.mark.parametrize("size", [1, 2, 8, 12])
def test_connectives_keep_every_in_range_mask_in_range(size):
    # the connectives build their results unchecked: each result of an
    # accepted mask, with itself and with every accepted scalar, passes the
    # check again (a mix of dtypes that numpy refuses raises
    # InvalidParameter and builds nothing)
    space = PhaseSpace(tuple(range(size)))
    props = [ClassicalProp(space, m) for m in range_candidates(size)
             if not (out_of_range(m, size) or too_narrow(m, size))]
    scalars = [p for p in props if np.ndim(p.members) == 0]
    built = 0
    for a in props:
        for make in [lambda: prop_not(a)] + [
            functools.partial(connective, a, b)
            for b in [a] + scalars for connective in (prop_and, prop_or)
        ]:
            try:
                result = make()
            except InvalidParameter:
                continue
            ClassicalProp(space, result.members)
            built += 1
    assert built > 20 * len(props)


@pytest.mark.parametrize("dtype", MASK_DTYPES)
@pytest.mark.parametrize("size", [1, 7, 8, 12, 15, 16, 63, 64])
def test_a_mask_dtype_holds_the_full_set_or_is_refused(dtype, size):
    space = PhaseSpace(tuple(range(size)))
    ones = [ClassicalProp(space, 1)] + [ClassicalProp(space, other(1)) for other in MASK_DTYPES
                                        if not too_narrow(other(1), size)]
    for members in (dtype(1), np.array([0, 1], dtype=dtype)):
        if too_narrow(members, size):
            with pytest.raises(InvalidParameter):
                ClassicalProp(space, members)
            continue
        p, bits = ClassicalProp(space, members), np.ravel(members).tolist()
        # the complement fits the dtype: the exact set, and no numpy error
        assert np.ravel(prop_not(p).members).tolist() == [~x & (1 << size) - 1 for x in bits]
        for q in ones:
            for connective, op in ((prop_and, int.__and__), (prop_or, int.__or__)):
                try:
                    result = connective(p, q).members
                except InvalidParameter:
                    # numpy has no integer dtype for uint64 with a signed one
                    kinds = {np.result_type(x).kind for x in (members, q.members)}
                    assert np.uint64 in (np.result_type(members), np.result_type(q.members))
                    assert kinds == {"u", "i"}
                    continue
                assert np.ravel(result).tolist() == [op(x, 1) for x in bits]


def test_the_connectives_raise_no_bare_numpy_error():
    space = PhaseSpace(tuple(range(12)))
    with pytest.raises(InvalidParameter):
        prop_not(ClassicalProp(space, np.uint8(3)))
    wide, signed = ClassicalProp(space, np.uint64(3)), ClassicalProp(space, np.int64(5))
    for connective in (prop_and, prop_or):
        for a, b in ((wide, signed), (signed, wide)):
            with pytest.raises(InvalidParameter):
                connective(a, b)


class TestConnectives:
    def test_contradiction_is_empty(self):
        a = ClassicalProp(SPACE3, 0b011)  # {p, q}
        assert prop_and(a, prop_not(a)).members == 0

    def test_self_implication_is_tautology(self):
        a = ClassicalProp(SPACE3, 0b010)  # {q}
        assert implies(a, a).members == ClassicalProp.full(SPACE3).members

    def test_implies_matches_truth_table_oracle_exhaustively(self):
        for a in all_props(SPACE3):
            for b in all_props(SPACE3):
                assert implies(a, b).members == implies_oracle(a, b)

    def test_space_mismatch(self):
        other = PhaseSpace(("x", "y"))
        with pytest.raises(SpaceMismatch):
            prop_and(ClassicalProp.full(SPACE3), ClassicalProp.full(other))

    @pytest.mark.parametrize("mask", [5, np.int64(5), np.uint16(5)], ids=type)
    def test_json_round_trip(self, mask):
        data = json.dumps(ClassicalProp(SPACE3, mask).to_json())  # {p, r}
        assert json.loads(data) == {"members": [1, 0, 1]}
        assert ClassicalProp.from_json(SPACE3, json.loads(data)).members == 5

    def test_a_batch_has_no_json_form(self):
        for masks in (np.array([1, 2]), np.array(5)):
            with pytest.raises(InvalidParameter, match="one bitmask"):
                ClassicalProp(SPACE3, masks).to_json()


class TestAtoms:
    """The singletons are the atoms: they join to the full proposition,
    and every nonempty proposition contains one."""

    def test_singleton_space(self):
        space = PhaseSpace(("only",))
        (atom,) = atoms(space)
        assert atom.members == ClassicalProp.full(space).members

    def test_four_point_space(self):
        space = PhaseSpace(tuple("abcd"))
        total = ClassicalProp(space, 0)
        for atom in atoms(space):
            assert prop_and(total, atom).members == 0
            total = prop_or(total, atom)
        assert total.members == ClassicalProp.full(space).members

    def test_every_nonempty_prop_contains_an_atom(self):
        space = PhaseSpace(tuple("abcd"))
        for p in all_props(space):
            # one atom below p per point of p, so one at least unless p is empty
            assert sum(p.contains(atom) for atom in atoms(space)) == len(labels(p))


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
        assert h1(ClassicalProp(self.S1, 0)).members == 0

    def test_singleton_cylinder_size(self):
        h1 = canonical_h_classical(1, self.S1, self.S2)
        image = h1(of_labels(self.S1, ["a"]))
        assert len(labels(image)) == self.S2.size

    def test_cross_sections_are_products_exhaustively(self):
        h1 = canonical_h_classical(1, self.S1, self.S2)
        h2 = canonical_h_classical(2, self.S1, self.S2)
        prod = product_phase_space(self.S1, self.S2)
        for a in all_props(self.S1):
            for b in all_props(self.S2):
                image = prop_and(h1(a), h2(b))
                expected = {
                    (x1, x2)
                    for x1 in labels(a)
                    for x2 in labels(b)
                }
                assert set(labels(image)) == expected, "cylinder meet != set product"

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
        eta, report = product_space_isomorphism(h1, h2)
        assert report.passed
        target = h1.target
        for a in all_props(target):
            assert len(labels(eta(a))) == len(labels(a))

    def test_two_by_three_exhaustive(self):
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
        assert report.passed

    def test_point_dropping_morphism_fails_unitarity(self):
        s1 = PhaseSpace(("a", "b"))
        s2 = PhaseSpace(("x", "y", "z"))
        good = canonical_h_classical(1, s1, s2)
        h2 = canonical_h_classical(2, s1, s2)
        # drop the composite point ("a", "x") from every image
        bad = ClassicalMorphism(s1, good.target, good.table & ~1)
        with pytest.raises(AxiomViolation, match="I_c_morphism"):
            product_space_isomorphism(bad, h2)

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

        scrambled = ClassicalMorphism(s1, target, [swap_bits(int(m)) for m in good.table])
        with pytest.raises(AxiomViolation, match="III_atoms"):
            product_space_isomorphism(scrambled, h2)

    @pytest.mark.parametrize("n1, n2", [(3, 4), (1, 12)])
    def test_the_check_maps_no_proposition(self, n1, n2, monkeypatch):
        # the factor maps are read as tables, never called once per mask
        s1, s2 = factor_spaces(n1, n2)
        h1, h2 = canonical_pair(s1, s2)

        def refuse(self, p):
            raise AssertionError("a classical morphism was called")

        monkeypatch.setattr(ClassicalMorphism, "__call__", refuse)
        _, report = product_space_isomorphism(h1, h2)
        assert report.passed


class TestMorphismTable:
    S1 = PhaseSpace(("a", "b"))
    S2 = PhaseSpace(("x", "y", "z"))

    def test_a_single_bitmask_maps_to_a_python_int(self):
        h1 = canonical_h_classical(1, self.S1, self.S2)
        image = h1(of_labels(self.S1, ["b"]))
        assert type(image.members) is int
        assert json.loads(json.dumps(image.to_json())) == {"members": [0, 0, 0, 1, 1, 1]}

    def test_a_batch_maps_elementwise(self):
        h2 = canonical_h_classical(2, self.S1, self.S2)
        masks = np.array([[0, 5], [7, 2]])
        images = h2(ClassicalProp(self.S2, masks)).members
        assert images.shape == masks.shape
        assert images.tolist() == [[h2(ClassicalProp(self.S2, int(m))).members for m in row]
                                   for row in masks]

    def test_the_table_is_a_read_only_copy(self):
        given = canonical_h_classical(1, self.S1, self.S2).table.copy()
        h = ClassicalMorphism(self.S1, product_phase_space(self.S1, self.S2), given)
        given[1] = 0
        assert h.table[1] == 0b111
        with pytest.raises(ValueError):
            h.table[1] = 0


def loop_product_space_isomorphism(h1, h2):
    """Independent oracle: the exhaustive check as plain Python loops over
    every pair of propositions, with eta rebuilt bit by bit on each call.
    Its ``bijective`` counts distinct images only (injectivity)."""
    s1, s2 = h1.source, h2.source
    if h1.target != h2.target:
        raise AxiomViolation("I_c_morphism: morphism targets differ")
    target = h1.target
    full_target = ClassicalProp.full(target)
    for name, h, s in (("h1", h1, s1), ("h2", h2, s2)):
        if h(ClassicalProp.full(s)).members != full_target.members:
            raise AxiomViolation(f"I_c_morphism: {name} is not unitary")
        if h(ClassicalProp(s, 0)).members != 0:
            raise AxiomViolation(f"I_c_morphism: {name} does not send empty to empty")
        for a in all_props(s):
            for b in all_props(s):
                if h(prop_or(a, b)).members != (h(a).members | h(b).members):
                    raise AxiomViolation(f"I_c_morphism: {name} does not preserve joins")
    atom_map = {}
    for x1 in s1.points:
        for x2 in s2.points:
            image = prop_and(
                h1(of_labels(s1, [x1])),
                h2(of_labels(s2, [x2])),
            )
            if len(labels(image)) != 1:
                raise AxiomViolation(
                    "III_atoms: atom images must meet in an atom, got size "
                    f"{len(labels(image))} for pair ({x1!r}, {x2!r})"
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
    def carried(h, s, cylinder):
        """Whether eta(h(a)) is the product proposition cylinder(labels of a)."""
        return all(
            eta(h(a)).members == of_labels(product, cylinder(labels(a))).members
            for a in all_props(s)
        )

    cylinders = carried(h1, s1, lambda a: itertools.product(a, s2.points)) and carried(
        h2, s2, lambda b: itertools.product(s1.points, b)
    )
    report = ProductIsoReport(
        len(props), len(images) == len(props), ok_union, ok_inter, ok_compl, cylinders
    )
    return eta, report


def remapped(h, remap):
    """h with every image mask m replaced by remap(source mask, m)."""
    return ClassicalMorphism(
        h.source, h.target, [remap(m, int(image)) for m, image in enumerate(h.table)]
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
# every factorization from 7 points up to cli.MAX_PRODUCT_POINTS
LARGE_SIZES = [(n1, n2) for n1 in range(1, 13) for n2 in range(1, 13) if 7 <= n1 * n2 <= 12]


def factor_spaces(n1, n2):
    return (
        PhaseSpace(tuple(f"a{k}" for k in range(n1))),
        PhaseSpace(tuple(f"b{k}" for k in range(n2))),
    )


def outcome(isomorphism, h1, h2):
    """The report and every value of eta, or the AxiomViolation message."""
    try:
        eta, report = isomorphism(h1, h2)
    except AxiomViolation as exc:
        return str(exc)
    return report.to_json(), [eta(a).members for a in all_props(h1.target)]


class TestProductIsomorphismOracle:
    @pytest.mark.parametrize("pair", PAIRS, ids=lambda f: f.__name__)
    def test_tables_match_loop_oracle(self, pair):
        checked = 0
        for n1, n2 in SIZES:
            s1, s2 = factor_spaces(n1, n2)
            morphisms = pair(s1, s2)
            if morphisms is None:
                continue
            mine = outcome(product_space_isomorphism, *morphisms)
            oracle = outcome(loop_product_space_isomorphism, *morphisms)
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
            product_space_isomorphism(*pair(s1, s2))
        assert str(exc.value).startswith(message)

    def test_collapsed_target_is_not_bijective(self):
        # h1 forgets the first factor: every atom meet is one point of a
        # target with only |s2| points, so eta is injective but not onto
        # the 2^(n1 n2) product propositions (the loop oracle counts only
        # distinct images and reports it bijective)
        s1, s2 = factor_spaces(2, 3)
        h2 = ClassicalMorphism(s2, s2, np.arange(8))
        h1 = ClassicalMorphism(s1, s2, [0, 7, 7, 7])
        _, report = product_space_isomorphism(h1, h2)
        assert report.prop_count == 8
        assert not report.bijective
        assert not report.passed

    def test_a_permuted_table_is_an_isomorphism_but_not_the_product(self, monkeypatch):
        # eta's table read in the product space with its points reversed has
        # its bits reversed: a permutation of points, so a Boolean
        # isomorphism, but eta(h1({a0})) is no longer {a0} x Omega2
        s1, s2 = factor_spaces(3, 4)
        product = product_phase_space(s1, s2)
        monkeypatch.setattr(classical, "product_phase_space",
                            lambda *_: PhaseSpace(product.points[::-1]))
        eta, report = product_space_isomorphism(*canonical_pair(s1, s2))
        assert report.bijective and report.preserves_union
        assert report.preserves_intersection and report.preserves_complement
        assert not report.passed and not report.carries_cylinders

    @pytest.mark.parametrize("pair", (canonical_pair, join_breaking_pair, scrambled_pair),
                             ids=lambda f: f.__name__)
    def test_large_products_match_the_pairwise_sweep(self, pair, monkeypatch):
        # up to 12 points, past the reach of the loop oracle's Python pairs:
        # the same product check with _preserves swapped for the pairwise sweep
        checked = 0
        for n1, n2 in LARGE_SIZES:
            s1, s2 = factor_spaces(n1, n2)
            morphisms = pair(s1, s2)
            if morphisms is None:
                continue
            mine = outcome(product_space_isomorphism, *morphisms)
            with monkeypatch.context() as patched:
                patched.setattr(classical, "_preserves", pairwise_preserves)
                oracle = outcome(product_space_isomorphism, *morphisms)
            assert mine == oracle, (n1, n2)
            checked += 1
        # the scrambled pair needs two points per factor
        both = sum(n1 > 1 and n2 > 1 for n1, n2 in LARGE_SIZES)
        assert checked == (both if pair is scrambled_pair else len(LARGE_SIZES))


def row_blocks(rows: int, width: int):
    """Slices that cut range(rows) into blocks of as many rows as fit in
    classical._CHUNK elements when each row broadcasts against ``width``
    elements; at least one row per block, so a row wider than the budget
    is its own."""
    step = max(1, classical._CHUNK // width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def pairwise_preserves(op, table):
    """Oracle for classical._preserves: table[op(a, b)] against
    op(table[a], table[b]) on all 4^N pairs of masks, broadcasting one
    block of rows a against every b at a time."""
    b = np.arange(len(table), dtype=np.int64)
    blocks = (b[rows, None] for rows in row_blocks(len(b), len(b)))
    return all(np.array_equal(table[op(a, b)], op(table[a], table[b])) for a in blocks)


def rotated(mask):
    """The 3-bit mask with point k moved to point k + 1 (mod 3)."""
    return (mask << 1 | mask >> 2) & 7


class TestPreservesOracle:
    @pytest.mark.parametrize("entries, bits", [(4, 3), (8, 1)])
    def test_every_small_table_matches_the_pairwise_sweep(self, entries, bits):
        verdicts = set()
        for values in itertools.product(range(1 << bits), repeat=entries):
            table = np.array(values, dtype=np.int64)
            for op in (np.bitwise_or, np.bitwise_and):
                verdict = classical._preserves(op, table)
                assert verdict == pairwise_preserves(op, table), (values, op)
                verdicts.add((op, verdict))
        assert len(verdicts) == 4  # each op both holds and fails somewhere

    @pytest.mark.parametrize(
        "table, joins, meets",
        [
            # every nonempty set to {0} on top of a constant {3}: T[0] != 0
            ([8] + [9] * 7, True, False),
            # only the full set maps to something, and that is not full
            ([0] * 7 + [6], False, True),
            ([rotated(m) for m in range(8)], True, True),
            ([rotated(m) ^ (m == 5) for m in range(8)], False, False),
        ],
        ids=["join_hom_nonzero_bottom", "meet_hom_nonfull_top", "point_permutation",
             "one_flipped_entry"],
    )
    def test_named_tables(self, table, joins, meets):
        table = np.array(table, dtype=np.int64)
        for op, expected in ((np.bitwise_or, joins), (np.bitwise_and, meets)):
            assert classical._preserves(op, table) == pairwise_preserves(op, table) == expected


@pytest.mark.parametrize("chunk", [classical._CHUNK, 8])
def test_row_blocks_cover_every_row_once_in_the_fewest_blocks(chunk, monkeypatch):
    monkeypatch.setattr(classical, "_CHUNK", chunk)
    for rows, width in itertools.product((1, 2, 5, 64, 256), (1, 3, 4, 256, 1 << 16)):
        sizes = [len(range(rows)[block]) for block in row_blocks(rows, width)]
        covered = np.concatenate([np.arange(rows)[block] for block in row_blocks(rows, width)])
        assert np.array_equal(covered, np.arange(rows)), (rows, width)
        # as few blocks as the budget allows, and only a lone row exceeds it
        assert len(sizes) == -(-rows // max(1, chunk // width)), (rows, width)
        assert all(size * width <= chunk or size == 1 for size in sizes), (rows, width)


@pytest.mark.parametrize("chunk", [1, 7, 8, 50, classical._CHUNK])
def test_rotation_cover_checks_every_triple_of_the_cube(chunk, monkeypatch):
    monkeypatch.setattr(classical, "_CHUNK", chunk)
    for n in range(1, 10):
        boxes = rotation_cover(n)
        # consecutive b-ranges from 0 to n, each of one b-value at least
        assert [lo for lo, _ in boxes] == [0] + [hi for _, hi in boxes[:-1]], n
        assert boxes[-1][1] == n and all(lo < hi for lo, hi in boxes), n
        # only a box of one b-value exceeds the budget, and one more b-value
        # would pass it (or the end)
        assert all((n - lo) ** 2 * (hi - lo) <= chunk or hi - lo == 1 for lo, hi in boxes), n
        assert all(hi == n or (n - lo) ** 2 * (hi - lo + 1) > chunk for lo, hi in boxes), n
        # check_triple_distributive checks the box triple (a, b, c)'s
        # identities at (a; b, c), (b; a, c) and (c; a, b)
        checked = {
            rotation
            for lo, hi in boxes
            for a, b, c in itertools.product(range(lo, n), range(lo, hi), range(lo, n))
            for rotation in ((a, b, c), (b, a, c), (c, a, b))
        }
        assert checked == set(itertools.product(range(n), repeat=3)), (n, chunk)


def test_omega_5_is_one_box():
    # the benchmark's lattice: its whole cube in one checker call
    assert rotation_cover(32) == [(0, 32)]


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
        ((t, x, p),) = phase_curve(OscillatorModel(n_max=2, mass=3.0, omega0=2.0), 1.0, 0.0, [0])
        assert type(t) is float and t == 0.0
        assert x == pytest.approx(0.0)
        assert p == pytest.approx(2.0 * 3.0 * 1.0)

    def test_quarter_phase_peaks_position(self):
        ((_, x, _),) = phase_curve(OscillatorModel(n_max=2), 1.0, math.pi / 2, [0.0])
        assert x == pytest.approx(1.0)

    def test_energy_constant_along_curve(self):
        model, amplitude = OscillatorModel(n_max=2, mass=1.7, omega0=2.3), 0.8
        rows = phase_curve(model, amplitude, 0.4, np.linspace(0.0, 10.0, 257))
        energies = np.array([p * p / (2 * model.mass) + 0.5 * model.mass * model.omega0**2 * x * x
                             for _, x, p in rows])
        assert len(rows) == 257
        assert np.max(np.abs(energies - energies[0])) < 1e-9

    def test_samples_lie_on_energy_ellipse(self):
        model, amplitude = OscillatorModel(n_max=4, mass=2.0, omega0=1.5), 1.1
        spring = model.mass * model.omega0**2
        expected = 0.5 * spring * amplitude**2
        for _, x, p in phase_curve(model, amplitude, 0.0, np.linspace(0, 7, 64)):
            assert p * p / (2 * model.mass) + 0.5 * spring * x * x == pytest.approx(expected, abs=1e-9)

    def test_invalid_parameters(self):
        # the curve has no parameter checks of its own: its model refuses these
        with pytest.raises(InvalidParameter):
            OscillatorModel(n_max=2, mass=0)
        with pytest.raises(InvalidParameter):
            OscillatorModel(n_max=2, omega0=-1)
