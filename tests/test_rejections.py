"""Every argument check refuses its bad input with its own exception.

One table of (call, exception, message) cases, one per rejecting branch
that the other tests do not reach.
"""

import re

import numpy as np
import pytest

from orthologic import classical as cl
from orthologic import composite, core, laws, oscillator, tensor, truth
from orthologic import subspace as sub
from orthologic.errors import (
    AxiomViolation,
    DimensionMismatch,
    InvalidDimension,
    InvalidIndex,
    InvalidParameter,
    NotOrthonormal,
    PreconditionViolated,
    SpaceMismatch,
)

E = np.eye(3, dtype=complex)

# (what, data, message): JSON that subspace_from_json refuses with ValueError
BAD_SUBSPACE_JSON = [
    ("a number", 5, "a subspace is an object with the keys ambient_dim and basis"),
    ("a list", [1, 2], "a subspace is an object with the keys ambient_dim and basis"),
    ("no basis", {"ambient_dim": 3},
     "a subspace is an object with the keys ambient_dim and basis"),
    ("no ambient_dim", {"basis": []},
     "a subspace is an object with the keys ambient_dim and basis"),
    ("a fractional ambient_dim", {"ambient_dim": 2.5, "basis": []},
     "ambient_dim must be a positive integer, got 2.5"),
    ("a boolean ambient_dim", {"ambient_dim": True, "basis": [[1.0, 0.0]]},
     "ambient_dim must be a positive integer, got True"),
    ("entries that are triples", {"ambient_dim": 3, "basis": [[1.0, 0.0, 0.0]] * 3},
     "basis must be a list of [re, im] number pairs"),
    ("entries that are null pairs", {"ambient_dim": 3, "basis": [[None, None]] * 3},
     "basis must be a list of [re, im] number pairs"),
]

# (what, data): JSON that ClassicalProp.from_json refuses on a 3-point space
BAD_CLASSICAL_JSON = [
    ("too few entries", {"members": [1, 0]}),
    ("too many entries", {"members": [1, 0, 0, 1]}),
    ("a string", {"members": "abc"}),
    ("an entry of 2", {"members": [2, 0, 0]}),
    ("a boolean entry", {"members": [True, 0, 0]}),
    ("a fractional entry", {"members": [0.5, 0, 0]}),
    ("no members", {"bits": [1, 0, 0]}),
    ("a bare list", [1, 0, 0]),
]


def space(n):
    return cl.PhaseSpace(tuple(range(n)))


def classical_pair(n1=2, n2=2):
    s1, s2 = space(n1), space(n2)
    return cl.canonical_h_classical(1, s1, s2), cl.canonical_h_classical(2, s1, s2)


def empty_to_nonempty():
    h1, h2 = classical_pair()
    table = h1.table.copy()
    table[0] = cl.ClassicalProp.full(h1.target).members
    return cl.product_space_isomorphism(cl.ClassicalMorphism(h1.source, h1.target, table), h2)


def unequal_targets():
    return cl.product_space_isomorphism(classical_pair()[0], classical_pair(2, 3)[1])


def eta_of_a_factor_prop():
    h1, h2 = classical_pair()
    eta, _ = cl.product_space_isomorphism(h1, h2)
    return eta(cl.ClassicalProp.full(h1.source))


def commutation(h1, h2, x1=E[0], y1=E[1], x2=E[0], y2=E[1]):
    return composite.check_commutation(h1, h2, x1, y1, x2, y2)


CASES = {
    # subspace
    "binary op on C^3 and C^4": (
        lambda: sub.join(sub.full_subspace(3), sub.full_subspace(4)),
        DimensionMismatch, "ambient dims differ: 3 vs 4"),
    **{f"{name} of a batch and a single subspace": (
        lambda op=op: op(sub.rays(3, E), sub.span_of([E[0]])),
        DimensionMismatch, "operands must be two subspaces or two batches of one length")
       for name, op in [("meet", sub.meet), ("equal", sub.equal),
                        ("projector_distance", sub.projector_distance), ("join", sub.join)]},
    "join of a single subspace and a batch": (
        lambda: sub.join(sub.span_of([E[0]]), sub.rays(3, E)),
        DimensionMismatch, "operands must be two subspaces or two batches of one length"),
    "meet of batches of two lengths": (
        lambda: sub.meet(sub.rays(3, E), sub.rays(3, E[:2])),
        DimensionMismatch, "operands must be two subspaces or two batches of one length"),
    "subspace_from_json with a bad entry count": (
        lambda: sub.subspace_from_json({"ambient_dim": 3, "basis": [[1.0, 0.0]] * 4}),
        DimensionMismatch, "basis entry count is not a multiple of ambient_dim"),
    **{f"subspace_from_json of {what}": (
        lambda data=data: sub.subspace_from_json(data), ValueError, message)
       for what, data, message in BAD_SUBSPACE_JSON},
    "a basis with a NaN entry": (
        lambda: sub.Subspace(3, np.full((3, 1), np.nan)), ValueError,
        "basis entries must be finite"),
    "a basis with an inf entry": (
        lambda: sub.Subspace(3, np.array([[np.inf], [0.0], [0.0]])), ValueError,
        "basis entries must be finite"),
    "a batch whose second element has a NaN entry": (
        lambda: sub.Subspace(3, (E[:, :1], np.full((3, 1), np.nan))), ValueError,
        "basis entries must be finite"),
    "random_subspace with k > d": (
        lambda: sub.random_subspace(3, 4, 0),
        InvalidDimension, "need 0 <= k <= d, got k=4, d=3"),
    "random_subspace_of with k > dim q": (
        lambda: sub.random_subspace_of(sub.zero_subspace(3), 1, 0),
        InvalidDimension, "need 0 <= k <= dim q, got k=1, dim q=0"),
    # core
    "as_vector with a non-finite entry": (
        lambda: core.as_vector([1.0, np.nan]), ValueError, "vector entries must be finite"),
    "random_unitary of size 0": (
        lambda: core.random_unitary(0, 1), DimensionMismatch, "d must be >= 1"),
    # composite
    "a morphism on the wrong ambient dimension": (
        lambda: composite.canonical_h(1, 3, 3)(sub.full_subspace(4)),
        DimensionMismatch, "morphism source dim 3, got 4"),
    "sweep_axioms with unequal targets": (
        lambda: composite.sweep_axioms(composite.canonical_h(1, 3, 3),
                                       composite.canonical_h(2, 3, 4), 1),
        DimensionMismatch, "morphisms must share a target space"),
    "canonical_h with a twist of the wrong shape": (
        lambda: composite.canonical_h(1, 3, 3, twist=np.eye(8)),
        NotOrthonormal, "twist must consist of 9 vectors of dim 9"),
    "check_commutation with a zero label": (
        lambda: commutation(composite.canonical_h(1, 3, 3), composite.canonical_h(2, 3, 3),
                            y2=np.zeros(3)),
        PreconditionViolated, "all four ray labels must be nonzero"),
    "check_commutation with an empty atom meet": (
        lambda: commutation(composite.canonical_h(1, 3, 3), composite.canonical_h(1, 3, 3),
                            x2=E[2]),
        PreconditionViolated, "the atom meet is empty; axioms fail upstream"),
    "intertwiner_F on a vector of the wrong length": (
        lambda: composite.intertwiner_F(composite.canonical_h(1, 3, 3), E[1], E[0])(np.ones(4)),
        DimensionMismatch, "ambient dims differ: 4 vs 9"),
    # laws
    "check_distributive on plain numbers": (
        lambda: laws.check_distributive(1, 2, 3), TypeError, "unsupported proposition type"),
    "is_modular_pair on unequal ambient dimensions": (
        lambda: laws.is_modular_pair(sub.full_subspace(3), sub.full_subspace(4)),
        DimensionMismatch, "ambient dims differ"),
    # classical
    "an empty phase space": (
        lambda: cl.PhaseSpace(()), InvalidParameter, "phase space must be non-empty"),
    "a phase space with duplicate labels": (
        lambda: cl.PhaseSpace(("a", "a")), InvalidParameter,
        "phase space labels must be unique"),
    "canonical_h_classical on side 3": (
        lambda: cl.canonical_h_classical(3, space(2), space(2)),
        InvalidParameter, "side must be 1 or 2"),
    "a classical morphism on a proposition of another space": (
        lambda: classical_pair()[0](cl.ClassicalProp.full(space(3))),
        SpaceMismatch, "proposition does not live on the morphism source"),
    "eta on a proposition of another space": (
        eta_of_a_factor_prop, SpaceMismatch, "proposition does not live on the morphism source"),
    "a classical morphism table of the wrong length": (
        lambda: cl.ClassicalMorphism(space(2), space(4), [0, 3, 12]),
        InvalidParameter, "morphism table must hold one integer image per source mask"),
    "a fractional classical morphism table": (
        lambda: cl.ClassicalMorphism(space(2), space(2), [0, 1, 2, 2.5]),
        InvalidParameter, "morphism table must hold one integer image per source mask"),
    "a classical morphism image past the target": (
        lambda: cl.ClassicalMorphism(space(2), space(2), [0, 1, 2, 4]),
        InvalidParameter, "morphism table has an image outside the target"),
    "a negative classical morphism image": (
        lambda: cl.ClassicalMorphism(space(2), space(2), [0, 1, -2, 3]),
        InvalidParameter, "morphism table has an image outside the target"),
    "product_space_isomorphism with unequal targets": (
        unequal_targets, AxiomViolation, "I_c_morphism: morphism targets differ"),
    "product_space_isomorphism with a map sending empty to nonempty": (
        empty_to_nonempty, AxiomViolation, "I_c_morphism: h1 does not send empty to empty"),
    "an int64 batch with a mask past the space": (
        lambda: cl.ClassicalProp(space(2), np.array([[0, 3], [4, 1]])),
        InvalidParameter, "bitmask out of range for this phase space"),
    "an int64 batch with a negative mask": (
        lambda: cl.ClassicalProp(space(2), np.array([3, -1])),
        InvalidParameter, "bitmask out of range for this phase space"),
    "a uint16 batch with a mask past the space": (
        lambda: cl.ClassicalProp(space(8), np.array([0, 255, 256], dtype=np.uint16)),
        InvalidParameter, "bitmask out of range for this phase space"),
    **{f"ClassicalProp.from_json of {what}": (
        lambda data=data: cl.ClassicalProp.from_json(space(3), data), ValueError,
        "members must be a list of 3 entries, each 0 or 1")
       for what, data in BAD_CLASSICAL_JSON},
    **{f"a ClassicalProp of {what}": (
        lambda members=members: cl.ClassicalProp(space(2), members), InvalidParameter,
        "members must be an int or a numpy integer array of bitmasks")
       for what, members in (("a float", 1.5), ("a float batch", np.array([0.5, 2.5])),
                             ("a bool", True), ("a string", "3"))},
    # tensor
    "TensorIndex with a zero factor": (
        lambda: tensor.TensorIndex(0, 3), DimensionMismatch, "factor dimensions must be positive"),
    "coefficient_matrix with a mismatched length": (
        lambda: tensor.TensorIndex(2, 3).coefficient_matrix(np.ones(5)),
        DimensionMismatch, "vector has dim 5, expected 6"),
    "a dual vector on a mismatched length": (
        lambda: tensor.riesz(np.ones(2))(np.ones(3)),
        DimensionMismatch, "argument dimension differs"),
    "elementary_tensor with mismatched lengths": (
        lambda: tensor.elementary_tensor(np.ones(2), np.ones(2), tensor.TensorIndex(2, 3)),
        DimensionMismatch, "factor dimensions do not match the index"),
    # truth and oscillator
    "truth_value with a state of the wrong length": (
        lambda: truth.truth_value(np.ones(4), sub.full_subspace(3)),
        DimensionMismatch, "state and proposition dimensions differ"),
    "an oscillator with hbar 0": (
        lambda: oscillator.OscillatorModel(n_max=3, hbar=0), InvalidParameter,
        "hbar, mass and omega0 must be positive"),
    "a proposition of C^0": (
        lambda: oscillator.proposition_from_eigenstates({0}, 0),
        InvalidDimension, "dim must be positive"),
    "an oscillator with a fractional n_max": (
        lambda: oscillator.OscillatorModel(n_max=2.5), InvalidParameter,
        "n_max must be an integer of at least 2"),
    "an oscillator with a float n_max": (
        lambda: oscillator.OscillatorModel(n_max=np.float64(3.0)), InvalidParameter,
        "n_max must be an integer of at least 2"),
    **{f"a proposition of {what}": (
        lambda index=index: oscillator.proposition_from_eigenstates([0, index], 3),
        InvalidIndex, "indices must be integers in [0, 3)")
       for what, index in (("a fractional index", 1.5), ("a boolean index", True),
                           ("a boolean index equal to another", False),
                           ("a float index", 2.0))},
    "an eigenfunction of a fractional index": (
        lambda: oscillator.hermite_eigenfunction(oscillator.OscillatorModel(n_max=3), 1.5),
        InvalidIndex, "need an integer 0 <= n <= 3, got 1.5"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_a_bad_argument_is_refused(name):
    call, exception, message = CASES[name]
    with pytest.raises(exception, match=re.escape(message)):
        call()


def test_numpy_integers_index_the_oscillator():
    model = oscillator.OscillatorModel(n_max=np.int64(3))
    assert model.levels == 4
    assert np.array_equal(oscillator.hermite_eigenfunction(model, np.uint8(2)),
                          oscillator.hermite_eigenfunction(model, 2))
    assert np.array_equal(oscillator.proposition_from_eigenstates([np.int32(1)], 3).basis,
                          oscillator.proposition_from_eigenstates([1], 3).basis)


def test_an_empty_batch_is_not_refused():
    # the range check reduces to a minimum and a maximum, which an empty
    # batch lacks: it holds no mask out of range, so it is kept as it is
    for members in (np.array([], dtype=np.int64), np.zeros((0, 3), dtype=np.uint16)):
        assert cl.ClassicalProp(space(8), members).members is members
