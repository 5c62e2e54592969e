"""Finite-dimensional classical and quantum propositional systems.

Classical propositions are subsets of a finite phase space with set
operations; quantum propositions are closed subspaces of C^d with
meet, join and orthogonal complement.  The package verifies the
lattice laws separating the two logics, assigns projection-valued
truth values to prepared states, and constructively checks that
composite classical systems are described by cartesian products and
composite quantum systems by tensor products.
"""

from .classical import (
    ClassicalMorphism,
    ClassicalProp,
    PhaseCurveSample,
    PhaseSpace,
    canonical_h_classical,
    classical_atoms,
    product_phase_space,
    product_space_isomorphism,
    prop_and,
    prop_implies,
    prop_not,
    prop_or,
    sample_oscillator_curve,
)
from .composite import (
    AxiomReport,
    BasisMap,
    SubspaceMorphism,
    TensorIsoReport,
    build_basis_map,
    canonical_h,
    check_commutation,
    check_m_morphism,
    classify_linearity,
    intertwiner_F,
    restriction_iso_u,
    verify_axioms,
    verify_tensor_isomorphism,
)
from .core import (
    DEFAULT_TOL,
    Tolerance,
    inner,
    orthonormalize,
    polarization_inner,
    random_unitary,
    rank,
)
from .errors import (
    AxiomViolation,
    DimensionMismatch,
    InvalidDimension,
    InvalidIndex,
    InvalidParameter,
    NotInDomain,
    NotOrthonormal,
    OrthologicError,
    PreconditionViolated,
    SpaceMismatch,
    ZeroState,
)
from .laws import (
    LawReport,
    check_covering,
    check_distributive,
    check_foulis_distributivity,
    check_orthomodular,
    check_triple_distributive,
    compatible,
    is_modular_pair,
    nondistributivity_witness,
)
from .oscillator import (
    OscillatorModel,
    energies,
    hermite_eigenfunction,
    ladder_operators,
    proposition_from_eigenstates,
)
from .subspace import (
    Ray,
    Subspace,
    equal,
    full_subspace,
    is_atom,
    join,
    leq,
    meet,
    ortho,
    random_subspace,
    span_of,
    zero_subspace,
)
from .tensor import (
    DualVector,
    TensorIndex,
    dual_inner,
    elementary_tensor,
    is_separable,
    product_state_probability,
    riesz,
)
from .truth import TruthValue, truth_value

__version__ = "0.1.0"
