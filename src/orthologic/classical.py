"""Classical propositional systems over finite phase spaces.

Propositions about a classical system are identified with subsets of
its phase space; the logical connectives become set operations, and
the resulting power-set lattice is complete, orthocomplemented,
distributive and atomic.  Phase spaces here are finite labeled samples
of the continuous (position, momentum) space, which is all the
composite-system verification needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import AxiomViolation, InvalidParameter, SpaceMismatch

__all__ = [
    "PhaseSpace",
    "ClassicalProp",
    "PhaseCurveSample",
    "ClassicalMorphism",
    "ProductIsoReport",
    "prop_and",
    "prop_or",
    "prop_not",
    "prop_implies",
    "classical_atoms",
    "all_props",
    "product_phase_space",
    "canonical_h_classical",
    "product_space_isomorphism",
    "sample_oscillator_curve",
    "curve_energy",
]


@dataclass(frozen=True)
class PhaseSpace:
    """An ordered finite set of labeled phase-space points."""

    points: tuple

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        if not pts:
            raise InvalidParameter("phase space must be non-empty")
        if len(set(pts)) != len(pts):
            raise InvalidParameter("phase space labels must be unique")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label) -> int:
        return self.points.index(label)


@dataclass(frozen=True)
class ClassicalProp:
    """A proposition: a subset of a phase space, stored as a bitmask.

    ``members`` is one bitmask (an int) or a batch: a numpy integer array
    of bitmasks over the same space, each element one proposition.  The
    connectives act elementwise and broadcast, so prop_and(p, q) on
    batches of shapes (n, 1) and (1, n) holds all n^2 meets; ``contains``
    is elementwise too.  ``size``, ``labels`` and the JSON forms are for
    one bitmask.  A batch is not hashable and is never compared with
    ``==``: the ``laws`` checkers compare the bitmasks themselves.
    """

    space: PhaseSpace
    members: int | np.ndarray = field(default=0)

    def __post_init__(self) -> None:
        if np.any((self.members < 0) | (self.members >= 1 << self.space.size)):
            raise InvalidParameter("bitmask out of range for this phase space")

    @classmethod
    def from_labels(cls, space: PhaseSpace, labels) -> "ClassicalProp":
        mask = 0
        for lab in labels:
            mask |= 1 << space.index(lab)
        return cls(space, mask)

    @classmethod
    def empty(cls, space: PhaseSpace) -> "ClassicalProp":
        return cls(space, 0)

    @classmethod
    def full(cls, space: PhaseSpace) -> "ClassicalProp":
        return cls(space, (1 << space.size) - 1)

    @property
    def size(self) -> int:
        return bin(self.members).count("1")

    def labels(self) -> tuple:
        return tuple(
            p for k, p in enumerate(self.space.points) if self.members >> k & 1
        )

    def contains(self, other: "ClassicalProp") -> bool:
        _check_space(self, other)
        return other.members & ~self.members == 0

    def to_json(self) -> dict:
        return {"members": [self.members >> k & 1 for k in range(self.space.size)]}

    @classmethod
    def from_json(cls, space: PhaseSpace, data: dict) -> "ClassicalProp":
        mask = 0
        for k, bit in enumerate(data["members"]):
            if bit:
                mask |= 1 << k
        return cls(space, mask)


def _check_space(a: ClassicalProp, b: ClassicalProp) -> None:
    if a.space != b.space:
        raise SpaceMismatch("propositions refer to different phase spaces")


def prop_and(a: ClassicalProp, b: ClassicalProp) -> ClassicalProp:
    _check_space(a, b)
    return ClassicalProp(a.space, a.members & b.members)


def prop_or(a: ClassicalProp, b: ClassicalProp) -> ClassicalProp:
    _check_space(a, b)
    return ClassicalProp(a.space, a.members | b.members)


def prop_not(a: ClassicalProp) -> ClassicalProp:
    return ClassicalProp(a.space, ~a.members & ((1 << a.space.size) - 1))


def prop_implies(a: ClassicalProp, b: ClassicalProp) -> ClassicalProp:
    """Material implication, reduced to (not a) or b."""
    _check_space(a, b)
    return prop_or(prop_not(a), b)


def classical_atoms(space: PhaseSpace) -> list[ClassicalProp]:
    """The singletons, which are the atoms of the power-set lattice."""
    return [ClassicalProp(space, 1 << k) for k in range(space.size)]


def all_props(space: PhaseSpace):
    """Iterate over every proposition; exhaustive only at small sizes."""
    for mask in range(1 << space.size):
        yield ClassicalProp(space, mask)


def product_phase_space(s1: PhaseSpace, s2: PhaseSpace) -> PhaseSpace:
    """Cartesian product space, ordered lexicographically by index pairs."""
    return PhaseSpace(tuple((x1, x2) for x1 in s1.points for x2 in s2.points))


@dataclass(frozen=True)
class ClassicalMorphism:
    """A proposition map between phase spaces, with its end spaces attached."""

    source: PhaseSpace
    target: PhaseSpace
    apply: Callable[[ClassicalProp], ClassicalProp]

    def __call__(self, p: ClassicalProp) -> ClassicalProp:
        return self.apply(p)


def canonical_h_classical(side: int, s1: PhaseSpace, s2: PhaseSpace) -> ClassicalMorphism:
    """Cylinder-extension embedding of one factor into the product space.

    Side 1 sends A to A x Omega_2, side 2 sends B to Omega_1 x B.  Both
    preserve arbitrary unions and map the full space to the full space.
    """
    if side not in (1, 2):
        raise InvalidParameter("side must be 1 or 2")
    product = product_phase_space(s1, s2)
    source = s1 if side == 1 else s2
    # cylinders[i]: the product points whose side coordinate is source point i
    cylinders = [0] * source.size
    for k, point in enumerate(product.points):
        cylinders[source.index(point[side - 1])] |= 1 << k

    def extend(p: ClassicalProp) -> ClassicalProp:
        if p.space != source:
            raise SpaceMismatch("proposition does not live on the morphism source")
        mask = 0
        for i, cylinder in enumerate(cylinders):
            if p.members >> i & 1:
                mask |= cylinder
        return ClassicalProp(product, mask)

    return ClassicalMorphism(source, product, extend)


@dataclass
class ProductIsoReport:
    """Outcome of the exhaustive product-isomorphism verification."""

    prop_count: int
    bijective: bool
    preserves_union: bool
    preserves_intersection: bool
    preserves_complement: bool

    @property
    def passed(self) -> bool:
        return (
            self.bijective
            and self.preserves_union
            and self.preserves_intersection
            and self.preserves_complement
        )

    def to_json(self) -> dict:
        return {
            "prop_count": self.prop_count,
            "bijective": self.bijective,
            "preserves_union": self.preserves_union,
            "preserves_intersection": self.preserves_intersection,
            "preserves_complement": self.preserves_complement,
            "passed": self.passed,
        }


# Pairs per broadcast comparison: each int64 temporary of a chunk takes
# 128 KB, whatever the number of propositions.
_CHUNK = 1 << 14


def _preserves(op, table: np.ndarray) -> bool:
    """Whether table[op(a, b)] == op(table[a], table[b]) for every pair of
    masks below len(table), compared by broadcasting over a chunk of rows
    a at a time, at most _CHUNK pairs per chunk."""
    b = np.arange(len(table), dtype=np.int64)
    rows = max(1, _CHUNK // len(table))
    chunks = (b[start:start + rows, None] for start in range(0, len(b), rows))
    return all(np.array_equal(table[op(a, b)], op(table[a], table[b])) for a in chunks)


def _check_classical_axioms(
    s1: PhaseSpace, s2: PhaseSpace, h1: ClassicalMorphism, h2: ClassicalMorphism
) -> np.ndarray:
    """Validate the composition conditions and return the atom images.

    Tabulates each morphism once and returns, for every pair of factor
    points in product order, the bitmask of the composite atom h1({x1})
    meet h2({x2}).  Raises AxiomViolation with the failed condition named.
    """
    if h1.target != h2.target:
        raise AxiomViolation("I_c_morphism: morphism targets differ")
    full_target = ClassicalProp.full(h1.target).members
    tables = []
    for name, h, s in (("h1", h1, s1), ("h2", h2, s2)):
        table = np.array([h(ClassicalProp(s, m)).members for m in range(1 << s.size)])
        if table[-1] != full_target:
            raise AxiomViolation(f"I_c_morphism: {name} is not unitary")
        if table[0] != 0:
            raise AxiomViolation(f"I_c_morphism: {name} does not send empty to empty")
        if not _preserves(np.bitwise_or, table):
            raise AxiomViolation(f"I_c_morphism: {name} does not preserve joins")
        tables.append(table)
    atoms = []
    for i, x1 in enumerate(s1.points):
        for j, x2 in enumerate(s2.points):
            image = int(tables[0][1 << i] & tables[1][1 << j])
            size = bin(image).count("1")
            if size != 1:
                raise AxiomViolation(
                    "III_atoms: atom images must meet in an atom, got size "
                    f"{size} for pair ({x1!r}, {x2!r})"
                )
            atoms.append(image)
    return np.array(atoms, dtype=np.int64)


def product_space_isomorphism(
    s1: PhaseSpace, s2: PhaseSpace, h1: ClassicalMorphism, h2: ClassicalMorphism
):
    """Construct the isomorphism onto the product power set and verify it.

    The atom-pair map sends {(x1, x2)} to h1({x1}) meet h2({x2}); the
    induced map eta sends a composite proposition A to the set of pairs
    whose atom image is contained in A.  eta is one lookup table over every
    composite bitmask, read by the returned callable.  The check is
    exhaustive: bijective means every product proposition is hit exactly
    once, complement is one vector comparison, and union and intersection
    compare all 4^N pairs by broadcasting, at most 2^14 pairs at a time.
    """
    atoms = _check_classical_axioms(s1, s2, h1, h2)
    target = h1.target
    product = product_phase_space(s1, s2)
    full_target = ClassicalProp.full(target).members
    # Atom images cover: their union is h1(full) meet h2(full) (joins preserved) = full (unitary).
    masks = np.arange(1 << target.size, dtype=np.int64)
    inside = (atoms & ~masks[:, None]) == 0
    table = (inside * (1 << np.arange(product.size, dtype=np.int64))).sum(axis=1)

    def eta(a: ClassicalProp) -> ClassicalProp:
        if a.space != target:
            raise SpaceMismatch("input does not live on the composite space")
        return ClassicalProp(product, int(table[a.members]))

    report = ProductIsoReport(
        prop_count=len(table),
        bijective=bool((np.bincount(table, minlength=1 << product.size) == 1).all()),
        preserves_union=_preserves(np.bitwise_or, table),
        preserves_intersection=_preserves(np.bitwise_and, table),
        preserves_complement=np.array_equal(
            table[full_target ^ masks], table ^ ClassicalProp.full(product).members
        ),
    )
    return eta, report


@dataclass(frozen=True)
class PhaseCurveSample:
    """Sampled phase-space trajectory of a one-dimensional oscillator."""

    times: tuple[float, ...]
    states: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise InvalidParameter("times and states must have equal length")


def sample_oscillator_curve(
    amplitude: float,
    phase: float,
    omega0: float,
    mass: float,
    times: Sequence[float],
) -> PhaseCurveSample:
    """Sample x(t) = A sin(w0 t + phi), p(t) = w0 m A cos(w0 t + phi).

    The samples trace the constant-energy ellipse
    p^2 / 2m + D x^2 / 2 = E with spring constant D = m w0^2.
    """
    if omega0 <= 0 or mass <= 0:
        raise InvalidParameter("omega0 and mass must be positive")
    ts = tuple(float(t) for t in times)
    states = tuple(
        (
            amplitude * math.sin(omega0 * t + phase),
            omega0 * mass * amplitude * math.cos(omega0 * t + phase),
        )
        for t in ts
    )
    return PhaseCurveSample(ts, states)


def curve_energy(sample: PhaseCurveSample, mass: float, omega0: float) -> np.ndarray:
    """Total energy at each sample, using D = m w0^2."""
    spring = mass * omega0**2
    return np.array(
        [p * p / (2 * mass) + 0.5 * spring * x * x for x, p in sample.states]
    )
