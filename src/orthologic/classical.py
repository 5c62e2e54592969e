"""Classical propositional systems over finite phase spaces.

Propositions about a classical system are identified with subsets of
its phase space; the logical connectives become set operations, and
the resulting power-set lattice is complete, orthocomplemented,
distributive and atomic.  Phase spaces here are finite labeled samples
of the continuous (position, momentum) space, which is all the
composite-system verification needs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AxiomViolation, InvalidParameter, SpaceMismatch

__all__ = [
    "PhaseSpace",
    "ClassicalProp",
    "ClassicalMorphism",
    "ProductIsoReport",
    "prop_and",
    "prop_or",
    "prop_not",
    "product_phase_space",
    "canonical_h_classical",
    "product_space_isomorphism",
    "rotation_cover",
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


# The bits of each numpy integer dtype that a bitmask can use (a signed
# one keeps its sign bit clear); a dtype absent here holds no bitmask.
_MASK_BITS = {dtype: dtype.itemsize * 8 - (dtype.kind == "i")
              for dtype in map(np.dtype, np.typecodes["AllInteger"])}


@dataclass(frozen=True, eq=False)
class ClassicalProp:
    """A proposition: a subset of a phase space, stored as a bitmask.

    ``members`` is one bitmask (an int or a numpy integer scalar) or a
    batch: a numpy integer array of bitmasks over the same space, each
    element one proposition; any other type, a bool or a float too, is
    refused, and so is a numpy dtype too narrow for the full set (so the
    full set, and every connective's result, fits the dtype).  The
    connectives act elementwise and broadcast, so prop_and(p, q) on
    batches of shapes (n, 1) and (1, n) holds all n^2 meets; ``contains``
    is elementwise too.  and/or of two dtypes numpy cannot combine, such
    as int64 and uint64, raise InvalidParameter.  The JSON forms are for one
    bitmask: to_json refuses a batch.  Like every array-holding dataclass
    here, it compares and hashes by identity, a single bitmask too:
    compare ``members`` instead, as the ``laws`` checkers do.
    """

    space: PhaseSpace
    members: int | np.ndarray = field(default=0)

    def __post_init__(self) -> None:
        m, size = self.members, self.space.size
        if type(m) is not int and not (isinstance(m, (np.ndarray, np.integer))
                                       and _MASK_BITS.get(m.dtype, 0) >= size):
            raise InvalidParameter("members must be an int or a numpy integer array of bitmasks"
                                   f", of a dtype that holds {size} points")
        _check_range(m, size, "bitmask out of range for this phase space")

    @classmethod
    def full(cls, space: PhaseSpace) -> "ClassicalProp":
        return cls(space, (1 << space.size) - 1)

    def contains(self, other: "ClassicalProp") -> bool:
        _check_space(self, other)
        return other.members & ~self.members == 0

    def to_json(self) -> dict:
        if isinstance(self.members, np.ndarray):
            raise InvalidParameter("the JSON form holds one bitmask, not a batch")
        return {"members": [int(self.members) >> k & 1 for k in range(self.space.size)]}

    @classmethod
    def from_json(cls, space: PhaseSpace, data: dict) -> "ClassicalProp":
        """The proposition of to_json's form on ``space``.  This reads
        outside input: anything else raises ValueError."""
        bits = data.get("members") if isinstance(data, dict) else None
        if not (isinstance(bits, list) and len(bits) == space.size
                and all(type(bit) is int and bit in (0, 1) for bit in bits)):
            raise ValueError(f"members must be a list of {space.size} entries, each 0 or 1")
        return cls(space, sum(bit << k for k, bit in enumerate(bits)))


def _check_range(masks, size: int, message: str) -> None:
    """Refuse ``masks`` unless each is a set of the first ``size`` points:
    then their union, a Python int so that no shift overflows a dtype, is
    neither negative nor has a bit at ``size`` or past it."""
    union = int(np.bitwise_or.reduce(masks, axis=None))
    if union < 0 or union >> size:
        raise InvalidParameter(message)


def _check_space(a: ClassicalProp, b: ClassicalProp) -> None:
    if a.space != b.space:
        raise SpaceMismatch("propositions refer to different phase spaces")


def _connective(space: PhaseSpace, members) -> ClassicalProp:
    # a connective's result, in range by construction: the and/or of
    # in-range masks, or a complement masked by the full set
    prop = object.__new__(ClassicalProp)
    object.__setattr__(prop, "space", space)
    object.__setattr__(prop, "members", members)
    return prop


def prop_and(a: ClassicalProp, b: ClassicalProp) -> ClassicalProp:
    _check_space(a, b)
    try:
        return _connective(a.space, a.members & b.members)
    except TypeError:
        raise InvalidParameter("the dtypes of these bitmasks do not combine") from None


def prop_or(a: ClassicalProp, b: ClassicalProp) -> ClassicalProp:
    _check_space(a, b)
    try:
        return _connective(a.space, a.members | b.members)
    except TypeError:
        raise InvalidParameter("the dtypes of these bitmasks do not combine") from None


def prop_not(a: ClassicalProp) -> ClassicalProp:
    return _connective(a.space, ~a.members & ((1 << a.space.size) - 1))


def product_phase_space(s1: PhaseSpace, s2: PhaseSpace) -> PhaseSpace:
    """Cartesian product space, ordered lexicographically by index pairs."""
    return PhaseSpace(tuple((x1, x2) for x1 in s1.points for x2 in s2.points))


@dataclass(frozen=True, eq=False)
class ClassicalMorphism:
    """A proposition map between phase spaces, held as its table:
    ``table[m]`` is the image bitmask of source mask m, one int64 entry
    for each of the 2^|source| masks.  The table is copied and read-only;
    like ClassicalProp, a morphism compares and hashes by identity."""

    source: PhaseSpace
    target: PhaseSpace
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.array(self.table)
        if table.dtype.kind not in "iu" or table.shape != (1 << self.source.size,):
            raise InvalidParameter("morphism table must hold one integer image per source mask")
        _check_range(table, self.target.size, "morphism table has an image outside the target")
        table = table.astype(np.int64, copy=False)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __call__(self, p: ClassicalProp) -> ClassicalProp:
        """The image of p, a single bitmask or elementwise for a batch."""
        if p.space != self.source:
            raise SpaceMismatch("proposition does not live on the morphism source")
        image = self.table[p.members]
        return ClassicalProp(self.target, image if isinstance(image, np.ndarray) else int(image))


def _extend(op, start, images) -> np.ndarray:
    """The table T over every mask below 2^len(images) with T[m] = start op
    images[i] for each bit i of m, built by doubling: the entries with bit
    i set are those without it, each op images[i]."""
    table = np.array([start], dtype=np.int64)
    for image in images:
        table = np.concatenate((table, op(table, image)))
    return table


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
    return ClassicalMorphism(source, product, _extend(np.bitwise_or, 0, cylinders))


@dataclass
class ProductIsoReport:
    """Outcome of the exhaustive product-isomorphism verification."""

    prop_count: int
    bijective: bool
    preserves_union: bool
    preserves_intersection: bool
    preserves_complement: bool
    carries_cylinders: bool

    @property
    def passed(self) -> bool:
        return (
            self.bijective
            and self.preserves_union
            and self.preserves_intersection
            and self.preserves_complement
            and self.carries_cylinders
        )

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# Elements per box of lattice-check --classical's triple sweep, the size
# of each temporary of a box: 32 KB of the np.uint8 masks that omega up to
# 8 takes, which holds omega 5's whole cube; at omega 8 a box of one
# b-value takes up to 2^16 elements, 64 KB.
_CHUNK = 1 << 15


def rotation_cover(n: int) -> list:
    """The boxes (lo, hi) of the triple sweep over n propositions: a and c
    in range(lo, n), b in range(lo, hi), of as many b-values as fit _CHUNK
    elements and at least one.  The b-ranges run on from 0 to n, so the
    boxes hold every triple whose b is least, about n^3 / 3 of them.

    They check every identity of the whole cube, for any connectives:
    laws.check_triple_distributive checks each at (a; b, c), (b; a, c) and
    (c; a, b), so the identity at (x; y, z) is checked by the box triple
    (x, y, z) if y is least, by (y, x, z) if x is, and by (y, z, x) if z is."""
    boxes, lo = [], 0
    while lo < n:
        hi = min(n, lo + max(1, _CHUNK // (n - lo) ** 2))
        boxes.append((lo, hi))
        lo = hi
    return boxes


def _preserves(op, table: np.ndarray) -> bool:
    """Whether table[op(a, b)] == op(table[a], table[b]) for all masks a, b
    below len(table), decided per mask: T keeps joins iff T is the
    extension of T[0] by the atom images T[{i}], as T[0] <= T[0 | a];
    dually T keeps meets iff T reversed, R[m] = T[full - m], is the meet
    extension of T[full] by the coatom images T[full - {i}]."""
    t = table if op is np.bitwise_or else table[::-1]
    n = (len(t) - 1).bit_length()
    return np.array_equal(_extend(op, t[0], t[1 << np.arange(n)]), t)


def _check_classical_axioms(h1: ClassicalMorphism, h2: ClassicalMorphism) -> np.ndarray:
    """Validate the composition conditions on the tables of h1 and h2.

    Returns, for every pair of points of the sources s1 and s2 in product
    order, the bitmask of the composite atom h1({x1}) meet h2({x2}).
    Raises AxiomViolation naming the failed condition.
    """
    if h1.target != h2.target:
        raise AxiomViolation("I_c_morphism: morphism targets differ")
    s1, s2 = h1.source, h2.source
    full_target = ClassicalProp.full(h1.target).members
    for name, table in (("h1", h1.table), ("h2", h2.table)):
        if table[-1] != full_target:
            raise AxiomViolation(f"I_c_morphism: {name} is not unitary")
        if table[0] != 0:
            raise AxiomViolation(f"I_c_morphism: {name} does not send empty to empty")
        if not _preserves(np.bitwise_or, table):
            raise AxiomViolation(f"I_c_morphism: {name} does not preserve joins")
    atoms = (h1.table[1 << np.arange(s1.size)][:, None] & h2.table[1 << np.arange(s2.size)]).ravel()
    bad = np.flatnonzero((atoms == 0) | ((atoms & (atoms - 1)) != 0))
    if bad.size:
        i, j = divmod(int(bad[0]), s2.size)
        raise AxiomViolation(
            "III_atoms: atom images must meet in an atom, got size "
            f"{bin(int(atoms[bad[0]])).count('1')} for pair ({s1.points[i]!r}, {s2.points[j]!r})"
        )
    return atoms


def product_space_isomorphism(h1: ClassicalMorphism, h2: ClassicalMorphism):
    """Construct the isomorphism onto the product power set of the sources
    s1 and s2 of h1 and h2, and verify it.

    The atom-pair map sends {(x1, x2)} to h1({x1}) meet h2({x2}); the
    induced map eta sends a composite proposition A to the set of pairs
    whose atom image is contained in A.  eta is returned as the
    ClassicalMorphism from the composite space to the product space whose
    table holds eta of every composite bitmask.  The check is exhaustive:
    bijective means every product proposition is hit exactly once,
    complement is one vector comparison, and union and intersection are
    decided on every mask from the images of atoms and coatoms.
    A point permutation is a Boolean isomorphism too, so eta must also send
    h1(A) to A x Omega2 and h2(B) to Omega1 x B, for every A and B.
    """
    atoms = _check_classical_axioms(h1, h2)
    s1, s2, target = h1.source, h2.source, h1.target
    product = product_phase_space(s1, s2)
    full_target = ClassicalProp.full(target).members
    # Atom images cover: their union is h1(full) meet h2(full) (joins preserved) = full (unitary).
    masks = np.arange(1 << target.size, dtype=np.int64)
    inside = (atoms & ~masks[:, None]) == 0
    table = (inside * (1 << np.arange(product.size, dtype=np.int64))).sum(axis=1)
    report = ProductIsoReport(
        prop_count=len(table),
        bijective=bool((np.bincount(table, minlength=1 << product.size) == 1).all()),
        preserves_union=_preserves(np.bitwise_or, table),
        preserves_intersection=_preserves(np.bitwise_and, table),
        preserves_complement=np.array_equal(
            table[full_target ^ masks], table ^ ClassicalProp.full(product).members
        ),
        carries_cylinders=all(
            np.array_equal(table[h.table], canonical_h_classical(side, s1, s2).table)
            for side, h in ((1, h1), (2, h2))
        ),
    )
    return ClassicalMorphism(target, product, table), report
