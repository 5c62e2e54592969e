"""Exception types shared across the package."""


class OrthologicError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(OrthologicError):
    """Operands live in spaces of different dimension."""


class InvalidDimension(OrthologicError):
    """A requested dimension is out of range."""


class InvalidIndex(OrthologicError):
    """An index is outside the valid range."""


class InvalidParameter(OrthologicError):
    """A physical parameter has an inadmissible value."""


class SpaceMismatch(OrthologicError):
    """Classical propositions refer to different phase spaces."""


class ZeroState(OrthologicError):
    """A state vector expected to be nonzero has (numerically) zero norm."""


class NotInDomain(OrthologicError):
    """A vector lies outside the domain subspace of a ray intertwiner."""


class PreconditionViolated(OrthologicError):
    """A checker precondition does not hold for the given inputs."""


class AxiomViolation(OrthologicError):
    """A composite-system axiom fails; the message names the axiom."""


class NotOrthonormal(OrthologicError):
    """A supplied family of vectors is not orthonormal."""
