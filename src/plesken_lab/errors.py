"""Exception types shared across the library."""


class PleskenLabError(Exception):
    """Base class for all library errors."""


class InvalidSpec(PleskenLabError):
    """Group spec carries an unsupported parameter."""


class ParseError(PleskenLabError):
    """A spec string, coefficient, or element expression could not be parsed."""


class IndexOutOfRange(PleskenLabError):
    """Element index or coordinate that is not an integer in range."""


class SearchTooLarge(PleskenLabError):
    """An exhaustive-search guard tripped."""


class DomainMismatch(PleskenLabError):
    """Composition of maps whose domain and codomain do not line up."""


class GroupMismatch(PleskenLabError):
    """Operands belong to different groups."""


class InvalidHom(PleskenLabError):
    """Map table is not a group homomorphism."""


class InvalidPrime(PleskenLabError):
    """Parameter must be an odd prime."""
