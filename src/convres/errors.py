"""Exception hierarchy for the convres package."""


class ConvresError(Exception):
    """Base class for all errors raised by convres."""


class StructuralError(ConvresError):
    """Operands do not fit together (modulus, ring, rank or length mismatch)."""


class DomainError(ConvresError):
    """An argument is outside the domain of the operation."""


class PreconditionError(ConvresError):
    """A documented precondition of the operation does not hold."""


class UnsupportedDimensionError(ConvresError):
    """The operation is only implemented for a restricted number of variables."""


class PolyParseError(ConvresError):
    """Polynomial text could not be parsed.

    `position` is the 0-based column offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (column {position})")
        self.position = position


class InputError(ConvresError):
    """An input document is malformed; `location` points at the bad field."""

    def __init__(self, message, location=""):
        super().__init__(f"{message}" + (f" [at {location}]" if location else ""))
        self.location = location


class InvariantError(ConvresError):
    """An internal consistency check on a computed result failed.

    Raised instead of returning a result that could not be verified.
    """
