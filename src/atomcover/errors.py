"""Exception types shared across the package."""

__all__ = [
    "AtomcoverError",
    "InputError",
    "DegenerateGeometryError",
    "ParseError",
]


class AtomcoverError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AtomcoverError, ValueError):
    """Invalid argument or malformed in-memory data."""


class DegenerateGeometryError(AtomcoverError, ValueError):
    """A geometry that no descriptor can be built from.

    Raised for coincident atoms, for a singular cell with periodic flags
    set, and for a cell so small that its periodic image layout would hold
    more than 10^7 points.
    """


class ParseError(AtomcoverError, ValueError):
    """Malformed extended-XYZ content.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
