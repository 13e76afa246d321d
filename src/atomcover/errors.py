"""Exception types shared across the package."""

__all__ = [
    "AtomcoverError",
    "InputError",
    "CellError",
    "DegenerateGeometryError",
    "ParseError",
]


class AtomcoverError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AtomcoverError, ValueError):
    """Invalid argument or malformed in-memory data."""


class CellError(AtomcoverError, ValueError):
    """Lattice matrix is unusable (e.g. singular with periodic flags set)."""


class DegenerateGeometryError(AtomcoverError, ValueError):
    """Coincident atoms or another geometry that poisons the descriptor."""


class ParseError(AtomcoverError, ValueError):
    """Malformed extended-XYZ content.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
