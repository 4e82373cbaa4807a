"""Exception hierarchy shared across the toolkit."""
from __future__ import annotations


class ClincorpError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ClincorpError):
    """A malformed input file.  Always carries enough context to locate the
    offending line."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = "" if path is None else f"{path}:"
        if line is not None:
            prefix += f"line {line}: "
        elif path is not None:
            prefix += " "
        super().__init__(prefix + message)


class InputError(ClincorpError):
    """A precondition violation on otherwise well-formed data (text mismatch,
    unresolvable document, out-of-range argument)."""


class LengthMismatchError(InputError):
    """Two trees disagree on leaf count after filtering and cannot be scored."""


class ResolutionError(InputError):
    """A group or relation endpoint does not resolve to consistent entities."""


class LexiconError(ClincorpError):
    """A term lexicon violates its own invariants."""
