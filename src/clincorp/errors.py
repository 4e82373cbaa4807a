"""Exception hierarchy shared across the toolkit, the one reader of text
files, which turns undecodable bytes into a located ParseError, and the one
line splitter every line-oriented parser numbers its lines with."""
from __future__ import annotations

import os
from typing import Iterator


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


def read_text_file(path: str | os.PathLike) -> str:
    """Read a UTF-8 file; decode failures report the offending line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise ParseError(
            f"invalid UTF-8 at byte offset {exc.start}", path=str(path), line=line
        ) from None


def numbered_lines(content: str) -> Iterator[tuple[int, str]]:
    """The lines of a text file with their 1-based numbers.  Only a line feed
    ends a line: str.splitlines() would also split at vertical tab, form
    feed, U+001C-U+001E, U+0085, U+2028, U+2029 and a lone carriage return,
    all of which may occur inside a surface.  One carriage return at the end
    of each line is dropped, and a final line feed adds no empty line."""
    lines = content.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in content:  # most files are LF-only and skip this pass
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    return enumerate(lines, start=1)
