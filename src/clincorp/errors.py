"""Exception hierarchy shared across the toolkit, the one reader of text
files, which turns undecodable bytes into a located ParseError, and the one
line splitter and comment test every line-oriented parser uses."""
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


# O_BINARY exists only where the platform would otherwise translate newlines.
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
# The read size once a file proves longer than its size says: a pipe's
# default capacity, so a FIFO is not read into a large fixed buffer.
_PIPE_CHUNK = 1 << 16


def read_text_file(path: str | os.PathLike) -> str:
    """Read a UTF-8 file; decode failures report the offending line.

    A regular file takes one read sized from its fstat size.  A file whose
    first read does not return exactly that size (a FIFO, which reports 0, a
    file that grew or shrank, a read the kernel cut short) is read to EOF."""
    fd = os.open(path, _READ_FLAGS)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size + 1)
        if len(data) != size:
            chunks = [data]
            while chunk := os.read(fd, _PIPE_CHUNK):
                chunks.append(chunk)
            data = b"".join(chunks)
    except OSError as exc:
        # Unlike open(), os.read names no file (a directory fails here).
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
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


def is_comment_line(line: str) -> bool:
    """A comment line: '#' after any leading white space."""
    return line.lstrip().startswith("#")
