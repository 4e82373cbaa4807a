"""The one directory walk every corpus listing starts from.

Every entry of a corpus tree whose name ends in ".txt" roots one document
bundle.  Its doc id is its directory relative to the root, components joined
by "/", plus its stem; a backslash in a name is an ordinary character.
"""
from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

from .errors import InputError


def walk(root: str | Path) -> Iterator[tuple[str, str, str, list[str], set[str]]]:
    """(prefix, rel, dir_name, names, links) for every directory of the tree
    at `root`, each listed once with os.scandir.  `prefix` is the directory's
    path and `rel` its path relative to the root, each with a trailing slash
    or empty; `names` holds every entry, hidden ones included, and `links`
    those that are symlinks.  A symlinked directory is not entered and an
    unreadable one is skipped.  A bad `root` raises on the call."""
    root = Path(root)
    if not root.is_dir():
        raise InputError(f"not a directory: {root}")
    prefix = str(root)
    if prefix == ".":
        prefix = ""
    elif not prefix.endswith("/"):
        prefix += "/"
    return _walk(prefix, "", root.name)


def _walk(prefix: str, rel: str, dir_name: str) -> Iterator[tuple]:
    # A stack, not recursion, so that no depth of tree exhausts Python's.
    stack = [(prefix, rel, dir_name)]
    while stack:
        prefix, rel, dir_name = stack.pop()
        names: list[str] = []
        links: set[str] = set()
        subdirs: list[str] = []
        try:
            with os.scandir(prefix or ".") as it:
                for entry in it:
                    names.append(entry.name)
                    if entry.is_symlink():
                        links.add(entry.name)
                    else:
                        try:
                            if entry.is_dir():
                                subdirs.append(entry.name)
                        except OSError:
                            pass
        except PermissionError:
            continue
        yield prefix, rel, dir_name, names, links
        stack.extend((prefix + name + "/", rel + name + "/", name) for name in subdirs)


def bundle_stems(names: list[str]) -> Iterator[tuple[str, str]]:
    """(name, stem) for each of a directory's `names` that roots a bundle.
    As Path.with_suffix has it, a bare ".txt" has no suffix, so it shares
    ".txt.txt"'s stem; when both are present, ".txt.txt" roots the bundle."""
    for name in names:
        if name.endswith(".txt") and (name != ".txt" or ".txt.txt" not in names):
            yield name, name[:-4] or name


def doc_ids(root: str | Path) -> list[str]:
    """The ids of the bundles under `root`, in ascending order."""
    return sorted(
        rel + stem for _, rel, _, names, _ in walk(root) for _, stem in bundle_stems(names)
    )
