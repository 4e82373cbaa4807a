"""Bracketed constituency trees and labeled-bracketing agreement.

A tree file holds one parenthesized tree per line, leaves written as
``(POS surface)``.  Agreement between two parses of the same sentence is
computed over the multisets of internal brackets ``(label, first,
last_exclusive)`` in token-index space; preterminals never count as brackets
(part-of-speech agreement is the token layer's job).
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import LengthMismatchError, ParseError
from .tagsets import POS_TAG_SET, SYN_TAG_ALIASES, SYN_TAG_SET

PUNCT_POS = "PU"

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
# A character _TOKEN_RE splits at, which a leaf surface therefore cannot hold.
LEAF_BREAK_RE = re.compile(r"[\s()]")


@dataclass(frozen=True, slots=True)
class ParseTree:
    """A tree node.  Preterminals carry a surface string and no children."""

    label: str
    children: tuple["ParseTree", ...] = ()
    surface: str | None = None

    @property
    def is_preterminal(self) -> bool:
        return self.surface is not None

    def leaves(self) -> list[tuple[str, str]]:
        """(pos, surface) pairs in left-to-right order."""
        if self.is_preterminal:
            return [(self.label, self.surface or "")]
        out: list[tuple[str, str]] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def nodes(self) -> list["ParseTree"]:
        """All nodes, preorder."""
        out: list[ParseTree] = [self]
        for child in self.children:
            out.extend(child.nodes())
        return out

    def to_string(self) -> str:
        if self.is_preterminal:
            return f"({self.label} {self.surface})"
        inner = " ".join(c.to_string() for c in self.children)
        return f"({self.label} {inner})"


def parse_tree(text: str, *, path: str | None = None, line: int | None = None) -> ParseTree:
    """Read one bracketed tree.  Internal labels are normalized through the
    syntactic-tag alias table; labels outside the closed tagsets are format
    errors.  A label-less outer wrapper around a single tree is unwrapped."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty tree", path=path, line=line)
    pos = 0

    def fail(msg: str) -> ParseError:
        return ParseError(msg, path=path, line=line)

    def read_node(allow_anonymous: bool = False) -> ParseTree:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != "(":
            raise fail("expected '('")
        pos += 1
        if pos >= len(tokens):
            raise fail("unexpected end of tree")
        if tokens[pos] == "(":
            # Anonymous wrapper: ( (IP ...) ); legal only as the outermost node.
            if not allow_anonymous:
                raise fail("missing constituent label")
            label = ""
        else:
            label = tokens[pos]
            pos += 1
        children: list[ParseTree] = []
        surface: str | None = None
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                children.append(read_node())
            else:
                if surface is not None or children:
                    raise fail("a node may hold either a surface or subtrees, not both")
                surface = tokens[pos]
                pos += 1
        if pos >= len(tokens):
            raise fail("unbalanced parentheses")
        pos += 1  # consume ')'
        if surface is not None:
            if label not in POS_TAG_SET:
                raise fail(f"unknown-pos-label {label!r}")
            return ParseTree(label=label, surface=surface)
        if not children:
            raise fail(f"empty constituent ({label})")
        if label == "":
            if len(children) != 1:
                raise fail("anonymous root must wrap exactly one tree")
            return children[0]
        label = SYN_TAG_ALIASES.get(label, label)
        if label not in SYN_TAG_SET:
            raise fail(f"unknown-syntactic-label {label!r}")
        return ParseTree(label=label, children=tuple(children))

    root = read_node(allow_anonymous=True)
    if pos != len(tokens):
        raise fail("trailing material after tree")
    return root


@dataclass(frozen=True, slots=True)
class EvalParams:
    """Knobs for bracket extraction and matching."""

    labeled: bool = True
    include_root: bool = True
    ignore_punct: bool = True


Bracket = tuple  # (label, first, last_exclusive) or (first, last_exclusive)


def filtered_leaf_count(tree: ParseTree, params: EvalParams) -> int:
    """Number of leaves left after punctuation filtering."""
    n = 0
    for pos, _ in tree.leaves():
        if params.ignore_punct and pos == PUNCT_POS:
            continue
        n += 1
    return n


def brackets(tree: ParseTree, params: EvalParams = EvalParams()) -> Counter:
    """Multiset of internal brackets over filtered token indices.

    Punctuation leaves are deleted before indices are assigned, so both
    annotators' trees collapse to the same index space whenever they agree on
    the non-punctuation tokens.  Zero-width constituents (all punctuation)
    vanish along with their leaves.
    """
    out: Counter = Counter()

    def walk(node: ParseTree, start: int, is_root: bool) -> int:
        if node.is_preterminal:
            if params.ignore_punct and node.label == PUNCT_POS:
                return 0
            return 1
        width = 0
        for child in node.children:
            width += walk(child, start + width, False)
        if width > 0 and (params.include_root or not is_root):
            if params.labeled:
                out[(node.label, start, start + width)] += 1
            else:
                out[(start, start + width)] += 1
        return width

    walk(tree, 0, True)
    return out


def match_counts(
    tree_a: ParseTree, tree_b: ParseTree, params: EvalParams = EvalParams()
) -> tuple[int, int, int]:
    """(agreed, count_a, count_b) bracket counts for one sentence pair.

    Raises LengthMismatchError when the two trees disagree on the number of
    non-filtered leaves; their index spaces are then incomparable.
    """
    na = filtered_leaf_count(tree_a, params)
    nb = filtered_leaf_count(tree_b, params)
    if na != nb:
        raise LengthMismatchError(
            f"trees have {na} vs {nb} scorable leaves and cannot be compared"
        )
    ba = brackets(tree_a, params)
    bb = brackets(tree_b, params)
    agreed = sum((ba & bb).values())
    return agreed, sum(ba.values()), sum(bb.values())


@dataclass(slots=True)
class TreeScore:
    """Corpus-level bracket counts plus the sentences that had to be skipped."""

    agreed: int = 0
    count_a: int = 0
    count_b: int = 0
    excluded: list[int] = field(default_factory=list)


def score_corpus(
    trees_a: list[ParseTree],
    trees_b: list[ParseTree],
    params: EvalParams = EvalParams(),
) -> TreeScore:
    """Aggregate bracket counts over aligned tree lists.

    Pairs whose leaf counts differ are excluded from the totals and recorded
    by sentence index; callers decide whether that is an error or a warning.
    """
    if len(trees_a) != len(trees_b):
        raise LengthMismatchError(
            f"tree lists have {len(trees_a)} vs {len(trees_b)} sentences"
        )
    score = TreeScore()
    for i, (ta, tb) in enumerate(zip(trees_a, trees_b)):
        try:
            agreed, ca, cb = match_counts(ta, tb, params)
        except LengthMismatchError:
            score.excluded.append(i)
            continue
        score.agreed += agreed
        score.count_a += ca
        score.count_b += cb
    return score
