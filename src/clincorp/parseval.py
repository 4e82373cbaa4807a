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
from .model import Record
from .tagsets import POS_TAG_SET, SYN_TAG_ALIASES, SYN_TAG_SET

PUNCT_POS = "PU"

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
# A character _TOKEN_RE splits at, which a leaf surface therefore cannot hold.
LEAF_BREAK_RE = re.compile(r"[\s()]")


class ParseTree(Record):
    """A tree node.  Preterminals carry a surface string and no children."""

    __slots__ = ("label", "children", "surface")

    def __init__(
        self, label: str, children: tuple["ParseTree", ...] = (), surface: str | None = None
    ):
        self.label = label
        self.children = children
        self.surface = surface

    @property
    def is_preterminal(self) -> bool:
        return self.surface is not None

    def leaves(self) -> list[tuple[str, str]]:
        """(pos, surface) pairs in left-to-right order."""
        out: list[tuple[str, str]] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.surface is None:
                stack.extend(reversed(node.children))
            else:
                out.append((node.label, node.surface))
        return out

    def leaf_count(self) -> int:
        """Number of leaves, counted without building a list of them."""
        n = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if node.surface is None:
                stack.extend(node.children)
            else:
                n += 1
        return n

    def nodes(self) -> list["ParseTree"]:
        """All nodes, preorder."""
        out: list[ParseTree] = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            if node.children:
                stack.extend(reversed(node.children))
        return out

    def to_string(self) -> str:
        if self.is_preterminal:
            return f"({self.label} {self.surface})"
        inner = " ".join(c.to_string() for c in self.children)
        return f"({self.label} {inner})"


def parse_tree(text: str, *, path: str | None = None, line: int | None = None) -> ParseTree:
    """Read one bracketed tree.  Internal labels are normalized through the
    syntactic-tag alias table; labels outside the closed tagsets are format
    errors.  A label-less outer wrapper around a single tree is unwrapped.

    One pass over the tokens with an explicit stack of the open nodes; the
    first error met in that left-to-right pass is the one raised."""
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty tree", path=path, line=line)
    if tokens[0] != "(":
        raise ParseError("expected '('", path=path, line=line)
    if len(tokens) == 1:
        raise ParseError("unexpected end of tree", path=path, line=line)
    if tokens[1] == "(":
        # Anonymous wrapper: ( (IP ...) ); legal only as the outermost node.
        label, it = "", iter(tokens[1:])
    else:
        label, it = tokens[1], iter(tokens[2:])
    # The open node is (label, children, surface); its ancestors are on `stack`.
    children: list[ParseTree] = []
    surface: str | None = None
    stack: list[tuple[str, list[ParseTree], str | None]] = []
    for tok in it:
        if tok == "(":
            child_label = next(it, None)
            if child_label is None:
                raise ParseError("unexpected end of tree", path=path, line=line)
            if child_label == "(":
                raise ParseError("missing constituent label", path=path, line=line)
            stack.append((label, children, surface))
            label, children, surface = child_label, [], None
        elif tok != ")":
            if surface is not None or children:
                raise ParseError(
                    "a node may hold either a surface or subtrees, not both",
                    path=path, line=line,
                )
            surface = tok
        else:
            if surface is not None:
                if label not in POS_TAG_SET:
                    raise ParseError(f"unknown-pos-label {label!r}", path=path, line=line)
                node = ParseTree(label, (), surface)
            elif not children:
                raise ParseError(f"empty constituent ({label})", path=path, line=line)
            elif label == "":
                if len(children) != 1:
                    raise ParseError(
                        "anonymous root must wrap exactly one tree", path=path, line=line
                    )
                node = children[0]
            else:
                label = SYN_TAG_ALIASES.get(label, label)
                if label not in SYN_TAG_SET:
                    raise ParseError(
                        f"unknown-syntactic-label {label!r}", path=path, line=line
                    )
                node = ParseTree(label, tuple(children))
            if not stack:
                if next(it, None) is not None:
                    raise ParseError("trailing material after tree", path=path, line=line)
                return node
            label, children, surface = stack.pop()
            if surface is not None:
                # (NN a (NN b)): a subtree after a surface, refused once it
                # closes so that errors inside it are reported first.
                raise ParseError(
                    "a node may hold either a surface or subtrees, not both",
                    path=path, line=line,
                )
            children.append(node)
    raise ParseError("unbalanced parentheses", path=path, line=line)


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
