"""Bracketed constituency trees and labeled-bracketing agreement.

A tree file holds one parenthesized tree per line, leaves written as
``(POS surface)``.  Agreement between two parses of the same sentence is
computed over the multisets of internal brackets ``(label, first,
last_exclusive)`` in token-index space; preterminals never count as brackets
(part-of-speech agreement is the token layer's job).  `match_keys` counts
the agreement of two such key lists, here and on every layer `agreement`
scores.
"""
from __future__ import annotations

from collections import Counter

from .errors import LengthMismatchError, ParseError
from .record import Record
from .tagsets import POS_TAG_SET, SYN_CANONICAL

PUNCT_POS = "PU"

_BRACKETS = frozenset("()")


class ParseTree(Record):
    """A tree node.  Preterminals carry a surface string and no children.

    A root that parse_tree returns also holds `_leaves`, its preterminals in
    the order the parser read them, so leaves(), leaf_surfaces() and
    leaf_count() need no walk; on any other node the first of them fills the
    slot.  Equality, hash and repr ignore it, and like the hash it assumes
    the tree is not changed once built."""

    __slots__ = ("label", "children", "surface", "_leaves")

    def __init__(
        self, label: str, children: tuple["ParseTree", ...] = (), surface: str | None = None
    ):
        self.label = label
        self.children = children
        self.surface = surface

    @property
    def is_preterminal(self) -> bool:
        return self.surface is not None

    def _leaf_nodes(self) -> list["ParseTree"]:
        """The preterminals in left-to-right order, as parse_tree recorded
        them; a tree built by hand is walked once and the list kept in the
        same slot.  The list is shared: the public accessors return copies."""
        try:
            return self._leaves
        except AttributeError:
            pass
        leaves: list[ParseTree] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.surface is None:
                stack.extend(reversed(node.children))
            else:
                leaves.append(node)
        self._leaves = leaves
        return leaves

    def leaves(self) -> list[tuple[str, str]]:
        """(pos, surface) pairs in left-to-right order, in a new list."""
        return [(leaf.label, leaf.surface) for leaf in self._leaf_nodes()]

    def leaf_surfaces(self) -> list[str]:
        """Leaf surfaces in left-to-right order, in a new list."""
        return [leaf.surface for leaf in self._leaf_nodes()]

    def leaf_count(self) -> int:
        """Number of leaves."""
        return len(self._leaf_nodes())

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
        """The bracketed form."""
        return self._write(
            lambda n: f"({n.label} " if n.surface is None else f"({n.label} {n.surface}",
            " ",
            lambda n: ")",
        )

    def _write(self, opening, separator: str, closing) -> str:
        """Text for the whole tree, written without recursion: each node
        gives `opening(node)`, its children's texts joined by `separator`,
        then `closing(node)`.  `stack` holds the nodes still to write and the
        text that follows each opened one."""
        parts: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                parts.append(item)
                continue
            parts.append(opening(item))
            stack.append(closing(item))
            children = item.children
            for i in range(len(children) - 1, 0, -1):
                stack.append(children[i])
                stack.append(separator)
            if children:
                stack.append(children[0])
        return "".join(parts)

    # Record's value semantics, node by node without recursion, so that a
    # tree thousands of levels deep compares, hashes and prints.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            ca, cb = a.children, b.children
            if (
                a.__class__ is not b.__class__
                or a.label != b.label or a.surface != b.surface
                or ca.__class__ is not cb.__class__ or len(ca) != len(cb)
            ):
                return False
            stack.extend(zip(ca, cb))
        return True

    def __hash__(self) -> int:
        # Equal trees have the same bracketed form.
        return hash(self.to_string())

    def __repr__(self) -> str:
        return self._write(
            lambda n: f"{type(n).__qualname__}(label={n.label!r}, children=(",
            ", ",
            lambda n: f"{',' if len(n.children) == 1 else ''}), surface={n.surface!r})",
        )


def parse_tree(text: str, *, path: str | None = None, line: int | None = None) -> ParseTree:
    """Read one bracketed tree.  Internal labels are normalized through the
    syntactic-tag alias table; labels outside the closed tagsets are format
    errors.  A label-less outer wrapper around a single tree is unwrapped.

    One pass over the tokens with an explicit stack of the open nodes; the
    first error met in that left-to-right pass is the one raised.  A token
    is a bracket or a run of other characters up to white space; a leaf, the
    four tokens `( POS surface )`, is read as one step of the pass."""
    # str.split() breaks at exactly the characters the regular expression
    # `\s` matches, so these are the tokens of `\(|\)|[^\s()]+`.
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError("empty tree", path=path, line=line)
    n = len(tokens)
    if tokens[0] != "(":
        raise ParseError("expected '('", path=path, line=line)
    if n == 1:
        raise ParseError("unexpected end of tree", path=path, line=line)
    label = tokens[1]
    if (
        n >= 4 and tokens[3] == ")"
        and label not in _BRACKETS and tokens[2] not in _BRACKETS
    ):
        # The whole tree is one leaf, (NN a).
        if label not in POS_TAG_SET:
            raise ParseError(f"unknown-pos-label {label!r}", path=path, line=line)
        if n > 4:
            raise ParseError("trailing material after tree", path=path, line=line)
        node = ParseTree(label, (), tokens[2])
        node._leaves = [node]
        return node
    it = iter(tokens)
    next(it)
    if label == "(":
        # Anonymous wrapper: ( (IP ...) ); legal only as the outermost node.
        label = ""
    else:
        next(it)
    leaves: list[ParseTree] = []
    new = object.__new__  # nodes are built by slot stores (see record.py)
    # The open node is (label, children, surface); its ancestors are on `stack`.
    children: list[ParseTree] = []
    surface = None
    stack: list[tuple[str, list[ParseTree], str | None]] = []
    for tok in it:
        if tok == "(":
            # Open nodes until a leaf is read, or a node whose next token
            # is not an opening bracket.
            while True:
                first = next(it, None)
                if first is None:
                    raise ParseError("unexpected end of tree", path=path, line=line)
                if first == "(":
                    raise ParseError("missing constituent label", path=path, line=line)
                if first == ")":
                    node = None
                    break
                second = next(it, None)
                if second == "(":
                    stack.append((label, children, surface))
                    label, children, surface = first, [], None
                    continue
                if second is None:
                    raise ParseError("unbalanced parentheses", path=path, line=line)
                if second == ")":
                    raise ParseError(f"empty constituent ({first})", path=path, line=line)
                third = next(it, None)
                if third == ")":
                    if first not in POS_TAG_SET:
                        raise ParseError(
                            f"unknown-pos-label {first!r}", path=path, line=line
                        )
                    node = new(ParseTree)
                    node.label = first
                    node.children = ()
                    node.surface = second
                    leaves.append(node)
                    break
                if third is None:
                    raise ParseError("unbalanced parentheses", path=path, line=line)
                if third != "(":
                    raise ParseError(
                        "a node may hold either a surface or subtrees, not both",
                        path=path, line=line,
                    )
                # (NN a (...: the subtree is read, and refused once it closes.
                stack.append((label, children, surface))
                label, children, surface = first, [], second
            if node is None:
                # The label ")" opens a node, as in (IP ( ) a)).
                stack.append((label, children, surface))
                label, children, surface = ")", [], None
                continue
        elif tok != ")":
            if surface is not None or children:
                raise ParseError(
                    "a node may hold either a surface or subtrees, not both",
                    path=path, line=line,
                )
            surface = tok
            continue
        else:
            if surface is not None:
                # "( L s )" for a word L is a leaf, so a node with a surface
                # closes here only when its label is ")".
                raise ParseError(f"unknown-pos-label {label!r}", path=path, line=line)
            if not children:
                raise ParseError(f"empty constituent ({label})", path=path, line=line)
            if label == "":
                if len(children) != 1:
                    raise ParseError(
                        "anonymous root must wrap exactly one tree", path=path, line=line
                    )
                node = children[0]
            else:
                canonical = SYN_CANONICAL.get(label)
                if canonical is None:
                    raise ParseError(
                        f"unknown-syntactic-label {label!r}", path=path, line=line
                    )
                node = new(ParseTree)
                node.label = canonical
                node.children = tuple(children)
                node.surface = None
            if not stack:
                if next(it, None) is not None:
                    raise ParseError("trailing material after tree", path=path, line=line)
                node._leaves = leaves
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


class EvalParams(Record):
    """Knobs for bracket extraction and matching."""

    __slots__ = ("labeled", "include_root", "ignore_punct")

    def __init__(
        self, labeled: bool = True, include_root: bool = True, ignore_punct: bool = True
    ):
        self.labeled = labeled
        self.include_root = include_root
        self.ignore_punct = ignore_punct


Bracket = tuple  # (label, first, last_exclusive) or (first, last_exclusive)


def brackets(tree: ParseTree, params: EvalParams = EvalParams()) -> Counter:
    """Multiset of internal brackets over filtered token indices.

    Punctuation leaves are deleted before indices are assigned, so both
    annotators' trees collapse to the same index space whenever they agree on
    the non-punctuation tokens.  Zero-width constituents (all punctuation)
    vanish along with their leaves.
    """
    return Counter(_brackets(tree, params)[0])


def _brackets(tree: ParseTree, params: EvalParams) -> tuple[list[Bracket], int]:
    """The brackets of brackets(tree, params), as a list in the order their
    nodes close, and the number of leaves left after filtering, from one
    walk without recursion.  `stack` holds the open nodes, each with an
    iterator over its remaining children and its first leaf index; a node
    spans from that index to the leaf count when it closes."""
    out: list[Bracket] = []
    labeled, include_root = params.labeled, params.include_root
    skip = PUNCT_POS if params.ignore_punct else None
    if tree.surface is not None:
        return out, int(tree.label != skip)
    pos = 0
    stack = [(tree, iter(tree.children), 0)]
    while stack:
        node, children, start = stack[-1]
        for child in children:
            if child.surface is None:
                stack.append((child, iter(child.children), pos))
                break
            if child.label != skip:
                pos += 1
        else:
            stack.pop()
            if pos > start and (include_root or stack):
                out.append((node.label, start, pos) if labeled else (start, pos))
    return out, pos


def match_keys(keys_a: list, keys_b: list) -> tuple[int, int, int]:
    """(agreed, len(keys_a), len(keys_b)) for two lists of hashable match
    keys, where agreed is the size of their multiset intersection: for each
    key, the smaller of its two counts.  When neither list repeats a key,
    that is the size of the set intersection."""
    set_a, set_b = set(keys_a), set(keys_b)
    count_a, count_b = len(keys_a), len(keys_b)
    if len(set_a) == count_a and len(set_b) == count_b:
        return len(set_a & set_b), count_a, count_b
    return sum((Counter(keys_a) & Counter(keys_b)).values()), count_a, count_b


def match_counts(
    tree_a: ParseTree, tree_b: ParseTree, params: EvalParams = EvalParams()
) -> tuple[int, int, int]:
    """(agreed, count_a, count_b) bracket counts for one sentence pair.

    Raises LengthMismatchError when the two trees disagree on the number of
    non-filtered leaves; their index spaces are then incomparable.
    """
    ba, na = _brackets(tree_a, params)
    bb, nb = _brackets(tree_b, params)
    if na != nb:
        raise LengthMismatchError(
            f"trees have {na} vs {nb} scorable leaves and cannot be compared"
        )
    return match_keys(ba, bb)


def score_corpus(
    trees_a: list[ParseTree],
    trees_b: list[ParseTree],
    params: EvalParams = EvalParams(),
) -> tuple[tuple[int, int, int], list[int]]:
    """Bracket counts (agreed, count_a, count_b) summed over aligned tree
    lists, and the indices of the sentences left out of them.

    Pairs whose leaf counts differ are excluded from the totals and recorded
    by sentence index; callers decide whether that is an error or a warning.
    """
    if len(trees_a) != len(trees_b):
        raise LengthMismatchError(
            f"tree lists have {len(trees_a)} vs {len(trees_b)} sentences"
        )
    agreed = count_a = count_b = 0
    excluded: list[int] = []
    for i, (ta, tb) in enumerate(zip(trees_a, trees_b)):
        try:
            a, ca, cb = match_counts(ta, tb, params)
        except LengthMismatchError:
            excluded.append(i)
            continue
        agreed += a
        count_a += ca
        count_b += cb
    return (agreed, count_a, count_b), excluded
