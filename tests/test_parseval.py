"""Tree parsing and labeled-bracketing agreement."""
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clincorp.errors import LengthMismatchError, ParseError
from clincorp.parseval import (
    EvalParams,
    ParseTree,
    _brackets,
    match_counts,
    match_keys,
    parse_tree,
    score_corpus,
)
from clincorp.tagsets import POS_TAG_SET, POS_TAGS, SYN_TAG_ALIASES, SYN_TAG_SET, SYN_TAGS
from helpers import random_tree

BOTH = "a node may hold either a surface or subtrees, not both"

GOLD = "(IP (NP (NN a) (NN b)) (VP (VV c)))"
CAND = "(IP (NP (NN a)) (VP (NN b) (VV c)))"


def test_parse_roundtrip():
    t = parse_tree(GOLD)
    assert t.to_string() == GOLD
    assert t.leaves() == [("NN", "a"), ("NN", "b"), ("VV", "c")]
    assert [n.label for n in t.nodes() if not n.is_preterminal] == ["IP", "NP", "VP"]


def test_parse_anonymous_wrapper():
    t = parse_tree(f"( {GOLD} )")
    assert t.to_string() == GOLD


def test_parse_alias_normalized():
    t = parse_tree("(VS (VV 治) (VV 疗))")
    assert t.label == "VSB"


# Each malformed tree and the exact message of the error it raises.
PARSE_ERRORS = {
    "": "empty tree",
    "(IP (NN a)": "unbalanced parentheses",
    "(IP (NN a)))": "trailing material after tree",
    "(IP)": "empty constituent (IP)",
    "(XX (NN a))": "unknown-syntactic-label 'XX'",
    "(IP (QQ a))": "unknown-pos-label 'QQ'",
    "(IP ((NN a)))": "missing constituent label",
    "(NN a b)": BOTH,
    "IP (NN a)": "expected '('",
    "(": "unexpected end of tree",
    "(IP (": "unexpected end of tree",
    "()": "unbalanced parentheses",
    "(IP ())": "empty constituent ())",
    "(IP (NN a) b)": BOTH,
    "(IP (NN a (NN b)) (VV c))": BOTH,
    "( (IP (NN a)) (IP (NN b)) )": "anonymous root must wrap exactly one tree",
    "( (IP (NN a)) b)": BOTH,
    "( ( (IP (NN a)) ) )": "missing constituent label",
    "(VV (NN a))": "unknown-syntactic-label 'VV'",
    "(VS (QQ a))": "unknown-pos-label 'QQ'",
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS))
def test_parse_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_tree(bad)
    assert str(err.value) == PARSE_ERRORS[bad]


def test_subtree_after_surface_is_refused():
    # Read as (IP (NN a) (VV c)), silently losing the leaf b, before this rule.
    with pytest.raises(ParseError) as err:
        parse_tree("(IP (NN a (NN b)) (VV c))", path="t.ptb", line=4)
    assert str(err.value) == f"t.ptb:line 4: {BOTH}"
    # Refused when the subtree closes: an error inside it comes first.
    with pytest.raises(ParseError, match="unknown-pos-label 'QQ'"):
        parse_tree("(IP (NN a (QQ b)) (VV c))")
    with pytest.raises(ParseError, match="unbalanced parentheses"):
        parse_tree("(IP (NN a (NN b")


def test_deep_tree_needs_no_recursion():
    depth = 5000
    tree = parse_tree("(NP " * depth + "(NN a)" + ")" * depth)
    assert tree.leaf_count() == 1
    assert tree.leaves() == [("NN", "a")]
    assert len(tree.nodes()) == depth + 1
    copy = parse_tree(tree.to_string())
    assert copy == tree and hash(copy) == hash(tree)
    assert tree != parse_tree("(NP " * depth + "(NN b)" + ")" * depth)
    assert repr(copy) == repr(tree)
    assert repr(tree).startswith("ParseTree(label='NP', children=(ParseTree(label='NP'")
    assert repr(tree).endswith(",), surface=None)")


def test_tree_value_semantics_match_a_record_field_by_field():
    leaf = ParseTree("NN", (), "a")
    tree = ParseTree("IP", (leaf, ParseTree("NP", (ParseTree("VV", (), "b"),))))
    assert repr(leaf) == "ParseTree(label='NN', children=(), surface='a')"
    assert repr(tree) == (
        "ParseTree(label='IP', children=(ParseTree(label='NN', children=(), "
        "surface='a'), ParseTree(label='NP', children=(ParseTree(label='VV', "
        "children=(), surface='b'),), surface=None)), surface=None)"
    )
    same = parse_tree("(IP (NN a) (NP (VV b)))")
    assert same == tree and hash(same) == hash(tree)
    assert tree != parse_tree("(IP (NN a) (NP (VV c)))")
    assert tree != parse_tree("(IP (NN a) (VP (VV b)))")
    assert tree != parse_tree("(IP (NN a))")
    assert leaf != ParseTree("NN", (), "") and leaf != ("NN", (), "a")
    assert ParseTree("NP", [leaf]) != ParseTree("NP", (leaf,))


def test_parsed_tree_leaf_record_is_invisible():
    # parse_tree records the root's leaves; a hand-built tree walks for them.
    parsed = parse_tree("(IP (NN a) (NP (VV b) (PU c)))")
    built = ParseTree("IP", (
        ParseTree("NN", (), "a"),
        ParseTree("NP", (ParseTree("VV", (), "b"), ParseTree("PU", (), "c"))),
    ))
    assert parsed == built and built == parsed
    assert hash(parsed) == hash(built) and repr(parsed) == repr(built)
    for tree in (parsed, built):
        leaves = tree.leaves()
        assert leaves == [("NN", "a"), ("VV", "b"), ("PU", "c")]
        assert tree.leaf_count() == len(leaves) == 3
        leaves.append(("NN", "x"))
        leaves[0] = ("NN", "y")
        assert tree.leaves() == [("NN", "a"), ("VV", "b"), ("PU", "c")]
        assert tree.leaf_count() == 3
        surfaces = tree.leaf_surfaces()
        assert surfaces == ["a", "b", "c"]
        surfaces.append("x")
        surfaces[0] = "y"
        assert tree.leaf_surfaces() == ["a", "b", "c"]
        assert tree.leaf_count() == 3


@pytest.mark.parametrize("text, bracketed", [
    ("( (IP (NN a) (VV b)) )", "(IP (NN a) (VV b))"),
    ("( (NN a) )", "(NN a)"),
    ("((NN a))", "(NN a)"),
    ("(NN a)", "(NN a)"),
    ("( NN\ta )", "(NN a)"),
])
def test_every_parsed_root_carries_its_leaf_record(text, bracketed):
    # The anonymous wrapper returns the tree it wraps, and a lone leaf is
    # its own root: both carry the record.
    tree = parse_tree(text)
    assert tree.to_string() == bracketed
    recorded = getattr(tree, "_leaves", None)
    assert recorded == [node for node in tree.nodes() if node.is_preterminal]
    assert tree.leaves() == parse_tree(bracketed).leaves()
    assert tree.leaf_surfaces() == [surface for _, surface in tree.leaves()]
    assert tree.leaf_count() == len(recorded)


def test_parse_error_kinds_named():
    with pytest.raises(ParseError, match="unknown-syntactic-label"):
        parse_tree("(XX (NN a))")
    with pytest.raises(ParseError, match="unknown-pos-label"):
        parse_tree("(IP (QQ a))")


def test_brackets_hand_example():
    b = Counter(_brackets(parse_tree(GOLD), EvalParams())[0])
    assert b == {("IP", 0, 3): 1, ("NP", 0, 2): 1, ("VP", 2, 3): 1}


def test_identical_trees_agree_fully():
    t = parse_tree(GOLD)
    assert match_counts(t, t) == (3, 3, 3)


def test_hand_example_scores_one_third():
    agreed, ca, cb = match_counts(parse_tree(GOLD), parse_tree(CAND))
    assert (agreed, ca, cb) == (1, 3, 3)


def test_punctuation_removed_from_index_space():
    a = parse_tree("(IP (NP (NN a) (PU ,) (NN b)) (VP (VV c)))")
    b = parse_tree("(IP (NP (NN a) (NN b)) (VP (VV c)))")
    assert match_counts(a, b) == (3, 3, 3)
    assert _brackets(a, EvalParams()) == _brackets(b, EvalParams())
    # Keeping punctuation makes the leaf counts differ.
    with pytest.raises(LengthMismatchError):
        match_counts(a, b, EvalParams(ignore_punct=False))


def test_all_punctuation_constituent_vanishes():
    a = parse_tree("(IP (NP (NN a)) (PRN (PU -) (PU -)) (VP (VV c)))")
    found, leaves = _brackets(a, EvalParams())
    assert ("PRN", 1, 1) not in found
    assert len(found) == 3  # IP, NP, VP
    assert leaves == 2


def test_unlabeled_and_rootless_modes():
    g, c = parse_tree(GOLD), parse_tree(CAND)
    agreed, *_ = match_counts(g, c, EvalParams(labeled=False))
    assert agreed == 1  # spans (0,3) match; (0,2)/(2,3) vs (0,1)/(1,3) do not
    agreed_no_root, ca, cb = match_counts(g, c, EvalParams(include_root=False))
    assert (agreed_no_root, ca, cb) == (0, 2, 2)


def test_duplicate_brackets_match_by_multiplicity():
    a = parse_tree("(NP (NP (NN a) (NN b)))")
    b = parse_tree("(NP (NP (NP (NN a) (NN b))))")
    agreed, ca, cb = match_counts(a, b)
    assert (agreed, ca, cb) == (2, 2, 3)


def _greedy_intersection(keys_a: list, keys_b: list) -> int:
    """Multiset intersection size by removing each matched key from a copy."""
    remaining = list(keys_b)
    agreed = 0
    for key in keys_a:
        if key in remaining:
            remaining.remove(key)
            agreed += 1
    return agreed


# Keys from a small alphabet, so that drawn lists overlap and repeat keys;
# unique=True draws lists that repeat none, for the set-intersection path.
_KEYS = st.one_of(st.integers(0, 5), st.tuples(st.sampled_from("ab"), st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans(), st.booleans())
def test_match_keys_is_the_multiset_intersection(data, unique_a, unique_b):
    keys_a = data.draw(st.lists(_KEYS, max_size=12, unique=unique_a))
    keys_b = data.draw(st.lists(_KEYS, max_size=12, unique=unique_b))
    expected = sum((Counter(keys_a) & Counter(keys_b)).values())
    assert match_keys(keys_a, keys_b) == (expected, len(keys_a), len(keys_b))
    assert expected == _greedy_intersection(keys_a, keys_b)
    assert match_keys(keys_b, keys_a) == (expected, len(keys_b), len(keys_a))


def test_length_mismatch_reported_and_excluded():
    a = [parse_tree("(IP (NN a) (NN b))"), parse_tree("(IP (NN a))")]
    b = [parse_tree("(IP (NN a) (NN b))"), parse_tree("(IP (NN a) (NN b))")]
    assert score_corpus(a, b) == ((1, 1, 1), [1])
    with pytest.raises(LengthMismatchError):
        score_corpus(a, [])


def test_random_trees_roundtrip():
    rng = random.Random(99)
    for _ in range(50):
        t = random_tree(rng)
        assert parse_tree(t.to_string()) == t


# The tokenizer the reference parser below was written with: every bracket and
# every run of other non-space characters is a token.  A copy, so that a change
# to parse_tree's own tokenizer cannot change the reference with it.
_REFERENCE_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")

# The white space docs/FORMATS.md lists as breaking a leaf surface.
WHITE_SPACE = "".join(map(chr, (
    *range(0x09, 0x0E), *range(0x1C, 0x21), 0x85, 0xA0, 0x1680,
    *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
)))


def test_str_split_breaks_where_the_regex_s_matches():
    # parse_tree tokenizes with str.split(), the reference with `\s`: the
    # two agree only while both accept exactly the listed white space.
    every = "".join(map(chr, range(0x110000)))
    assert {c for c in every if c.isspace()} == set(WHITE_SPACE)
    assert set(re.findall(r"\s", every)) == set(WHITE_SPACE)


def _parse_tree_before(text, *, path=None, line=None, refuse_subtree_after_surface=False):
    """The recursive parser that parse_tree replaced, the reference for the
    differential test below.  `refuse_subtree_after_surface` adds the one
    intended change: a subtree after a surface is refused once it closes."""
    tokens = _REFERENCE_TOKEN_RE.findall(text)
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
                if refuse_subtree_after_surface and surface is not None:
                    raise fail(BOTH)
            else:
                if surface is not None or children:
                    raise fail(BOTH)
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


LABELS = st.sampled_from(
    (*POS_TAGS, *SYN_TAGS, *SYN_TAG_ALIASES, "XX", "nn", "ip", "#", "a", "甲乙")
)
WORDS = st.sampled_from(("a", "b", "甲", "治疗", "+", "#", "NN", "IP"))
TOKENS = st.one_of(st.sampled_from(("(", ")")), LABELS, WORDS)
# Mostly the tagset a node of its kind needs, else any label.
LEAVES = st.tuples(st.one_of(st.sampled_from(POS_TAGS), LABELS), WORDS).map(
    lambda t: ["(", t[0], t[1], ")"]
)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.tuples(
        st.one_of(st.sampled_from((*SYN_TAGS, *SYN_TAG_ALIASES)), LABELS),
        st.lists(kids, min_size=1, max_size=4),
    ).map(lambda t: ["(", t[0], *(tok for kid in t[1] for tok in kid), ")"]),
    max_leaves=12,
)

VALID_TREES = st.recursive(
    st.tuples(st.sampled_from(POS_TAGS), WORDS).map(lambda t: f"({t[0]} {t[1]})"),
    lambda kids: st.tuples(
        st.sampled_from((*SYN_TAGS, *SYN_TAG_ALIASES)), st.lists(kids, min_size=1, max_size=4),
    ).map(lambda t: f"({t[0]} {' '.join(t[1])})"),
    max_leaves=12,
)
ACCESSORS = ("leaves", "leaf_surfaces", "leaf_count")


def _rebuilt(tree: ParseTree) -> ParseTree:
    if tree.is_preterminal:
        return ParseTree(tree.label, (), tree.surface)
    return ParseTree(tree.label, tuple(_rebuilt(child) for child in tree.children))


@settings(max_examples=200, deadline=None)
@given(VALID_TREES, st.permutations(ACCESSORS))
def test_hand_built_tree_leaf_accessors_agree_with_parsed_tree(text, order):
    # A hand-built tree has no leaf record until the first accessor call
    # fills it; in whatever order they are called, and on every call, the
    # three accessors give what they give on the parsed tree.
    parsed = parse_tree(text)
    built = _rebuilt(parsed)
    assert not hasattr(built, "_leaves")
    for _ in range(2):
        for name in order:
            assert getattr(built, name)() == getattr(parsed, name)()
    assert built == parsed and hash(built) == hash(parsed) and repr(built) == repr(parsed)


@st.composite
def bracket_strings(draw):
    """A random token list, or a random tree's tokens after a few random
    insertions and deletions, joined by random white space drawn from every
    character the format lists (an empty separator glues two words into
    one)."""
    if draw(st.integers(0, 3)):
        tokens = draw(TREES)
    else:
        tokens = draw(st.lists(TOKENS, max_size=30))
    if draw(st.integers(0, 3)) == 0:
        tokens = ["(", *tokens, ")"]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        if tokens and i < len(tokens) and draw(st.booleans()):
            del tokens[i]
        else:
            tokens.insert(i, draw(TOKENS))
    seps = draw(st.lists(
        st.sampled_from((" ",) * 12 + ("", " \n ") + tuple(WHITE_SPACE)),
        min_size=len(tokens) + 1, max_size=len(tokens) + 1,
    ))
    return "".join(sep + tok for sep, tok in zip(seps, [*tokens, ""]))


def _outcome(parse, text):
    try:
        return parse(text, path="f.ptb", line=3)
    except ParseError as exc:
        return ("error", str(exc))


@settings(max_examples=1500, deadline=None)
@given(bracket_strings())
@example("(IP (NN a (NN b)) (VV c))")
@example("(IP (NN a (QQ b)) (XX c))")
@example("( (IP (NN a)) )")
@example("( NN a )")
@example("(NN a)")
@example("((NN a))")
@example("(NN a) x")
@example("(QQ a) x")
@example("(IP ( ) a))")
@example("(IP (NN")
@example("(IP (NN a) (")
@example("(IP\x1c(NN a))")
def test_parse_tree_matches_recursive_parser(text):
    new = _outcome(parse_tree, text)
    fixed = _outcome(
        lambda t, **kw: _parse_tree_before(t, refuse_subtree_after_surface=True, **kw), text
    )
    assert new == fixed
    before = _outcome(_parse_tree_before, text)
    if before != fixed:
        assert fixed == ("error", f"f.ptb:line 3: {BOTH}")
