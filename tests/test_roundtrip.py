"""Writers against their readers: each serializer, and save_state, refuses
what its reader refuses or reads back changed.  The properties draw values
in the form the reader gives back (canonical labels), and some that are not
(a sentence not anchored at its first token, records keyed by another id),
and check that each writer refuses exactly those and the values whose
fields it cannot write, and that every other value reads back equal."""
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clincorp.annio import (
    parse_ann,
    parse_chk,
    parse_ptb,
    parse_tok,
    serialize_ann,
    serialize_chk,
    serialize_ptb,
    serialize_tok,
)
from clincorp.errors import InputError
from clincorp.model import Chunk, DocAnnotations, Entity, EntityGroup, Relation, Sentence, Token
from clincorp.parseval import ParseTree
from clincorp.tagsets import POS_TAGS, SYN_TAGS, AssertionType, EntityType, RelationType
from clincorp.workflow import RoundState, save_state

WRITERS = {
    "tok": serialize_tok, "ptb": serialize_ptb, "chk": serialize_chk, "ann": serialize_ann,
}


def _leaf(surface="a", pos="NN"):
    return ParseTree(pos, (), surface)


def _ann(member="T1", arg2="T3"):
    ann = DocAnnotations("d", "甲乙丙")
    ann.entities["T1"] = Entity("T1", EntityType.SYMPTOM, 0, 1, "甲")
    ann.entities["T2"] = Entity("T2", EntityType.SYMPTOM, 1, 2, "乙")
    ann.entities["T3"] = Entity("T3", EntityType.DISEASE, 2, 3, "丙")
    ann.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, (member,))
    ann.relations["R1"] = Relation("R1", RelationType.SYMPTOM_INDICATES_DISEASE, "G1", arg2)
    return ann


def _rekeyed(ann: DocAnnotations, table: str, **new_keys) -> DocAnnotations:
    """`ann` with the records of one of its tables keyed as `new_keys` says."""
    records = getattr(ann, table)
    setattr(ann, table, {new_keys.get(k, k): r for k, r in records.items()})
    return ann


def _two_groups():
    """_ann() with a second group of T1, G2, of another type than G1."""
    ann = _ann()
    ann.groups["G2"] = EntityGroup("G2", EntityType.DISEASE, ("T1",))
    return ann


def _members_listed():
    """_ann() with G1's one member in a list."""
    ann = _ann()
    ann.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, ["T1"])
    return ann


REFUSED = [
    pytest.param("tok", [Sentence(0, (Token(0, 2, "发热", "XX"),))], id="tok-pos-XX"),
    pytest.param("tok", [Sentence(0, (Token(0, 1.5, "发热", "NN"),))], id="tok-offset-1.5"),
    pytest.param("tok", [Sentence(0, (Token(0, 2, "发热", "NN"),)), Sentence(3, ())],
                 id="tok-empty-sentence"),
    # A line feed in a field writes a line of its own.
    pytest.param("tok", [Sentence(0, (Token(0, 2, "发热", "NN\n5\t7\t咳嗽\tNN"),))],
                 id="tok-pos-line-feed"),
    # Written as "6\t8\tab\tNN", which reads back as Sentence(6, (Token(0, 2, ...),)).
    pytest.param("tok", [Sentence(5, (Token(1, 3, "ab", "NN"),))],
                 id="tok-sentence-not-anchored-at-its-first-token"),
    # The reader gives a sequence of records as a tuple: a list in its place
    # is written to the same bytes, and reads back as another value.
    pytest.param("tok", [Sentence(0, [Token(0, 2, "发热", "NN")])], id="tok-tokens-in-a-list"),
    pytest.param("ptb", [ParseTree("XP", (_leaf(),))], id="ptb-label-XP"),
    pytest.param("ptb", [ParseTree("IP", (_leaf("a", "QQ"),))], id="ptb-pos-QQ"),
    pytest.param("ptb", [ParseTree("IP", (_leaf(), ParseTree("NP", ())))],
                 id="ptb-childless-node"),
    pytest.param("ptb", [ParseTree("IP", (ParseTree("VS", (_leaf("a", "VV"),)),))],
                 id="ptb-alias-VS"),
    # "(IP (NN a) (VP (NN b)))" reads back as three nodes more.
    pytest.param("ptb", [ParseTree("IP", (ParseTree("NN a) (VP", (_leaf("b"),)),))],
                 id="ptb-label-holding-brackets"),
    pytest.param("ptb", [ParseTree("IP", [_leaf()])], id="ptb-children-in-a-list"),
    pytest.param("chk", [[Chunk(0.5, 2, "NP")]], id="chk-index-0.5"),
    pytest.param("chk", [[Chunk(True, 2, "NP")]], id="chk-index-True"),
    pytest.param("ann", _ann(member="T7"), id="ann-member-names-nothing"),
    pytest.param("ann", _ann(arg2="X2"), id="ann-argument-X2"),
    pytest.param("ann", _ann(member="T1 T2"), id="ann-member-holding-a-space"),
    # The text holds only ids: G1's member T1 would read back as the entity
    # written with the id T1, the one keyed T2, and R1's first argument G1
    # as the group written with the id G1, the one keyed G2.
    pytest.param("ann", _rekeyed(_ann(), "entities", T1="T2", T2="T1"),
                 id="ann-entity-keyed-by-another-id"),
    pytest.param("ann", _rekeyed(_two_groups(), "groups", G1="G2", G2="G1"),
                 id="ann-group-keyed-by-another-id"),
    pytest.param("ann", _rekeyed(_ann(), "relations", R1="R5"),
                 id="ann-relation-keyed-by-another-id"),
    pytest.param("ann", _members_listed(), id="ann-group-members-in-a-list"),
    pytest.param("state", RoundState(pool=["d1", "d2", "d1"]), id="state-repeated-pool-id"),
    pytest.param("state", RoundState(pool=["d1"], iaa_history={"seg": [1.5]}),
                 id="state-history-1.5"),
    pytest.param("state", RoundState(round_index=0, pool=["d1"]), id="state-round-index-0"),
    pytest.param("state", RoundState(pool=["d1"], iaa_history={"a\tb": [0.5]}),
                 id="state-task-holding-a-tab"),
    # json.dumps writes the key 1 as "1", which reads back as a string.
    pytest.param("state", RoundState(pool=["d1"], assignments={1: ["AG1"]}),
                 id="state-integer-key"),
    pytest.param("state", RoundState(pool=["d1"], assignments={"d1": ["AG1"]}),
                 id="state-pool-holding-an-assigned-id"),
]


@pytest.mark.parametrize("writer, value", REFUSED)
def test_writers_refuse_what_their_reader_refuses_or_reads_back_changed(
    tmp_path, writer, value
):
    if writer == "state":
        with pytest.raises(InputError):
            save_state(value, tmp_path / "state.json")
        assert list(tmp_path.iterdir()) == []
    else:
        with pytest.raises(InputError):
            WRITERS[writer](value)


def _zero_padded_twins(reverse: bool) -> DocAnnotations:
    """T, G and R twins whose ids differ only by a leading zero, each pair
    alike in all else, inserted in one order or, with `reverse`, the other."""
    def pair(a, b):
        return (b, a) if reverse else (a, b)

    ann = DocAnnotations("d", "甲乙")
    for eid in pair("T1", "T01"):
        ann.entities[eid] = Entity(eid, EntityType.SYMPTOM, 0, 1, "甲")
    ann.entities["T2"] = Entity("T2", EntityType.DISEASE, 1, 2, "乙")
    for gid in pair("G1", "G01"):
        ann.groups[gid] = EntityGroup(gid, EntityType.SYMPTOM, ("T1",))
    for rid in pair("R1", "R01"):
        ann.relations[rid] = Relation(rid, RelationType.SYMPTOM_INDICATES_DISEASE, "G1", "T2")
    return ann


def test_serialize_ann_writes_one_text_for_equal_values():
    # Ids with one number tie on the number; the id string breaks the tie,
    # so the order the dicts were filled in does not show in the text.
    one, other = _zero_padded_twins(False), _zero_padded_twins(True)
    assert one == other
    text = serialize_ann(one)
    assert serialize_ann(other) == text
    assert parse_ann(text, doc_id="d", text="甲乙") == one


def _writes_back(write, read, value, writable: bool) -> None:
    """`write(value)` raises InputError exactly when `writable` is false,
    and otherwise returns text that `read` reads back equal to `value`."""
    try:
        text = write(value)
    except InputError:
        assert not writable
    else:
        assert writable
        assert read(text) == value


def _holds_field_break(text: str) -> bool:
    return any(c in text for c in "\t\n\r")


_TEXT = st.text(st.characters(), max_size=4)


@st.composite
def _sentences(draw):
    """Sentences with monotonic spans, most anchored at their first token."""
    sentences, cursor = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        tokens, rel = [], draw(st.sampled_from((0, 0, 0, 1)))
        for _ in range(draw(st.integers(1, 3))):
            width = draw(st.integers(1, 3))
            pos = draw(st.none() | st.sampled_from(POS_TAGS))
            tokens.append(Token(rel, rel + width, draw(_TEXT.filter(bool)), pos))
            rel += width + draw(st.integers(0, 2))
        sentences.append(Sentence(cursor, tuple(tokens)))
        cursor += rel + draw(st.integers(0, 2))
    return sentences


@settings(max_examples=100, deadline=None)
@given(_sentences())
def test_serialize_tok_writes_back_or_refuses(sentences):
    writable = not any(
        _holds_field_break(t.surface) for s in sentences for t in s.tokens
    ) and all(s.tokens[0].start == 0 for s in sentences)
    _writes_back(serialize_tok, parse_tok, sentences, writable)


_TREES = st.recursive(
    st.builds(_leaf, _TEXT, st.sampled_from(POS_TAGS)),
    lambda children: st.builds(
        ParseTree, st.sampled_from(SYN_TAGS),
        st.lists(children, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=6,
)


def _readable_leaf(surface: str) -> bool:
    """A leaf surface the tree reader takes as one token: not empty, and no
    bracket or white space, which str.split() splits at."""
    return bool(surface) and not any(c in "()" or c.isspace() for c in surface)


@settings(max_examples=100, deadline=None)
@given(st.lists(_TREES, max_size=3))
def test_serialize_ptb_writes_back_or_refuses(trees):
    writable = all(_readable_leaf(s) for t in trees for s in t.leaf_surfaces())
    _writes_back(serialize_ptb, parse_ptb, trees, writable)


@st.composite
def _chunk(draw):
    first = draw(st.integers(0, 5))
    return Chunk(first, first + draw(st.integers(1, 3)), draw(_TEXT.filter(bool)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_chunk(), max_size=3), max_size=3))
def test_serialize_chk_writes_back_or_refuses(blocks):
    writable = not any(_holds_field_break(c.label) for b in blocks for c in b)
    _writes_back(serialize_chk, parse_chk, blocks, writable)


@st.composite
def _annotations(draw):
    """Entities, groups and relations whose references all resolve, each
    keyed by its own id, or one table's keys rotated by one place."""
    ann = DocAnnotations("d", "")
    for i in range(1, draw(st.integers(1, 4)) + 1):
        start = draw(st.integers(0, 6))
        ann.entities[f"T{i}"] = Entity(
            f"T{i}", draw(st.sampled_from(EntityType)), start,
            start + draw(st.integers(0, 3)), draw(_TEXT),
            draw(st.none() | st.sampled_from(AssertionType)),
        )
    for i in range(1, draw(st.integers(0, 2)) + 1):
        members = draw(st.lists(st.sampled_from(sorted(ann.entities)), min_size=1, max_size=3))
        ann.groups[f"G{i}"] = EntityGroup(
            f"G{i}", draw(st.sampled_from(EntityType)), tuple(members)
        )
    refs = st.sampled_from(sorted(ann.entities) + sorted(ann.groups))
    for i in range(1, draw(st.integers(0, 3)) + 1):
        ann.relations[f"R{i}"] = Relation(
            f"R{i}", draw(st.sampled_from(RelationType)), draw(refs), draw(refs)
        )
    table = draw(st.sampled_from((None, None, "entities", "groups", "relations")))
    if table is not None:
        records = getattr(ann, table)
        keys = list(records)
        setattr(ann, table, dict(zip(keys[1:] + keys[:1], records.values())))
    return ann


def _keyed_by_own_ids(ann: DocAnnotations) -> bool:
    return (
        all(k == e.eid for k, e in ann.entities.items())
        and all(k == g.gid for k, g in ann.groups.items())
        and all(k == r.rid for k, r in ann.relations.items())
    )


@settings(max_examples=100, deadline=None)
@given(_annotations())
def test_serialize_ann_writes_back_or_refuses(ann):
    writable = not any(
        _holds_field_break(e.surface) for e in ann.entities.values()
    ) and _keyed_by_own_ids(ann)
    _writes_back(serialize_ann, partial(parse_ann, doc_id="d"), ann, writable)
