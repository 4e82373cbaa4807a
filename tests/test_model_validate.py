"""Data model invariants and the layer validators."""
import random

import pytest

from clincorp.annio import BundlePaths
from clincorp.errors import InputError
from clincorp.model import (
    Chunk,
    DocAnnotations,
    Document,
    Entity,
    EntityGroup,
    Relation,
    Sentence,
    Token,
)
from clincorp.parseval import ParseTree, parse_tree
from clincorp.tagsets import AssertionType, EntityType, RelationType
from clincorp.workflow import RoundState
from clincorp.validate import (
    Diagnostic,
    validate_annotations,
    validate_chunks,
    validate_document,
    validate_tokens,
    validate_trees,
)
from helpers import random_document


def rules(diags):
    return [d.rule for d in diags]


def make_doc() -> Document:
    # text: "发热咳嗽\n复查血常规"
    text = "发热咳嗽\n复查血常规"
    s1 = Sentence(start=0, tokens=(
        Token(0, 2, "发热", "NN"), Token(2, 4, "咳嗽", "NN"),
    ))
    s2 = Sentence(start=5, tokens=(
        Token(0, 2, "复查", "VV"), Token(2, 5, "血常规", "NN"),
    ))
    return Document(doc_id="d1", text=text, sentences=[s1, s2])


def test_sentence_absolute_spans():
    doc = make_doc()
    s2 = doc.sentences[1]
    assert s2.end == 10
    assert s2.abs_span(s2.tokens[1]) == (7, 10)


def test_entity_key_and_resolve():
    e = Entity("T1", EntityType.DISEASE, 0, 2, "发热")
    assert e.key() == (0, 2, "disease")
    ann = DocAnnotations("d1", "发热", entities={"T1": e})
    assert ann.resolve("T1") is e
    assert ann.resolve("G9") is None


def test_clean_document_has_no_findings():
    assert validate_document(make_doc()) == []


def test_random_documents_validate_clean():
    rng = random.Random(4021)
    for i in range(25):
        doc = random_document(rng, f"doc{i}")
        assert validate_document(doc) == [], f"doc{i}"


def test_token_gap_and_surface_mismatch():
    text = "发热咳嗽"
    gap = Document(doc_id="d", text=text, sentences=[
        Sentence(0, (Token(0, 1, "发"), Token(2, 4, "咳嗽"))),
    ])
    assert "token-gap" in rules(validate_tokens(gap))
    wrong = Document(doc_id="d", text=text, sentences=[
        Sentence(0, (Token(0, 2, "咳嗽"), Token(2, 4, "咳嗽"))),
    ])
    assert "surface-mismatch" in rules(validate_tokens(wrong))


def test_token_out_of_range():
    doc = Document(doc_id="d", text="发", sentences=[
        Sentence(0, (Token(0, 2, "发热", "NN"),)),
    ])
    assert "span-out-of-range" in rules(validate_tokens(doc))


def test_rules_left_to_the_parsers_never_raise():
    # Overlapping, negative and empty token spans, sentences out of order, an
    # empty chunk range, out-of-tagset labels and a missing tree: the parsers
    # refuse each of these in a file, and validate_document still returns
    # findings rather than raising on a document built in memory.
    doc = Document(doc_id="d", text="发热咳嗽", sentences=[
        Sentence(2, (Token(0, 2, "咳嗽", "XX"), Token(1, 1, "", "NN"))),
        Sentence(0, (Token(-1, 3, "发热", "NN"),)),
    ])
    doc.chunks = [[Chunk(2, 1, "NP"), Chunk(-1, 0, "NP")], []]
    doc.trees = [ParseTree("QQ", (ParseTree("YY", (), "咳嗽"),))]
    found = validate_document(doc)
    assert found and all(isinstance(d, Diagnostic) for d in found)


def test_chunk_validation():
    doc = make_doc()
    doc.chunks = [[Chunk(0, 2, "NP")], [Chunk(0, 1, "VP"), Chunk(1, 2, "NP")]]
    assert validate_chunks(doc) == []
    doc.chunks = [[Chunk(0, 2, "NP")]]
    assert "layer-count-mismatch" in rules(validate_chunks(doc))
    doc.chunks = [[Chunk(0, 2, "XX")], []]
    assert "unknown-label" in rules(validate_chunks(doc))
    doc.chunks = [[Chunk(0, 3, "NP")], []]
    assert "span-out-of-range" in rules(validate_chunks(doc))


def test_tree_validation():
    doc = make_doc()
    doc.trees = [
        parse_tree("(IP (NN 发热) (NN 咳嗽))"),
        parse_tree("(IP (VV 复查) (NN 血常规))"),
    ]
    assert validate_trees(doc) == []
    doc.trees = [
        parse_tree("(IP (NN 发热) (NN 咳嗽))"),
        parse_tree("(IP (VV 复查) (NN 血液))"),
    ]
    assert "tree-token-mismatch" in rules(validate_trees(doc))


def test_tree_validation_walks_a_tree_without_a_leaf_record():
    # A hand-built tree records no leaves; validate_trees walks it instead.
    doc = make_doc()
    doc.trees = [
        ParseTree("IP", (ParseTree("NN", (), "发热"), ParseTree("NN", (), "咳嗽"))),
        ParseTree("IP", (
            ParseTree("VV", (), "复查"), ParseTree("NP", (ParseTree("NN", (), "血液"),)),
        )),
    ]
    assert not hasattr(doc.trees[1], "_leaves")
    assert [d.render() for d in validate_trees(doc)] == [
        "d1: tree: tree-token-mismatch [sentence 1]: tree leaves disagree with the "
        "token layer (2 leaves vs 2 tokens)",
    ]


def test_tree_findings_in_preorder():
    # Leaves are read in preorder, so nesting is no mismatch but the same
    # leaves in another order are; findings follow sentence order.
    doc = make_doc()
    doc.trees = [
        parse_tree("(IP (NP (NN 发热)) (VP (NN 咳嗽)))"),
        parse_tree("(IP (VV 复查) (NN 血常规))"),
    ]
    assert validate_trees(doc) == []
    doc.trees = [
        parse_tree("(IP (VP (NN 咳嗽)) (NP (NN 发热)))"),
        parse_tree("(IP (VV 复查) (NP (NN 血) (NN 常规)))"),
    ]
    assert [d.render() for d in validate_trees(doc)] == [
        "d1: tree: tree-token-mismatch [sentence 0]: tree leaves disagree with the "
        "token layer (2 leaves vs 2 tokens)",
        "d1: tree: tree-token-mismatch [sentence 1]: tree leaves disagree with the "
        "token layer (3 leaves vs 2 tokens)",
    ]


@pytest.mark.parametrize(
    "make, args, changed, text",
    [
        (
            Token, (0, 2, "发热", "NN"), (0, 2, "发热"),
            "Token(start=0, end=2, surface='发热', pos='NN')",
        ),
        (Chunk, (0, 2, "NP"), (0, 2, "VP"), "Chunk(first=0, last_exclusive=2, label='NP')"),
        (
            Entity, ("T1", EntityType.DISEASE, 0, 2, "发热"),
            ("T1", EntityType.SYMPTOM, 0, 2, "发热"),
            "Entity(eid='T1', etype=<EntityType.DISEASE: 'disease'>, start=0, end=2, "
            "surface='发热', assertion=None)",
        ),
        (
            ParseTree, ("IP", (ParseTree("NN", (), "a"),)), ("IP", (ParseTree("VV", (), "a"),)),
            "ParseTree(label='IP', children=(ParseTree(label='NN', children=(), "
            "surface='a'),), surface=None)",
        ),
        (
            Sentence, (3, (Token(0, 2, "发热", "NN"),)), (4, (Token(0, 2, "发热", "NN"),)),
            "Sentence(start=3, tokens=(Token(start=0, end=2, surface='发热', pos='NN'),))",
        ),
        (
            EntityGroup, ("G1", EntityType.SYMPTOM, ("T1", "T2")),
            ("G1", EntityType.SYMPTOM, ("T1",)),
            "EntityGroup(gid='G1', etype=<EntityType.SYMPTOM: 'symptom'>, "
            "members=('T1', 'T2'))",
        ),
        (
            Diagnostic, ("token-gap", "msg", "token", "d1", "sentence 0"),
            ("token-gap", "msg", "token", "d2", "sentence 0"),
            "Diagnostic(rule='token-gap', message='msg', layer='token', doc_id='d1', "
            "location='sentence 0')",
        ),
    ],
    ids=["Token", "Chunk", "Entity", "ParseTree", "Sentence", "EntityGroup", "Diagnostic"],
)
def test_records_compare_by_value(make, args, changed, text):
    record = make(*args)
    assert record == make(*args) and not record != make(*args)
    assert hash(record) == hash(make(*args))
    assert len({record, make(*args)}) == 1
    assert record != make(*changed)
    assert repr(record) == text

    class Derived(make):
        __slots__ = ()

    # Equal only to a record of the same type, as a dataclass is.
    assert record != Derived(*args) and record != args


@pytest.mark.parametrize(
    "make, args, text",
    [
        (
            Document, ("d", "x"),
            "Document(doc_id='d', text='x', sentences=[], chunks=[], trees=[], "
            "annotations=None, doc_type=None)",
        ),
        (
            BundlePaths, ("a", "", "a.txt", 0b0001),
            "BundlePaths(doc_id='a', txt='a.txt', tok='a.tok', ptb=None, chk=None, "
            "ann=None, doc_type=None)",
        ),
        (
            RoundState, (2, ["d1"], {"d0": ["AG1"]}, {"seg": [0.5]}),
            "RoundState(round_index=2, pool=['d1'], assignments={'d0': ['AG1']}, "
            "iaa_history={'seg': [0.5]})",
        ),
    ],
    ids=["Document", "BundlePaths", "RoundState"],
)
def test_mutable_records_compare_by_value_and_are_unhashable(make, args, text):
    # As the mutable dataclasses they replace: equal by value, no hash.
    record = make(*args)
    assert record == make(*args) and repr(record) == text
    with pytest.raises(TypeError):
        hash(record)


def entity(eid, etype, start, end, surface, assertion=None):
    return Entity(eid, etype, start, end, surface, assertion)


def test_annotation_validation_positive():
    doc = make_doc()
    ann = DocAnnotations("d1", doc.text)
    ann.entities["T1"] = entity(
        "T1", EntityType.SYMPTOM, 0, 2, "发热", AssertionType.PRESENT
    )
    ann.entities["T2"] = entity(
        "T2", EntityType.SYMPTOM, 2, 4, "咳嗽", AssertionType.PRESENT
    )
    ann.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, ("T1", "T2"))
    doc.annotations = ann
    assert validate_document(doc) == []


def test_annotation_findings():
    doc = make_doc()
    ann = DocAnnotations("d1", doc.text)
    ann.entities["T1"] = entity("T1", EntityType.TEST, 2, 2, "")
    ann.entities["T2"] = entity(
        "T2", EntityType.TEST, 0, 2, "发热", AssertionType.PRESENT
    )
    ann.entities["T3"] = entity("T3", EntityType.DISEASE, 0, 2, "发热")
    ann.entities["T4"] = entity("T4", EntityType.SYMPTOM, 0, 2, "咳嗽")
    found = rules(validate_annotations(ann, doc.sentence_spans()))
    assert "empty-span" in found
    assert "assertion-invalid" in found  # tests take no assertion
    assert "assertion-missing" in found  # diseases require one
    assert "surface-mismatch" in found


def test_annotation_structural_findings():
    doc = make_doc()
    ann = DocAnnotations("d1", doc.text)
    ann.entities["T1"] = entity(
        "T1", EntityType.SYMPTOM, 0, 2, "发热", AssertionType.PRESENT
    )
    ann.entities["T2"] = entity(
        "T2", EntityType.DISEASE, 5, 7, "复查", AssertionType.PRESENT
    )
    ann.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, ("T1", "T2"))
    ann.relations["R1"] = Relation(
        "R1", RelationType.SYMPTOM_INDICATES_DISEASE, "T1", "T2"
    )
    ann.relations["R2"] = Relation(
        "R2", RelationType.SYMPTOM_INDICATES_DISEASE, "T2", "T1"
    )
    with_spans = validate_annotations(ann, doc.sentence_spans())
    found = rules(with_spans)
    assert "heterogeneous-group" in found
    assert "cross-sentence-group" in found
    assert "cross-sentence-relation" in found
    assert "signature-mismatch" in found  # R2 has swapped argument types
    # Without spans no entity belongs to a sentence, so only the two
    # cross-sentence findings go.
    assert validate_annotations(ann) == validate_annotations(ann, []) == [
        d for d in with_spans if not d.rule.startswith("cross-sentence-")
    ]


def test_duplicate_annotations_flagged():
    ann = DocAnnotations("d1", "发热")
    ann.entities["T1"] = entity(
        "T1", EntityType.SYMPTOM, 0, 2, "发热", AssertionType.PRESENT
    )
    ann.entities["T2"] = entity(
        "T2", EntityType.SYMPTOM, 0, 2, "发热", AssertionType.PRESENT
    )
    found = rules(validate_annotations(ann, [(0, 2)]))
    assert "duplicate-annotation" in found


def test_dangling_reference_finding():
    ann = DocAnnotations("d1", "发热")
    ann.entities["T1"] = entity(
        "T1", EntityType.SYMPTOM, 0, 2, "发热", AssertionType.PRESENT
    )
    ann.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, ("T1", "T9"))
    found = rules(validate_annotations(ann, [(0, 2)]))
    assert "dangling-reference" in found


def test_mismatched_doc_id_is_hard_error():
    doc = make_doc()
    doc.annotations = DocAnnotations("other", doc.text)
    with pytest.raises(InputError):
        validate_document(doc)
