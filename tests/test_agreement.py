"""Precision/recall/F agreement across all layers."""
import math
import random

import pytest

from clincorp.agreement import (
    MatchPolicy,
    RelationMode,
    add_counts,
    chunk_counts,
    corpus_agreement,
    entity_counts,
    macro_average,
    prf,
    relation_counts,
    token_counts,
    tree_counts,
)
from clincorp.errors import LengthMismatchError
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
from clincorp.numfmt import fmt_metric
from clincorp.parseval import parse_tree
from clincorp.tagsets import AssertionType, EntityType, RelationType
from helpers import random_document


def test_prf_basic():
    r = prf(3, 4, 5)
    assert (r.agreed, r.count_a, r.count_b) == (3, 4, 5)
    assert r.precision == 3 / 5
    assert r.recall == 3 / 4
    assert math.isclose(r.f, 2 * (3 / 5) * (3 / 4) / ((3 / 5) + (3 / 4)))
    assert not r.vacuous


def test_prf_vacuous_and_zero_sides():
    v = prf(0, 0, 0)
    assert (v.precision, v.recall, v.f, v.vacuous) == (1.0, 1.0, 1.0, True)
    a_only = prf(0, 3, 0)
    assert (a_only.precision, a_only.recall, a_only.f) == (0.0, 0.0, 0.0)
    assert not a_only.vacuous
    b_only = prf(0, 0, 3)
    assert (b_only.precision, b_only.recall, b_only.f) == (0.0, 0.0, 0.0)


def test_prf_validates_counts():
    with pytest.raises(ValueError):
        prf(5, 4, 4)
    with pytest.raises(ValueError):
        prf(-1, 0, 0)


def test_prf_beta_weighting():
    r = prf(3, 4, 5, beta=2.0)
    p, rec = 3 / 5, 3 / 4
    assert math.isclose(r.f, 5 * p * rec / (4 * p + rec))


def test_report_dict_rounding():
    # to_dict keeps the raw measures; fmt_metric rounds them for display.
    d = prf(2, 3, 3).to_dict()
    assert d == {
        "agreed": 2, "count_a": 3, "count_b": 3,
        "precision": 2 / 3, "recall": 2 / 3, "f": 2 / 3, "vacuous": False,
    }
    assert fmt_metric(d["precision"]) == "0.667"


def sentences_from(words: list[list[tuple[str, str]]]) -> list[Sentence]:
    out = []
    cursor = 0
    for sent in words:
        toks = []
        rel = 0
        for surface, pos in sent:
            toks.append(Token(rel, rel + len(surface), surface, pos))
            rel += len(surface)
        out.append(Sentence(cursor, tuple(toks)))
        cursor += rel + 1
    return out


def test_token_counts_seg_vs_pos():
    a = sentences_from([[("发热", "NN"), ("咳嗽", "NN")]])
    b = sentences_from([[("发热", "VV"), ("咳", "NN"), ("嗽", "NN")]])
    assert token_counts(a, b) == (1, 2, 3)
    assert token_counts(a, b, labeled=True) == (0, 2, 3)
    assert token_counts(a, a, labeled=True) == (2, 2, 2)


def test_segmentation_agreement_is_position_sensitive():
    # Same surfaces, shifted sentence anchor: no span can agree.
    a = sentences_from([[("发热", "NN")]])
    b = [Sentence(1, a[0].tokens)]
    assert token_counts(a, b) == (0, 1, 1)


def test_chunk_counts_align_per_sentence():
    a = [[Chunk(0, 2, "NP")], [Chunk(0, 1, "VP")]]
    b = [[Chunk(0, 2, "NP")], [Chunk(0, 1, "NP")]]
    assert chunk_counts(a, b) == (1, 2, 2)
    with pytest.raises(LengthMismatchError):
        chunk_counts(a, [[]])
    # Alias labels agree with their canonical form.
    assert chunk_counts([[Chunk(0, 1, "VS")]], [[Chunk(0, 1, "VSB")]]) == (1, 1, 1)


def test_chunk_indices_not_cross_sentence():
    # Identical chunk in different sentences must not match.
    a = [[Chunk(0, 1, "NP")], []]
    b = [[], [Chunk(0, 1, "NP")]]
    assert chunk_counts(a, b) == (0, 1, 1)


def test_tree_layer_counts_and_exclusions():
    a = [parse_tree("(IP (NN a) (NN b))")]
    b = [parse_tree("(IP (NP (NN a) (NN b)))")]
    counts, excluded = tree_counts(a, b)
    assert counts == (1, 1, 2)
    assert excluded == []


def entity(eid, etype, start, end, assertion=None):
    return Entity(eid, etype, start, end, "x" * (end - start), assertion)


def test_entity_policies_grow_stricter():
    a = DocAnnotations("d", "", entities={
        "T1": entity("T1", EntityType.DISEASE, 0, 2, AssertionType.PRESENT),
    })
    b_span = DocAnnotations("d", "", entities={
        "T1": entity("T1", EntityType.SYMPTOM, 0, 2, AssertionType.PRESENT),
    })
    b_type = DocAnnotations("d", "", entities={
        "T1": entity("T1", EntityType.DISEASE, 0, 2, AssertionType.ABSENT),
    })
    assert entity_counts(a, b_span, MatchPolicy.SPAN) == (1, 1, 1)
    assert entity_counts(a, b_span, MatchPolicy.SPAN_TYPE) == (0, 1, 1)
    assert entity_counts(a, b_type, MatchPolicy.SPAN_TYPE) == (1, 1, 1)
    assert entity_counts(a, b_type, MatchPolicy.SPAN_TYPE_ASSERTION) == (0, 1, 1)


def both_orders(count, a, b, *args):
    """count(a, b, *args), checked against count(b, a, *args): swapping the
    sides swaps count_a with count_b and keeps agreed."""
    agreed, count_a, count_b = count(a, b, *args)
    assert count(b, a, *args) == (agreed, count_b, count_a)
    return agreed, count_a, count_b


def test_repeated_tree_brackets_agree_by_multiplicity():
    # The unary chain has two NP brackets over one span.
    chain = [parse_tree("(IP (NP (NP (NN a))))")]
    single = [parse_tree("(IP (NP (NN a)))")]
    assert both_orders(lambda a, b: tree_counts(a, b)[0], chain, single) == (2, 3, 2)
    assert both_orders(lambda a, b: tree_counts(a, b)[0], chain, chain) == (3, 3, 3)


def test_repeated_entity_keys_agree_by_multiplicity():
    twice = DocAnnotations("d", "", entities={
        "T1": entity("T1", EntityType.DISEASE, 0, 2, AssertionType.PRESENT),
        "T2": entity("T2", EntityType.DISEASE, 0, 2, AssertionType.PRESENT),
    })
    once = DocAnnotations("d", "", entities={
        "T1": entity("T1", EntityType.DISEASE, 0, 2, AssertionType.PRESENT),
    })
    other_assertion = DocAnnotations("d", "", entities={
        "T1": entity("T1", EntityType.DISEASE, 0, 2, AssertionType.ABSENT),
    })
    for policy in MatchPolicy:
        assert both_orders(entity_counts, twice, once, policy) == (1, 2, 1)
        assert both_orders(entity_counts, twice, twice, policy) == (2, 2, 2)
    assert both_orders(
        entity_counts, twice, other_assertion, MatchPolicy.SPAN_TYPE_ASSERTION
    ) == (0, 2, 1)
    assert both_orders(entity_counts, twice, other_assertion, MatchPolicy.SPAN_TYPE) == (1, 2, 1)
    # No assertion is a value of its own.
    unasserted = DocAnnotations("d", "", entities={
        "T1": entity("T1", EntityType.DISEASE, 0, 2),
        "T2": entity("T2", EntityType.DISEASE, 0, 2),
    })
    assert both_orders(
        entity_counts, unasserted, once, MatchPolicy.SPAN_TYPE_ASSERTION
    ) == (0, 2, 1)
    assert both_orders(
        entity_counts, unasserted, unasserted, MatchPolicy.SPAN_TYPE_ASSERTION
    ) == (2, 2, 2)


def test_chunk_labels_that_normalize_alike_repeat_a_key():
    # VS is an alias of VSB, so the first sentence holds one key twice.
    aliased = [[Chunk(0, 1, "VS"), Chunk(0, 1, "VSB")], [Chunk(0, 1, "NP")]]
    canonical = [[Chunk(0, 1, "VSB")], [Chunk(0, 1, "NP")]]
    assert both_orders(chunk_counts, aliased, canonical) == (2, 3, 2)
    assert both_orders(chunk_counts, aliased, aliased) == (3, 3, 3)


def test_repeated_group_preserved_relations_agree_by_multiplicity():
    a, b = dual_mode_fixture()
    a.relations["R2"] = a.relations["R1"]
    b.groups["G1"] = a.groups["G1"]
    b.relations["R1"] = a.relations["R1"]
    assert both_orders(relation_counts, a, b, RelationMode.GROUP_PRESERVED) == (1, 2, 1)


def dual_mode_fixture():
    """One annotator groups two symptoms, the other relates only one."""
    text = "甲乙丙丁"
    a = DocAnnotations("d", text, entities={
        "T1": Entity("T1", EntityType.SYMPTOM, 0, 1, "甲", AssertionType.PRESENT),
        "T2": Entity("T2", EntityType.SYMPTOM, 1, 2, "乙", AssertionType.PRESENT),
        "T3": Entity("T3", EntityType.DISEASE, 2, 3, "丙", AssertionType.PRESENT),
    })
    a.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, ("T1", "T2"))
    a.relations["R1"] = Relation(
        "R1", RelationType.SYMPTOM_INDICATES_DISEASE, "G1", "T3"
    )
    b = DocAnnotations("d", text, entities=dict(a.entities))
    b.relations["R1"] = Relation(
        "R1", RelationType.SYMPTOM_INDICATES_DISEASE, "T1", "T3"
    )
    return a, b


def test_relation_modes_disagree_on_grouping():
    a, b = dual_mode_fixture()
    assert relation_counts(a, b, RelationMode.GROUP_PRESERVED) == (0, 1, 1)
    assert relation_counts(a, b, RelationMode.ONE_TO_ONE) == (1, 2, 1)
    f_group = prf(*relation_counts(a, b, RelationMode.GROUP_PRESERVED)).f
    f_one = prf(*relation_counts(a, b, RelationMode.ONE_TO_ONE)).f
    assert f_group == 0.0
    assert abs(f_one - 2 / 3) < 1e-9


def test_singleton_group_equals_bare_entity():
    text = "甲乙"
    a = DocAnnotations("d", text, entities={
        "T1": Entity("T1", EntityType.SYMPTOM, 0, 1, "甲", AssertionType.PRESENT),
        "T2": Entity("T2", EntityType.DISEASE, 1, 2, "乙", AssertionType.PRESENT),
    })
    a.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, ("T1",))
    a.relations["R1"] = Relation(
        "R1", RelationType.SYMPTOM_INDICATES_DISEASE, "G1", "T2"
    )
    b = DocAnnotations("d", text, entities=dict(a.entities))
    b.relations["R1"] = Relation(
        "R1", RelationType.SYMPTOM_INDICATES_DISEASE, "T1", "T2"
    )
    assert relation_counts(a, b, RelationMode.GROUP_PRESERVED) == (1, 1, 1)


def test_micro_and_macro_aggregation():
    per_doc = [(1, 2, 2), (0, 0, 0), (3, 3, 4)]
    micro = prf(*add_counts(*per_doc))
    assert (micro.agreed, micro.count_a, micro.count_b) == (4, 5, 6)
    reports = [prf(*c) for c in per_doc]
    p, r, f = macro_average(reports)
    assert math.isclose(p, (0.5 + 1.0 + 0.75) / 3)
    assert math.isclose(r, (0.5 + 1.0 + 1.0) / 3)
    assert f <= 1.0


def test_swap_symmetry_random_documents():
    rng = random.Random(2024)
    for i in range(20):
        da = random_document(rng, "d")
        db = random_document(rng, "d")
        for layer in ("seg", "pos", "entity", "relation"):
            ab = corpus_agreement([(da, db)], layer).report()
            ba = corpus_agreement([(db, da)], layer).report()
            assert ab.precision == ba.recall
            assert ab.recall == ba.precision
            assert ab.f == ba.f


def test_corpus_agreement_union_of_documents():
    da = random_document(random.Random(5), "only_a")
    db = random_document(random.Random(6), "only_b")
    corpus = corpus_agreement([(da, None), (None, db)], "seg")
    assert sorted(corpus.per_doc) == ["only_a", "only_b"]
    report = corpus.report()
    assert report.agreed == 0
    assert report.count_a > 0 and report.count_b > 0


def test_corpus_agreement_tree_exclusions_reported():
    doc_a = Document("d", "ab", trees=[parse_tree("(IP (NN a) (NN b))")])
    doc_b = Document("d", "ab", trees=[parse_tree("(IP (NN a))")])
    corpus = corpus_agreement([(doc_a, doc_b)], "tree")
    assert corpus.excluded_sentences == {"d": [0]}
    assert corpus.has_exclusions
    assert corpus.report().vacuous


def test_corpus_agreement_chunk_shape_mismatch_excludes_doc():
    doc_a = Document("d", "ab", chunks=[[Chunk(0, 1, "NP")]])
    doc_b = Document("d", "ab", chunks=[[Chunk(0, 1, "NP")], []])
    corpus = corpus_agreement([(doc_a, doc_b)], "chunk")
    assert corpus.excluded_docs == ["d"]
    assert corpus.has_exclusions


def test_identical_sets_agree_perfectly():
    rng = random.Random(31)
    docs = [random_document(rng, f"d{i}") for i in range(5)]
    for layer in ("seg", "pos", "chunk", "tree", "entity", "relation"):
        report = corpus_agreement(
            zip(docs, docs), layer,
            policy=MatchPolicy.SPAN_TYPE_ASSERTION,
            mode=RelationMode.GROUP_PRESERVED,
        ).report()
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f == 1.0
