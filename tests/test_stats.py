"""Corpus statistics, rounding rules, and reference-table comparison."""
import math
import random

import pytest

from clincorp import refdata
from clincorp.annio import load_corpus, serialize_ptb
from clincorp.cli import main
from clincorp.errors import InputError
from clincorp.model import (
    DocAnnotations,
    Document,
    Entity,
    EntityGroup,
    Relation,
    Sentence,
    Token,
)
from clincorp.numfmt import fmt_metric, fmt_percent, round_half_up
from clincorp.parseval import ParseTree
from clincorp.refdata import matches_display
from clincorp.stats import (
    CrossRow,
    DistributionRow,
    assertion_cross_table,
    avg_sentence_length,
    compare_reference,
    distribution,
    reference_column,
    relation_table,
    token_and_sentence_counts,
)
from clincorp.tagsets import AssertionType, EntityType, RelationType
from helpers import random_document, write_bundle


def test_round_half_up_away_from_zero():
    assert round_half_up(2.675, 2) == 2.68
    assert round_half_up(-2.675, 2) == -2.68
    assert round_half_up(0.0005, 3) == 0.001
    assert round_half_up(1.0 / 3.0, 3) == 0.333
    assert round_half_up(18.584999, 2) == 18.58
    assert round_half_up(18.585, 2) == 18.59


def test_fixed_formatting_rounds_halfway_cases_away_from_zero():
    # Each float lies a little below the decimal it prints as, so binary
    # rounding (f"{x:.2f}", round()) would go down.
    assert fmt_percent(18.575) == "18.58"
    assert fmt_percent(2.675) == "2.68"
    assert fmt_metric(0.0005) == "0.001"
    assert fmt_metric(-0.0005) == "-0.001"


def test_round_half_up_returns_non_finite_values_unchanged():
    assert round_half_up(math.inf, 2) == math.inf
    assert round_half_up(-math.inf, 3) == -math.inf
    assert math.isnan(round_half_up(math.nan, 2))
    assert (fmt_metric(math.nan), fmt_metric(math.inf), fmt_percent(-math.inf)) == (
        "nan", "inf", "-inf"
    )


def test_fixed_formatting():
    assert fmt_metric(2 / 3) == "0.667"
    assert fmt_metric(1.0) == "1.000"
    assert fmt_metric(0.0) == "0.000"
    assert fmt_percent(31.165) == "31.17"
    assert fmt_percent(100.0) == "100.00"
    assert fmt_percent(0.0) == "0.00"


def pos_doc(doc_id: str, counts: dict[str, int]) -> Document:
    tokens = []
    rel = 0
    for label in sorted(counts):
        for _ in range(counts[label]):
            tokens.append(Token(rel, rel + 1, "字", label))
            rel += 1
    return Document(
        doc_id=doc_id, text="字" * rel,
        sentences=[Sentence(0, tuple(tokens))],
    )


def test_pos_distribution_ordering_and_pcts():
    doc = pos_doc("d", {"NN": 6, "VV": 3, "AD": 3})
    rows = distribution([doc], "pos")
    assert [(r.label, r.count) for r in rows] == [("NN", 6), ("AD", 3), ("VV", 3)]
    assert rows[0].pct == 50.0
    assert rows[1].pct == 25.0


def test_single_token_corpus_single_row():
    rows = distribution([pos_doc("d", {"NN": 1})], "pos")
    assert len(rows) == 1
    assert rows[0] == type(rows[0])("NN", 1, 100.0)


def test_distribution_empty_corpus_is_error():
    with pytest.raises(InputError):
        distribution([Document("d", "")], "pos")
    with pytest.raises(InputError):
        distribution([Document("d", "")], "nope")


def test_syntactic_distribution_counts_internal_nodes():
    tree = ParseTree("IP", (
        ParseTree("NP", (ParseTree("NN", (), "甲"), ParseTree("NN", (), "乙"))),
        ParseTree("VP", (ParseTree("VV", (), "治"),)),
    ))
    doc = Document("d", "", trees=[tree, tree])
    rows = distribution([doc], "syntactic")
    assert {(r.label, r.count) for r in rows} == {("IP", 2), ("NP", 2), ("VP", 2)}


def ann_doc(doc_id: str) -> Document:
    text = "甲乙丙丁"
    ann = DocAnnotations(doc_id, text)
    ann.entities["T1"] = Entity(
        "T1", EntityType.DISEASE, 0, 1, "甲", AssertionType.PRESENT
    )
    ann.entities["T2"] = Entity(
        "T2", EntityType.SYMPTOM, 1, 2, "乙", AssertionType.ABSENT
    )
    ann.entities["T3"] = Entity(
        "T3", EntityType.SYMPTOM, 2, 3, "丙", AssertionType.ABSENT
    )
    ann.entities["T4"] = Entity("T4", EntityType.TEST, 3, 4, "丁")
    ann.groups["G1"] = EntityGroup("G1", EntityType.SYMPTOM, ("T2", "T3"))
    ann.relations["R1"] = Relation(
        "R1", RelationType.SYMPTOM_INDICATES_DISEASE, "G1", "T1"
    )
    ann.relations["R2"] = Relation(
        "R2", RelationType.DISEASE_CAUSES_SYMPTOM, "T1", "T2"
    )
    return Document(
        doc_id, text, sentences=[Sentence(0, (Token(0, 4, text),))],
        annotations=ann,
    )


def test_entity_and_relation_type_counts():
    doc = ann_doc("d")
    rows = assertion_cross_table([doc])
    assert {(r.label, r.count) for r in rows if r.label.endswith(":total")} == {
        ("symptom:total", 2), ("disease:total", 1), ("test:total", 1),
    }
    rel_rows = relation_table([doc])
    # G1 expands R1 to two SID pairs; R2 stays a single DCS pair.
    assert {(r.label, r.count) for r in rel_rows if not r.label.startswith("R(")} == {
        ("SID", 2), ("DCS", 1),
    }
    for layer in ("entity_type", "relation_type"):
        with pytest.raises(InputError):
            distribution([doc], layer)


def test_assertion_cross_table_shape():
    rows = assertion_cross_table([ann_doc("d")])
    by_label = {r.label: r for r in rows}
    assert by_label["disease:present"].count == 1
    assert by_label["disease:present"].pct_within == 100.0
    assert by_label["disease:present"].pct_all == 25.0
    # All six valid disease assertions are present, most at zero.
    assert by_label["disease:possible"].count == 0
    assert by_label["disease:total"].count == 1
    assert by_label["symptom:absent"].pct_within == 100.0
    assert by_label["test:none"].count == 1
    assert by_label["test:total"].pct_all == 25.0
    assert "treatment:total" not in by_label  # zero treatments: type skipped


def test_assertion_cross_table_empty():
    assert assertion_cross_table([Document("d", "")]) == []


def test_relation_table_groups_pairs():
    rows = relation_table([ann_doc("d")])
    labels = [r.label for r in rows]
    assert labels == ["SID", "DCS", "R(D, S)"]
    total = rows[-1]
    assert total.count == 3
    assert total.pct_within == 100.0
    assert total.pct_all == 100.0
    sid = rows[0]
    assert sid.count == 2
    assert sid.pct_within == round_half_up(200 / 3, 2)


def test_length_statistics():
    d1 = pos_doc("a", {"NN": 4})
    d2 = pos_doc("b", {"NN": 8})
    assert token_and_sentence_counts([d1, d2]) == (12, 2)
    assert token_and_sentence_counts([d2]) == (8, 1)
    assert avg_sentence_length([d1, d2]) == 6.0
    assert avg_sentence_length([d1]) == 4.0
    with pytest.raises(InputError):
        avg_sentence_length([])


def test_matches_display_cells():
    assert matches_display(31.17, "31.17", 0.01)
    assert matches_display(31.174, "31.17", 0.01)
    assert not matches_display(31.2, "31.17", 0.01)
    assert matches_display(0.004, "<0.01", 0.01)
    assert not matches_display(0.011, "<0.01", 0.01)
    assert not matches_display(-0.001, "<0.01", 0.01)
    assert matches_display(0.0, "0", 0.01)
    assert not matches_display(0.0001, "0", 0.01)


def rows_from_reference(reference):
    """Recompute percentage rows from the reference's own counts."""
    from clincorp.stats import DistributionRow

    total = sum(count for _, count, _ in reference)
    return [
        DistributionRow(label, count, round_half_up(100.0 * count / total, 2))
        for label, count, _ in reference
        if count > 0
    ]


def test_reference_comparison_clean_and_perturbed():
    rows = rows_from_reference(refdata.POS_DISTRIBUTION)
    assert compare_reference(rows, refdata.POS_DISTRIBUTION) == []
    # Perturb one count: both the count and its percentage now deviate.
    bad = [
        type(r)(r.label, r.count + 100, r.pct) if r.label == "NN" else r
        for r in rows
    ]
    deviations = compare_reference(bad, refdata.POS_DISTRIBUTION)
    assert any(d.label == "NN" and d.field == "count" for d in deviations)


def test_reference_comparison_rejects_unknown_labels():
    rows = rows_from_reference(refdata.POS_DISTRIBUTION)
    rows.append(type(rows[0])("ZZZ", 1, 0.0))
    with pytest.raises(InputError):
        compare_reference(rows, refdata.POS_DISTRIBUTION)


def test_reference_column_projection():
    rows = reference_column(refdata.POS_BY_DOC_TYPE, "discharge_summary")
    assert rows[0] == ("NN", "32.90")
    rows2 = reference_column(refdata.POS_BY_DOC_TYPE, "progress_note")
    assert rows2[0] == ("NN", "30.23")
    with pytest.raises(InputError):
        reference_column(refdata.POS_BY_DOC_TYPE, "letter")


def test_reference_tables_internally_consistent():
    assert sum(c for _, c, _ in refdata.POS_DISTRIBUTION) == refdata.TOTAL_TOKENS
    assert sum(
        c for label, c, _, _ in refdata.ENTITY_ASSERTION_TABLE
        if label.endswith(":total")
    ) == refdata.TOTAL_ENTITIES
    assert sum(
        c for label, c, _, _ in refdata.RELATION_TABLE if label.startswith("R(")
    ) == refdata.RELATION_TABLE_TOTAL


TABLES = {
    "pos": lambda docs: distribution(docs, "pos"),
    "syn": lambda docs: distribution(docs, "syntactic"),
    "entity": assertion_cross_table,
    "relation": relation_table,
}


def _printed_by_the_library(report: str, docs: list) -> tuple[int, str, str]:
    """What `clincorp stats --report REPORT` prints for `docs`, made with the
    public table functions: (exit code, stdout, stderr)."""
    def text(value):
        return fmt_percent(value) if isinstance(value, float) else str(value)

    try:
        if report == "length":
            tokens, sentences = token_and_sentence_counts(docs)
            avg = avg_sentence_length(docs)
            return 0, (f"tokens\t{tokens}\nsentences\t{sentences}\n"
                       f"avg_tokens_per_sentence\t{text(avg)}\n"), ""
        rows = TABLES[report](docs)
    except InputError as exc:
        return 2, "", f"error: {exc}\n"
    names = (DistributionRow if report in ("pos", "syn") else CrossRow).__slots__
    lines = ["\t".join(names)] + [
        "\t".join(text(getattr(r, n)) for n in names) for r in rows
    ]
    return 0, "".join(line + "\n" for line in lines), ""


def _sparse_document(doc_id: str) -> Document:
    """Two one-token sentences without part-of-speech labels, one-leaf trees
    (no internal constituent) and one entity without relations."""
    tokens = [Sentence(0, (Token(0, 1, "a"),)), Sentence(2, (Token(0, 1, "b"),))]
    ann = DocAnnotations(doc_id=doc_id, text="a b")
    ann.entities["T1"] = Entity("T1", EntityType.TEST, 0, 1, "a")
    return Document(doc_id, "a b", sentences=tokens,
                    trees=[ParseTree("NN", surface="a"), ParseTree("NN", surface="b")],
                    annotations=ann)


@pytest.mark.parametrize("corpus", ["random", "sparse", "empty"])
def test_each_table_function_prints_what_the_cli_prints(tmp_path, capsys, monkeypatch, corpus):
    """The five library functions, rebuilt from a tally and a finishing step,
    give the tables `clincorp stats` prints, zero-count errors included."""
    monkeypatch.delenv("CLINCORP_CONFIG", raising=False)
    root = tmp_path / corpus
    for i in range(4):
        doc_id = f"d{i}"
        if corpus == "random":
            doc = random_document(random.Random(i), doc_id)
        elif corpus == "sparse":
            doc = _sparse_document(doc_id)
        else:
            doc = Document(doc_id, "", annotations=DocAnnotations(doc_id=doc_id, text=""))
        stem = write_bundle(root, doc)
        stem.with_suffix(".ptb").write_text(serialize_ptb(doc.trees), encoding="utf-8")
    docs = list(load_corpus(root).values())
    for report in ("pos", "syn", "entity", "relation", "length"):
        code = main(["stats", "--report", report, str(root)])
        out, err = capsys.readouterr()
        assert (code, out, err) == _printed_by_the_library(report, docs), report
    if corpus == "sparse":
        assert [r.label for r in assertion_cross_table(docs)][-1] == "test:total"
        assert relation_table(docs) == []
    if corpus != "random":
        for report in ("pos", "syn"):
            with pytest.raises(InputError, match="corpus has no"):
                TABLES[report](iter(docs))
    assert token_and_sentence_counts(iter(docs)) == token_and_sentence_counts(docs)
