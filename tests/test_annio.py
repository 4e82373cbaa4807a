"""File formats: parsing, canonical serialization, bundle loading."""
import os
import random
from pathlib import Path

import pytest

from clincorp import annio, corpusdir
from clincorp.annio import (
    HEADERS,
    LAYER_FILES,
    discover,
    load_corpus,
    load_document,
    parse_ann,
    parse_chk,
    parse_ptb,
    parse_tok,
    serialize_ann,
    serialize_chk,
    serialize_ptb,
    serialize_tok,
)
from clincorp.errors import InputError, ParseError
from clincorp.model import DOC_TYPES, Chunk, Sentence, Token
from clincorp.tagsets import AssertionType, EntityType
from helpers import random_document, write_bundle

TOK = (
    "0\t2\t发热\tNN\n"
    "2\t4\t咳嗽\tNN\n"
    "\n"
    "5\t7\t复查\tVV\n"
    "7\t10\t血常规\tNN\n"
)

ANN = (
    "T1\tsymptom 0 2\t发热\n"
    "T2\tsymptom 2 4\t咳嗽\n"
    "T3\tdisease 5 7\t复查\n"
    "A1\tpresent T1\n"
    "A2\tabsent T2\n"
    "A3\tpossible T3\n"
    "G1\tsymptom T1 T2\n"
    "R1\tSID Arg1:G1 Arg2:T3\n"
)


def test_parse_tok_relative_spans():
    sents = parse_tok(TOK)
    assert len(sents) == 2
    assert sents[0].start == 0 and sents[1].start == 5
    assert sents[1].tokens[0] == Token(0, 2, "复查", "VV")
    assert sents[1].abs_span(sents[1].tokens[1]) == (7, 10)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("0\t2\n", "3 or 4"),
        ("0\tx\t发\tNN\n", "integers"),
        ("2\t2\t发\tNN\n", "empty or inverted"),
        ("0\t2\t发热\tNN\n1\t3\t热咳\tNN\n", "non-monotonic"),
        ("0\t2\t\tNN\n", "empty surface"),
        ("0\t2\t发热\tXX\n", "unknown-pos-label"),
    ],
)
def test_parse_tok_errors_carry_line(bad, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_tok(bad, path="x.tok")
    assert err.value.line is not None


def test_tok_monotonicity_spans_sentence_boundaries():
    bad = "0\t4\t发热咳嗽\tNN\n\n2\t5\t嗽复查\tVV\n"
    with pytest.raises(ParseError, match="non-monotonic"):
        parse_tok(bad)


def test_serialize_tok_roundtrip():
    sents = parse_tok(TOK)
    text = serialize_tok(sents)
    assert text.startswith(HEADERS["tok"] + "\n")
    assert parse_tok(text) == sents
    assert serialize_tok(parse_tok(text)) == text


def test_empty_layers_serialize_to_header_only():
    assert serialize_tok([]) == HEADERS["tok"] + "\n"
    assert serialize_ptb([]) == HEADERS["ptb"] + "\n"
    assert serialize_chk([]) == HEADERS["chk"] + "\n"
    assert parse_tok(serialize_tok([])) == []
    assert parse_ptb(serialize_ptb([])) == []
    assert parse_chk(serialize_chk([])) == []


def test_chk_blank_line_terminates_blocks():
    blocks = parse_chk("0\t2\tNP\n\n\n1\t2\tVP\n")
    assert blocks == [
        [Chunk(0, 2, "NP")],
        [],
        [Chunk(1, 2, "VP")],  # missing final terminator tolerated
    ]
    # Canonical form always terminates; round-trips byte-identically.
    text = serialize_chk(blocks)
    assert parse_chk(text) == blocks
    assert serialize_chk(parse_chk(text)) == text


def test_chk_trailing_empty_block_survives():
    blocks = [[Chunk(0, 1, "NP")], []]
    assert parse_chk(serialize_chk(blocks)) == blocks


def test_parse_ann_structure():
    ann = parse_ann(ANN, doc_id="d", text="发热咳嗽\n复查血常规")
    assert set(ann.entities) == {"T1", "T2", "T3"}
    assert ann.entities["T1"].assertion is AssertionType.PRESENT
    assert ann.entities["T3"].etype is EntityType.DISEASE
    assert ann.groups["G1"].members == ("T1", "T2")
    assert ann.relations["R1"].arg1 == "G1"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("T1\tsymptom 0 2\t发\nT1\tsymptom 2 4\t热\n", "duplicate entity id"),
        ("T1\tthing 0 2\t发\n", "unknown entity type"),
        ("T1\tsymptom 0 2\t发\nA1\tsometimes T1\n", "unknown assertion"),
        ("A1\tpresent T7\n", "missing entity"),
        (
            "T1\tsymptom 0 2\t发\nA1\tpresent T1\nA2\tabsent T1\n",
            "more than one assertion",
        ),
        ("G1\tsymptom T1\n", "dangling-reference"),
        ("T1\tsymptom 0 2\t发\nR1\tSID Arg1:T1 Arg2:G9\n", "dangling-reference"),
        ("T1\tsymptom 0 2\t发\nR1\tXXX Arg1:T1 Arg2:T1\n", "unknown relation"),
        ("Q1\tsymptom 0 2\t发\n", "unknown annotation line kind"),
        ("T1\tsymptom zero 2\t发\n", "malformed entity line"),
    ],
)
def test_parse_ann_errors_located(bad, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_ann(bad, path="x.ann")
    assert err.value.line is not None


def test_empty_entity_span_is_not_a_parse_error():
    # Guideline conformance is the validator's job; the file is well-formed.
    ann = parse_ann("T1\tsymptom 2 2\t\n")
    assert ann.entities["T1"].span == (2, 2)


def test_serialize_ann_canonical_ordering():
    shuffled = (
        "T2\tsymptom 2 4\t咳嗽\n"
        "R1\tSID Arg1:G1 Arg2:T3\n"
        "A1\tpossible T3\n"
        "T3\tdisease 5 7\t复查\n"
        "G1\tsymptom T1 T2\n"
        "T1\tsymptom 0 2\t发热\n"
        "A2\tpresent T1\n"
        "A3\tabsent T2\n"
    )
    out = serialize_ann(parse_ann(shuffled))
    lines = out.splitlines()
    assert lines[0] == HEADERS["ann"]
    assert [l.split("\t")[0] for l in lines[1:]] == [
        "T1", "T2", "T3", "A1", "A2", "A3", "G1", "R1",
    ]
    # Assertions are renumbered in entity order: A1 now belongs to T1.
    assert "A1\tpresent T1" in lines
    assert "A3\tpossible T3" in lines


def test_serialize_parse_serialize_byte_identical():
    rng = random.Random(7)
    for i in range(50):
        doc = random_document(rng, f"d{i}")
        ann = doc.annotations
        once = serialize_ann(ann)
        again = serialize_ann(parse_ann(once, doc_id=ann.doc_id, text=ann.text))
        assert once == again


def test_discover_and_load(tmp_path):
    rng = random.Random(11)
    doc = random_document(rng, "a")
    write_bundle(tmp_path, doc, subdir="discharge_summary")
    bundles = discover(tmp_path)
    assert list(bundles) == ["discharge_summary/a"]
    assert bundles["discharge_summary/a"].doc_type == "discharge_summary"
    loaded = load_document(bundles["discharge_summary/a"])
    assert loaded.text == doc.text
    assert loaded.sentences == doc.sentences
    assert loaded.chunks == doc.chunks
    assert loaded.trees == doc.trees
    assert loaded.annotations.entities == doc.annotations.entities
    assert loaded.doc_type == "discharge_summary"


def _rglob_bundles(root):
    """The bundle list discover gave when it walked rglob("*.txt") and
    checked every sibling with Path.exists: one tuple of strings per bundle,
    in the order rglob yields them."""
    root = Path(root)
    out = {}
    for txt in sorted(root.rglob("*.txt")):
        doc_id = str(txt.relative_to(root).with_suffix(""))
        sibs = [txt.with_suffix("." + layer) for layer in LAYER_FILES]
        doc_type = txt.parent.name if txt.parent.name in DOC_TYPES else None
        out[doc_id] = (
            doc_id, str(txt), *(str(s) if s.exists() else None for s in sibs), doc_type
        )
    return list(out.values())


def _bundle_tuples(bundles):
    return [
        (bp.doc_id, bp.txt, bp.tok, bp.ptb, bp.chk, bp.ann, bp.doc_type)
        for bp in bundles.values()
    ]


def _touch(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("x", encoding="utf-8")


@pytest.fixture
def awkward_tree(tmp_path):
    """A corpus tree with every case the rglob walk treated specially."""
    d = tmp_path / "d"
    for rel in (
        "a.txt", "a.tok", "a.ann", "a-b.txt", "a-b.chk", "a/z.txt", "a/z.ptb",
        ".hidden.txt", ".hidden.tok", ".hid/x.txt", ".txt", ".txt.tok",
        "..txt", "..tok", "b.txt", "b.chk", "upper.TXT",
        "discharge_summary/n1.txt", "discharge_summary/n1.tok",
        "discharge_summary/n1.ptb", "discharge_summary/n1.chk",
        "discharge_summary/n1.ann", "progress_note/deep/n2.txt",
        "progress_note/n3.txt", "dir.txt/inner.txt", "dir.txt/inner.ann",
    ):
        _touch(d / rel)
    (d / "dir.tok").mkdir()  # a directory sibling exists, as Path.exists says
    _touch(tmp_path / "outside" / "q.txt")
    (d / "linked").symlink_to(tmp_path / "outside", target_is_directory=True)
    (d / "b.tok").symlink_to(d / "missing.tok")  # broken: absent
    (d / "b.ptb").symlink_to(d / "a.tok")  # live: present
    (d / "link.txt").symlink_to(d / "a-b.txt")
    return tmp_path


@pytest.mark.parametrize("root", ["d", "d/", "./d", ".", "absolute", "d/../d"])
def test_discover_matches_rglob_walk(awkward_tree, monkeypatch, root):
    monkeypatch.chdir(awkward_tree)
    if root == ".":
        monkeypatch.chdir(awkward_tree / "d")
    elif root == "absolute":
        root = str(awkward_tree / "d")
    expected = sorted(_rglob_bundles(root))
    assert _bundle_tuples(discover(root)) == expected
    assert _bundle_tuples(discover(Path(root))) == expected
    ids = [t[0] for t in expected]
    assert ids.index("a") < ids.index("a-b") < ids.index("a/z")
    assert {"dir", "dir.txt/inner", ".hid/x", ".hidden", ".txt", "."} <= set(ids)
    assert not any(i.startswith("linked") for i in ids)
    bundles = discover(root)
    assert bundles["b"].tok is None and bundles["b"].ptb and bundles["b"].chk
    assert bundles["dir"].tok and bundles["link"].txt


def test_discover_rejects_a_non_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _touch(tmp_path / "f.txt")
    for root in ("f.txt", "./missing/"):
        for walk in (discover, corpusdir.doc_ids):
            with pytest.raises(InputError) as err:
                walk(root)
            assert str(err.value) == f"not a directory: {Path(root)}"


@pytest.mark.parametrize("root", ["d", "d/", "./d", ".", "absolute", "d/../d"])
def test_doc_ids_match_discover(awkward_tree, monkeypatch, root):
    monkeypatch.chdir(awkward_tree)
    if root == ".":
        monkeypatch.chdir(awkward_tree / "d")
    elif root == "absolute":
        root = str(awkward_tree / "d")
    for spelled in (root, Path(root)):
        assert corpusdir.doc_ids(spelled) == list(discover(spelled))


@pytest.mark.parametrize(
    "rels, expected",
    [
        # A backslash is part of a name, not a directory separator.
        (("a\\b.txt", "a\\b.tok", "a/b.txt", "a/c.txt"), ["a/b", "a/c", "a\\b"]),
        # A directory named x.txt roots a bundle and is entered.
        (("x.txt/in.txt", "x.txt/in.ann", "y.txt/", "x.tok"), ["x", "x.txt/in", "y"]),
        # A bare .txt is its own stem, at the root and below it.
        ((".txt", ".txt.tok", "s/.txt", "s/t.txt"), [".txt", "s/.txt", "s/t"]),
        # ".txt.txt" has the bare ".txt"'s stem and, as the later name in
        # sorted order, roots the one bundle.
        ((".txt", ".txt.txt", ".txt.tok"), [".txt"]),
    ],
    ids=["backslash-kept", "directory-named-txt", "bare-txt", "txt-txt"],
)
def test_doc_ids_match_discover_on_edge_cases(tmp_path, rels, expected):
    for rel in rels:
        if rel.endswith("/"):
            (tmp_path / rel).mkdir(parents=True)
        else:
            _touch(tmp_path / rel)
    assert corpusdir.doc_ids(tmp_path) == list(discover(tmp_path)) == expected
    assert _bundle_tuples(discover(tmp_path)) == sorted(_rglob_bundles(tmp_path))


def test_walk_has_no_depth_limit(tmp_path):
    # Deeper than Python's default recursion limit of 1,000 frames.
    dirs = [tmp_path / "d"]
    for _ in range(1100):
        dirs.append(dirs[-1] / "a")
    for d in dirs:
        d.mkdir()
    try:
        _touch(dirs[-1] / "x.txt")
        deep_id = "a/" * 1100 + "x"
        assert corpusdir.doc_ids(dirs[0]) == [deep_id]
        assert list(discover(dirs[0])) == [deep_id]
    finally:  # pytest's own clean-up removes a tree recursively
        (dirs[-1] / "x.txt").unlink(missing_ok=True)
        for d in reversed(dirs):
            d.rmdir()


def test_kfold_and_round_new_list_the_ids_discover_finds(awkward_tree, capsys):
    from clincorp.cli import main
    from clincorp.workflow import RoundState, kfold

    root = awkward_tree / "d"
    ids = sorted(discover(root))
    assert main(["kfold", "--k", "3", "--seed", "5", str(root)]) == 0
    assert capsys.readouterr().out == kfold(ids, 3, 5).to_json()
    state = awkward_tree / "state.json"
    assert main(["round", "new", "--state", str(state), "--pool-from", str(root)]) == 0
    assert capsys.readouterr().out == RoundState(pool=ids).to_json(indent=2)


def test_discover_makes_no_stat_per_bundle(tmp_path, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("stat", "lstat"):
        monkeypatch.setattr(os, name, counting(name, getattr(os, name)))
    monkeypatch.setattr(os.path, "exists", counting("exists", os.path.exists))
    monkeypatch.setattr(Path, "exists", counting("Path.exists", Path.exists))

    def count_for(n):
        root = tmp_path / str(n)
        for i in range(n):
            for sub in ("discharge_summary", "progress_note"):
                for suffix in (".txt",) + tuple("." + s for s in LAYER_FILES):
                    _touch(root / sub / f"doc{i}{suffix}")
        calls.clear()
        assert len(discover(root)) == 2 * n
        return list(calls)

    few, many = count_for(2), count_for(40)
    assert few == many
    assert len(many) <= 1  # the root's is_dir check


def test_load_document_reads_only_the_named_layers(tmp_path):
    doc = random_document(random.Random(23), "d")
    write_bundle(tmp_path, doc)
    bundle = discover(tmp_path)["d"]
    loaded = load_document(bundle, layers=("ann",))
    assert loaded.text == doc.text
    assert loaded.sentences == [] and loaded.trees == [] and loaded.chunks == []
    assert loaded.annotations.entities == doc.annotations.entities
    loaded = load_document(bundle, layers=("tok", "chk"))
    assert loaded.sentences == doc.sentences and loaded.chunks == doc.chunks
    assert loaded.trees == [] and loaded.annotations is None
    assert load_corpus(tmp_path, layers=())["d"].text == doc.text
    with pytest.raises(ValueError, match="unknown layers"):
        load_document(bundle, layers=("txt",))


def test_leaf_check_needs_both_layers(tmp_path):
    (tmp_path / "d.txt").write_text("发热", encoding="utf-8")
    (tmp_path / "d.tok").write_text("0\t2\t发热\tNN\n", encoding="utf-8")
    (tmp_path / "d.ptb").write_text("(IP (NN 发) (NN 热))\n", encoding="utf-8")
    bundle = discover(tmp_path)["d"]
    assert len(load_document(bundle, layers=("ptb",)).trees) == 1
    assert len(load_document(bundle, layers=("tok",)).sentences) == 1
    with pytest.raises(ParseError, match="leaves"):
        load_document(bundle, layers=("tok", "ptb"))


def test_load_document_rejects_tree_token_misalignment(tmp_path):
    (tmp_path / "d.txt").write_text("发热", encoding="utf-8")
    (tmp_path / "d.tok").write_text("0\t2\t发热\tNN\n", encoding="utf-8")
    (tmp_path / "d.ptb").write_text("(IP (NN 发) (NN 热))\n", encoding="utf-8")
    with pytest.raises(ParseError, match="leaves"):
        load_document(discover(tmp_path)["d"])


def test_load_document_rejects_tree_count_mismatch(tmp_path):
    (tmp_path / "d.txt").write_text("发热", encoding="utf-8")
    (tmp_path / "d.tok").write_text("0\t2\t发热\tNN\n", encoding="utf-8")
    (tmp_path / "d.ptb").write_text(
        "(IP (NN 发热))\n(IP (NN 发热))\n", encoding="utf-8"
    )
    with pytest.raises(ParseError, match="trees for"):
        load_document(discover(tmp_path)["d"])


def test_invalid_utf8_located(tmp_path):
    p = tmp_path / "d.txt"
    p.write_bytes(b"ok\n\xff\xfe\n")
    with pytest.raises(ParseError) as err:
        load_corpus(tmp_path)
    assert err.value.line == 2


def test_comments_ignored_everywhere():
    assert parse_tok("# c\n" + TOK) == parse_tok(TOK)
    assert parse_chk("# c\n0\t1\tNP\n") == [[Chunk(0, 1, "NP")]]
    assert parse_ann("# c\n" + ANN).entities.keys() == {"T1", "T2", "T3"}
    assert len(parse_ptb("# c\n(IP (NN a))\n")) == 1


def test_line_test_covers_every_white_space_start():
    # A line starting with none of these is taken as data without stripping.
    assert annio._MAY_SKIP == {"", "#"} | {
        c for c in map(chr, range(0x110000)) if c.isspace()
    }


@pytest.mark.parametrize("lead", ["", " ", "\t", "\x1c", "\x85", "\u3000"])
def test_white_space_led_comment_and_blank_lines(lead):
    assert parse_tok(f"{lead}# c\n0\t2\t发热\tNN\n{lead}\n2\t4\t咳嗽\tNN\n") == [
        Sentence(0, (Token(0, 2, "发热", "NN"),)), Sentence(2, (Token(0, 2, "咳嗽", "NN"),)),
    ]
    assert parse_chk(f"{lead}# c\n0\t1\tNP\n{lead}\n{lead}\n") == [[Chunk(0, 1, "NP")], []]
    assert len(parse_ptb(f"{lead}# c\n{lead}\n(IP (NN a))\n")) == 1
    assert parse_ann(f"{lead}# c\n{lead}\n" + ANN).entities.keys() == {"T1", "T2", "T3"}


def test_crlf_reads_like_lf():
    doc = random_document(random.Random(17), "d")
    for parse, content in (
        (parse_tok, serialize_tok(doc.sentences)),
        (parse_ptb, serialize_ptb(doc.trees)),
        (parse_chk, serialize_chk(doc.chunks)),
        (parse_ann, serialize_ann(doc.annotations)),
    ):
        assert parse(content.replace("\n", "\r\n")) == parse(content)
    # A blank CRLF line still ends a chunk block; no empty line after the end.
    assert parse_chk("0\t1\tNP\r\n\r\n\r\n") == [[Chunk(0, 1, "NP")], []]
