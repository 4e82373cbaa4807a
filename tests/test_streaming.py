"""Corpus commands read one document per side at a time, in doc-id order.

`corpus_agreement` scores the pairs `annio.iter_pairs` yields, so its results
must match a reference computed one id at a time, and no command may keep an
earlier document alive once it reads the next one."""
import contextlib
import gc
import os
import random
import weakref

import pytest

from clincorp import annio, corpusdir
from clincorp.agreement import corpus_agreement, prf
from clincorp.cli import _LAYER_FILES as LAYER_FILES
from clincorp.cli import main
from clincorp.model import DOC_TYPES, Chunk, Document
from clincorp.numfmt import fmt_metric
from clincorp.tagsets import LAYERS
from clincorp.validate import validate_document
from helpers import random_document, random_tree_over, write_bundle

# In doc-id order "a" comes before "a-b", which comes before "a/z", though
# sorted paths put "a/z" first.  "m1".."m5" interleave, and "only_a"/"only_b"
# are on one side.
IDS_A = ["a", "a-b", "a/z", "m1", "m3", "m5", "only_a"]
IDS_B = ["a", "a/z", "m2", "m3", "m4", "only_b"]


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv("CLINCORP_CONFIG", raising=False)


def _write(root, doc: Document, finding: bool = False) -> None:
    subdir, _, _ = doc.doc_id.rpartition("/")
    stem = write_bundle(root, doc, subdir)
    if finding:  # a disease without an assertion: one validator finding
        with open(stem.with_suffix(".ann"), "a", encoding="utf-8") as f:
            f.write(f"T900\tdisease 0 1\t{doc.text[0]}\n")


def _corpus_pair(tmp_path):
    """Corpora A and B over IDS_A and IDS_B.  "a" is the same on both sides;
    B's "m3" has one more leaf in its first tree and one more chunk block
    than A's, so the tree layer excludes a sentence and the chunk layer the
    document; every other document is drawn at random per side."""
    a, b = tmp_path / "a", tmp_path / "b"
    for i, doc_id in enumerate(IDS_A):
        _write(a, random_document(random.Random(f"A{doc_id}"), doc_id), finding=i % 2 == 1)
    for doc_id in IDS_B:
        seed = f"A{doc_id}" if doc_id in ("a", "m3") else f"B{doc_id}"
        doc = random_document(random.Random(seed), doc_id)
        if doc_id == "m3":
            leaves = doc.trees[0].leaves() + [("NN", "x")]
            doc.trees[0] = random_tree_over(random.Random(3), leaves)
            doc.chunks.append([Chunk(0, 1, "NP")])
        _write(b, doc)
    return a, b


def _per_id_reference(a, b, layer: str):
    """corpus_agreement on each id's pair alone, an absent side empty."""
    bundles_a, bundles_b = annio.discover(a), annio.discover(b)
    layers = LAYER_FILES[layer]
    per_doc, excluded_docs, excluded_sentences = {}, [], {}
    for doc_id in sorted(set(bundles_a) | set(bundles_b)):
        da, db = (
            annio.load_document(bundles[doc_id], layers)
            if doc_id in bundles else Document(doc_id, "")
            for bundles in (bundles_a, bundles_b)
        )
        one = corpus_agreement([(da, db)], layer)
        per_doc.update(one.per_doc)
        excluded_docs += one.excluded_docs
        excluded_sentences.update(one.excluded_sentences)
    return per_doc, excluded_docs, excluded_sentences


def test_load_corpus_reads_in_doc_id_order(tmp_path):
    a, _ = _corpus_pair(tmp_path)
    assert list(annio.discover(a))[:3] == ["a", "a-b", "a/z"]
    corpus = annio.load_corpus(a)
    assert list(corpus) == IDS_A
    assert [d.doc_id for d in corpus.values()] == IDS_A
    assert [d.doc_id for d in annio.load_corpus(a, ("tok",)).values()] == IDS_A


def test_directory_listing_order_does_not_show(tmp_path, capsys, monkeypatch):
    """discover, doc_ids, validate and iaa give the same results whatever
    order os.scandir lists a directory in."""
    a, b = _corpus_pair(tmp_path)

    def results():
        bundles = [
            (p.doc_id, p.txt, p.tok, p.ptb, p.chk, p.ann, p.doc_type)
            for p in annio.discover(a).values()
        ]
        printed = []
        for argv in (
            ["validate", str(a)],
            ["iaa", "--layer", "entity", "--details", str(a), str(b)],
            ["iaa", "--layer", "tree", str(b), str(a)],
        ):
            code = main(argv)
            printed.append((code, capsys.readouterr()))
        return bundles, corpusdir.doc_ids(a), corpusdir.doc_ids(b), printed

    root_names = next(corpusdir.walk(a))[3]
    expected = results()
    scandir = os.scandir

    def reversed_scandir(path):
        with scandir(path) as it:
            entries = list(it)
        return contextlib.nullcontext(reversed(entries))

    monkeypatch.setattr(os, "scandir", reversed_scandir)
    assert next(corpusdir.walk(a))[3] == root_names[::-1] != root_names
    assert results() == expected


@pytest.mark.parametrize("layer", LAYERS)
def test_merge_join_matches_a_per_id_reference(tmp_path, capsys, layer):
    a, b = _corpus_pair(tmp_path)
    per_doc, excluded_docs, excluded_sentences = _per_id_reference(a, b, layer)
    assert sorted(set(per_doc) | set(excluded_docs)) == sorted(set(IDS_A) | set(IDS_B))
    if layer == "tree":
        assert "m3" in excluded_sentences
    if layer == "chunk":
        assert "m3" in excluded_docs
    layers = LAYER_FILES[layer]
    for left, right in ((a, b), (b, a)):
        pairs = annio.iter_pairs(annio.discover(left), annio.discover(right), layers)
        corpus = corpus_agreement(pairs, layer)
        swapped = left == b
        assert corpus.per_doc == (
            {k: (c[0], c[2], c[1]) for k, c in per_doc.items()} if swapped else per_doc
        )
        assert corpus.excluded_docs == excluded_docs
        assert corpus.excluded_sentences == excluded_sentences

    code = main(["iaa", "--layer", layer, "--details", str(a), str(b)])
    assert code == (1 if excluded_docs or excluded_sentences else 0)
    err = capsys.readouterr().err.splitlines()
    rows = [line for line in err if line.split("\t")[0] in per_doc]
    want = []
    for doc_id, counts in per_doc.items():
        r = prf(*counts)
        want.append(
            f"{doc_id}\t{r.agreed}\t{r.count_a}\t{r.count_b}\t{fmt_metric(r.precision)}\t"
            f"{fmt_metric(r.recall)}\t{fmt_metric(r.f)}"
        )
    assert rows == want
    assert [line for line in err if line.startswith("excluded")] == [
        f"excluded document {d}: layer shapes differ" for d in excluded_docs
    ] + [
        f"excluded sentences in {d}: {','.join(map(str, s))}"
        for d, s in sorted(excluded_sentences.items())
    ]


def test_validate_lines_follow_doc_id_order(tmp_path, capsys):
    a, _ = _corpus_pair(tmp_path)
    bundles = annio.discover(a)
    want = [
        d.render()
        for doc_id in sorted(bundles)
        for d in validate_document(annio.load_document(bundles[doc_id]))
    ]
    assert len({line.split("\t")[0] for line in want}) >= 3
    assert main(["validate", str(a)]) == 1
    assert capsys.readouterr().out.splitlines() == want


def test_listing_both_sides_comes_before_any_parse(tmp_path, capsys):
    a, b = _corpus_pair(tmp_path)
    (a / "a.tok").write_text("not a token line\n", encoding="utf-8")
    (tmp_path / "empty").mkdir()
    assert main(["iaa", "--layer", "seg", str(a), str(tmp_path / "empty")]) == 2
    assert capsys.readouterr().err == f"error: no document bundles under {tmp_path / 'empty'}\n"
    # The first malformed file in doc-id order is reported, A before B.
    (a / "a" / "z.tok").write_text("bad\n", encoding="utf-8")
    (b / "a.tok").write_text("bad\n", encoding="utf-8")
    assert main(["iaa", "--layer", "seg", str(a), str(b)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {a / 'a.tok'}:line 1:")
    assert main(["iaa", "--layer", "seg", str(b), str(a)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {b / 'a.tok'}:line 1:")
    assert main(["validate", str(a)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {a / 'a.tok'}:line 1:")


@pytest.mark.parametrize("cmd", ["iaa", "score"])
def test_first_error_is_the_smallest_id_of_either_side(tmp_path, capsys, cmd):
    # A's m5 sorts after B's m3, though A's next document after m1 is m5.
    a, b = tmp_path / "a", tmp_path / "b"
    for root, ids in ((a, ["m1", "m5"]), (b, ["m1", "m3"])):
        for doc_id in ids:
            _write(root, random_document(random.Random(doc_id), doc_id))
    (a / "m5.tok").write_text("bad\n", encoding="utf-8")
    (b / "m3.tok").write_text("bad\n", encoding="utf-8")
    for left, right in ((a, b), (b, a)):
        assert main([cmd, "--layer", "seg", str(left), str(right)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {b / 'm3.tok'}:line 1:")


class _Liveness:
    """Stands in for annio.load_document: before each read it asserts that
    at most one document read earlier from the same directory is alive."""

    def __init__(self, roots: dict[str, str]):
        self.load_document = annio.load_document
        self.roots = roots
        self.refs: dict[str, list] = {side: [] for side in roots}

    def __call__(self, paths, layers=annio.LAYER_FILES):
        gc.collect()
        for side, refs in self.refs.items():
            alive = sum(ref() is not None for ref in refs)
            assert alive <= 1, f"{alive} earlier documents of side {side} alive"
        doc = self.load_document(paths, layers)
        (side,) = [s for s, root in self.roots.items() if paths.txt.startswith(root)]
        self.refs[side].append(weakref.ref(doc))
        return doc


COMMANDS = (
    [("validate", "A")]
    + [(cmd, "--layer", layer, "A", "B") for cmd in ("iaa", "score") for layer in LAYERS]
    + [("stats", "--report", r, "A") for r in ("pos", "syn", "entity", "relation", "length")]
)


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_command_holds_one_document_per_side(tmp_path, monkeypatch, capsys, argv):
    a, b = _corpus_pair(tmp_path)
    dirs = {"A": str(a), "B": str(b)}
    tracker = _Liveness({side: d + "/" for side, d in dirs.items()})
    monkeypatch.setattr(annio, "load_document", tracker)
    code = main([dirs.get(arg, arg) for arg in argv])
    assert code in (0, 1)
    assert len(tracker.refs["A"]) == len(IDS_A)
    assert len(tracker.refs["B"]) == (len(IDS_B) if "B" in argv else 0)


@pytest.mark.parametrize("report", ["pos", "syn", "entity", "relation", "length"])
def test_stats_doc_type_reads_only_bundles_of_that_type(tmp_path, monkeypatch, capsys, report):
    root = tmp_path / "c"
    for i in range(3):
        for doc_type in DOC_TYPES:
            doc_id = f"{doc_type}/d{i}"
            _write(root, random_document(random.Random(doc_id), doc_id))
    # Every layer file of one progress note is malformed, and never read.
    for ext in annio.LAYER_FILES:
        (root / "progress_note" / f"d1.{ext}").write_text("bad\n", encoding="utf-8")
    want_code = main(["stats", "--report", report, str(root / "discharge_summary")])
    want = capsys.readouterr()
    tracker = _Liveness({"A": f"{root}/"})
    monkeypatch.setattr(annio, "load_document", tracker)
    argv = ["stats", "--report", report, "--doc-type", "discharge_summary", str(root)]
    assert main(argv) == want_code == 0
    assert capsys.readouterr() == want
    assert len(tracker.refs["A"]) == 3


def test_stats_doc_type_with_no_bundle_of_that_type(tmp_path, monkeypatch, capsys):
    root = tmp_path / "c"
    _write(root, random_document(random.Random(1), "discharge_summary/d0"))
    tracker = _Liveness({"A": f"{root}/"})
    monkeypatch.setattr(annio, "load_document", tracker)
    for report in ("pos", "syn", "entity", "relation", "length"):
        argv = ["stats", "--doc-type", "progress_note", str(root), "--report", report]
        assert main(argv) == 2, report
        assert capsys.readouterr() == (
            "", f"error: no progress_note bundles under {root}\n"
        ), report
    assert tracker.refs["A"] == []
