"""Relations between commands, checked on drawn corpus pairs.

Each pair is written through the serializers, with one-sided documents,
documents whose layers differ between the sides (exclusions among them) and
missing layer files, and each command runs through cli.main in-process:
once in one slice, and once in three, with fanout.MIN_SLICE_DOCS set to 1
and three CPUs in the affinity mask.  The three-slice run must print what
the one-slice run prints, and each relation must hold in both:
- `iaa A B` against `iaa B A`: count_a/count_b and precision/recall swap,
  every other byte is equal, and so are the exit code and the excluded-
  document lines;
- `score A B` prints exactly what `iaa A B` prints;
- `iaa --layer L A A` gives agreed == count_a == count_b and exit 0, for
  every layer;
- for every `stats` report, the whole corpus's counts are the sums of the
  two `--doc-type` runs' counts, a refused selection counting as zero;
- `validate --keep-going` finds no `parse-error` in a corpus written
  through the serializers.

Where a command exits 2, it must print one of the refusals documented for
such a corpus, so an error from anything else fails the relation.
"""
from __future__ import annotations

import io
import json
import os
import random
import re
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from clincorp import fanout
from clincorp.agreement import LAYER_FILE
from clincorp.cli import main
from clincorp.model import DOC_TYPES, Document
from clincorp.numfmt import fmt_metric
from clincorp.stats import REPORTS
from clincorp.tagsets import LAYERS
from helpers import (
    random_annotations,
    random_chunks,
    random_document,
    random_tree_over,
    write_bundle,
)

LAYER_FILES = ("tok", "ptb", "chk", "ann")
POLICIES = ("span", "span_type", "span_type_assertion")


@st.composite
def corpus_pairs(draw):
    """(seed, sides, kinds, drops) for 3 to 6 documents: the side each is
    on (at least one on both), how B's copy of a shared one differs, and the
    layer file, if any, each side of it lacks."""
    n = draw(st.integers(3, 6))
    sides = draw(st.lists(st.sampled_from(("both", "a", "b")), min_size=n, max_size=n)
                 .filter(lambda sides: "both" in sides))
    kinds = draw(st.lists(st.sampled_from(("same", "reannotated", "other")),
                          min_size=n, max_size=n))
    drops = draw(st.lists(st.sampled_from((None, *LAYER_FILES)), min_size=2 * n, max_size=2 * n))
    return draw(st.integers(0, 2 ** 32 - 1)), sides, kinds, drops


def _reannotated(rng: random.Random, doc: Document) -> Document:
    """`doc`'s text and tokens with new trees, chunks and entities."""
    return Document(
        doc_id=doc.doc_id, text=doc.text, sentences=doc.sentences,
        chunks=[random_chunks(rng, len(s.tokens)) for s in doc.sentences],
        trees=[random_tree_over(rng, [(t.pos or "NN", t.surface) for t in s.tokens])
               for s in doc.sentences],
        annotations=random_annotations(rng, doc.doc_id, doc.text, doc.sentences),
    )


def _write_pair(root: Path, pair) -> tuple[Path, Path]:
    seed, sides, kinds, drops = pair
    rng = random.Random(seed)
    a, b = root / "A", root / "B"
    for i, (side, kind) in enumerate(zip(sides, kinds)):
        doc = random_document(rng, f"d{i}")
        other = {"same": doc, "reannotated": _reannotated(rng, doc),
                 "other": random_document(rng, f"d{i}")}[kind]
        for directory, written, drop in ((a, doc, drops[2 * i]), (b, other, drops[2 * i + 1])):
            if side in ("both", directory.name.lower()):
                stem = write_bundle(directory, written)
                if drop is not None:
                    stem.with_suffix(f".{drop}").unlink(missing_ok=True)
    return a, b


def _run(argv: list, slices: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `argv`, its documents cut into
    `slices` slices: 1, or 3 when there are at least three."""
    with mock.patch.object(fanout, "MIN_SLICE_DOCS", 1 if slices == 3 else 10 ** 9), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2}, create=True), \
            redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        assert fanout.slice_count(3) == slices
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def _in_both_slicings(argv: list) -> tuple[int, str, str]:
    result = _run(argv, 1)
    assert _run(argv, 3) == result, argv
    return result


SWAPS = {"count_a": "count_b", "count_b": "count_a", "precision": "recall", "recall": "precision"}
MEMBER = re.compile(r'^  "(\w+)": (.*?)(,?)$', re.M)


def _swapped(report: str) -> str:
    """An agreement report with count_a/count_b and precision/recall swapped."""
    values = {m[1]: m[2] for m in MEMBER.finditer(report)}
    return MEMBER.sub(lambda m: f'  "{m[1]}": {values[SWAPS.get(m[1], m[1])]}{m[3]}', report)


def _excluded(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("excluded ")]


def _refused_only_as_documented(result: tuple[int, str, str], a, b, layer: str) -> None:
    """`iaa`/`score --layer layer a b` exits 2 only with one of the refusals
    documented for a pair that shares an id."""
    code, out, err = result
    if code == 2:
        ext = LAYER_FILE[layer]
        assert (out, err) in {
            ("", f"error: no .{ext} file under {a} or {b}\n"),
            ("", f"error: no document id under both {a} and {b} "
                 f"has its .{ext} file on both sides\n"),
        }, err


@settings(max_examples=20, deadline=None)
@given(corpus_pairs(), st.sampled_from(LAYERS), st.sampled_from(POLICIES))
def test_swapping_the_directories_swaps_the_report(pair, layer, policy):
    with tempfile.TemporaryDirectory() as root:
        a, b = _write_pair(Path(root), pair)
        flags = ["iaa", "--layer", layer, "--policy", policy]
        code, out, err = _in_both_slicings([*flags, a, b])
        back = _in_both_slicings([*flags, b, a])
        _refused_only_as_documented((code, out, err), a, b, layer)
        assert (back[0], back[1], _excluded(back[2])) == (code, _swapped(out), _excluded(err))
        if out:
            # B is the response: precision is over B's count.
            report = json.loads(out)
            if not report["vacuous"] and report["count_b"]:
                want = float(fmt_metric(report["agreed"] / report["count_b"]))
                assert report["precision"] == want


@settings(max_examples=12, deadline=None)
@given(corpus_pairs(), st.sampled_from(LAYERS))
def test_score_prints_what_iaa_prints(pair, layer):
    with tempfile.TemporaryDirectory() as root:
        a, b = _write_pair(Path(root), pair)
        result = _in_both_slicings(["score", "--layer", layer, a, b])
        _refused_only_as_documented(result, a, b, layer)
        assert result == _in_both_slicings(["iaa", "--layer", layer, a, b])


@settings(max_examples=8, deadline=None)
@given(corpus_pairs())
def test_a_corpus_agrees_with_itself_on_every_layer(pair):
    seed, sides, kinds, drops = pair
    # A alone, every document on it, the first with every layer file.
    pair = seed, ["a"] * len(sides), kinds, [None, None, *drops[2:]]
    with tempfile.TemporaryDirectory() as root:
        a, _ = _write_pair(Path(root), pair)
        for layer in LAYERS:
            code, out, err = _in_both_slicings(["iaa", "--layer", layer, a, a])
            report = json.loads(out)
            assert (code, err) == (0, ""), layer
            assert report["agreed"] == report["count_a"] == report["count_b"], layer


def _write_typed(root: Path, pair) -> Path:
    """`pair`'s A-side documents less their dropped files, each in a doc-type
    directory: progress_note for those `pair` puts on B only."""
    seed, sides, _, drops = pair
    rng = random.Random(seed)
    for i, side in enumerate(sides):
        doc = random_document(rng, f"d{i}")
        stem = write_bundle(root, doc, subdir=DOC_TYPES[side == "b"])
        if drops[i] is not None:
            stem.with_suffix(f".{drops[i]}").unlink()
    return root


def _stats_counts(argv: list, ext: str, where: str) -> Counter:
    """The nonzero counts `stats` prints, by row label: none when it refuses
    the selection as holding nothing to count."""
    code, out, err = _in_both_slicings(argv)
    if code == 2:
        assert out == "" and re.fullmatch(
            rf"error: (no \.{ext} file {re.escape(where)}|no \w+ bundles under \S+"
            r"|corpus has no \w+ annotations|corpus has no sentences)\n", err), err
        return Counter()
    assert (code, err) == (0, "")
    rows = (line.split("\t") for line in out.splitlines())
    return Counter({row[0]: int(row[1]) for row in rows if row[1].isdigit() and row[1] != "0"})


@settings(max_examples=4, deadline=None)
@given(corpus_pairs())
def test_stats_of_a_corpus_are_the_sums_over_its_doc_types(pair):
    with tempfile.TemporaryDirectory() as root:
        a = _write_typed(Path(root), pair)
        for report, (ext, *_) in REPORTS.items():
            whole = _stats_counts(["stats", "--report", report, a], ext, f"under {a}")
            parts = Counter()
            for doc_type in DOC_TYPES:
                parts += _stats_counts(
                    ["stats", "--report", report, "--doc-type", doc_type, a], ext,
                    f"in the {doc_type} bundles under {a}")
            assert whole == parts, report


@settings(max_examples=8, deadline=None)
@given(corpus_pairs())
def test_validate_finds_no_parse_error_in_a_corpus_the_serializers_wrote(pair):
    with tempfile.TemporaryDirectory() as root:
        for directory in _write_pair(Path(root), pair):
            code, out, err = _in_both_slicings(["validate", "--keep-going", directory])
            assert ": parse-error" not in out
            assert code in (0, 1) and err.endswith(" document(s)\n"), err
