"""Readers and writers for the corpus file formats.

A document bundle is a set of sibling files sharing one stem:

    <doc>.txt   UTF-8 text; all offsets count Unicode code points into it
    <doc>.tok   one token per line: start TAB end TAB surface [TAB pos],
                absolute offsets, blank line between sentences
    <doc>.ptb   one bracketed constituency tree per line
    <doc>.chk   one chunk per line: first TAB last_exclusive TAB label
                (token indices), blank line terminating each sentence block
    <doc>.ann   standoff entity layer: T/A/G/R lines

Only a line feed ends a line, and one carriage return at the end of a line
is dropped, so CRLF files read like LF files.  Lines starting with '#' are
comments everywhere.  Serializers produce a canonical form: entity lines
sorted by span, assertion ids renumbered in entity order, group and relation
lines sorted by their resolved spans, so serialize(parse(serialize(x))) is
byte-identical to serialize(x).
"""
from __future__ import annotations

import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterator

from .corpusdir import bundle_stems, walk
from .errors import (
    InputError,
    ParseError,
    ResolutionError,
    numbered_lines,
    read_text_file,
)
from .groups import endpoint_entities
from .model import (
    DOC_TYPES,
    Chunk,
    DocAnnotations,
    Document,
    Entity,
    EntityGroup,
    Relation,
    Sentence,
    Token,
)
from .record import Record
from .tagsets import (
    POS_TAG_SET,
    parse_assertion_type,
    parse_entity_type,
    parse_relation_type,
)

if TYPE_CHECKING:  # parse_ptb and serialize_ptb import parseval when they run
    from .parseval import ParseTree

# The optional layer files; the .txt file roots every bundle and is always read.
LAYER_FILES = ("tok", "ptb", "chk", "ann")

# First line of every serialized layer file; parsers skip all '#' lines, so
# an empty layer serializes to the header alone.
HEADERS = {
    "tok": "# tokens: start\tend\tsurface[\tpos]; blank line between sentences",
    "ptb": "# trees: one bracketed constituency tree per line",
    "chk": "# chunks: first\tlast_exclusive\tlabel; blank line ends each sentence",
    "ann": "# standoff: T entity / A assertion / G group / R relation lines",
}


# The first characters a comment or blank line can start with: '#', each
# character str.strip() removes, and "" for an empty line.  Any other first
# character makes a data line, so one set lookup settles most lines and only
# the rest are tested with _is_comment and str.strip().
_MAY_SKIP = frozenset([
    "", "#", *"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000",
])


def _is_comment(line: str) -> bool:
    return line.lstrip().startswith("#")


# ---------------------------------------------------------------- tokens ---

def parse_tok(content: str, *, path: str | None = None) -> list[Sentence]:
    """Parse a token file.  File offsets are document-absolute; each sentence
    is anchored at its first token and stores sentence-relative spans.
    Unknown part-of-speech labels and non-monotonic spans are format errors
    and raise with the line number."""
    sentences: list[Sentence] = []
    block: list[Token] = []
    sent_start = prev_end = 0
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP:
            if _is_comment(line):
                continue
            if not line.strip():
                if block:
                    sentences.append(Sentence(sent_start, tuple(block)))
                    block = []
                continue
        fields = line.split("\t")
        if len(fields) == 3:
            start_field, end_field, surface = fields
            pos = None
        elif len(fields) == 4:
            start_field, end_field, surface, pos = fields
        else:
            raise ParseError(
                f"expected 3 or 4 tab-separated fields, got {len(fields)}",
                path=path, line=lineno,
            )
        try:
            start, end = int(start_field), int(end_field)
        except ValueError:
            raise ParseError("offsets must be integers", path=path, line=lineno) from None
        if end <= start:
            raise ParseError(f"empty or inverted span [{start}, {end})", path=path, line=lineno)
        if start < prev_end:
            raise ParseError(
                f"non-monotonic span: [{start}, {end}) starts before "
                f"the previous token ends at {prev_end}", path=path, line=lineno,
            )
        prev_end = end
        if not surface:
            raise ParseError("empty surface", path=path, line=lineno)
        if pos is not None and pos not in POS_TAG_SET:
            raise ParseError(f"unknown-pos-label {pos!r}", path=path, line=lineno)
        if not block:
            sent_start = start
        block.append(Token(start - sent_start, end - sent_start, surface, pos))
    if block:
        sentences.append(Sentence(sent_start, tuple(block)))
    return sentences


def serialize_tok(sentences: list[Sentence]) -> str:
    blocks: list[str] = []
    for sent in sentences:
        lines = []
        for tok in sent.tokens:
            if any(c in tok.surface for c in "\t\n\r"):
                raise InputError(
                    f"token surface {tok.surface!r} cannot be written to the "
                    "tab-separated token format"
                )
            s, e = sent.abs_span(tok)
            fields = [str(s), str(e), tok.surface]
            if tok.pos is not None:
                fields.append(tok.pos)
            lines.append("\t".join(fields))
        blocks.append("\n".join(lines))
    return HEADERS["tok"] + "\n" + ("\n\n".join(blocks) + "\n" if blocks else "")


# ----------------------------------------------------------------- trees ---

def parse_ptb(content: str, *, path: str | None = None) -> list[ParseTree]:
    from .parseval import parse_tree

    trees: list[ParseTree] = []
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP and (_is_comment(line) or not line.strip()):
            continue
        trees.append(parse_tree(line, path=path, line=lineno))
    return trees


def serialize_ptb(trees: list[ParseTree]) -> str:
    from .parseval import LEAF_BREAK_RE

    for tree in trees:
        for _, surface in tree.leaves():
            if not surface or LEAF_BREAK_RE.search(surface):
                raise InputError(
                    f"leaf surface {surface!r} cannot be written to the "
                    "bracketed tree format"
                )
    return HEADERS["ptb"] + "\n" + "".join(t.to_string() + "\n" for t in trees)


# ---------------------------------------------------------------- chunks ---

def parse_chk(content: str, *, path: str | None = None) -> list[list[Chunk]]:
    """Parse a chunk file.  A blank line terminates each sentence block, so a
    sentence without chunks appears as a bare blank line.  A missing final
    terminator is tolerated."""
    blocks: list[list[Chunk]] = []
    block: list[Chunk] = []
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP:
            if _is_comment(line):
                continue
            if not line.strip():
                blocks.append(block)
                block = []
                continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(fields)}",
                path=path, line=lineno,
            )
        first_field, last_field, label = fields
        try:
            first, last = int(first_field), int(last_field)
        except ValueError:
            raise ParseError("token indices must be integers", path=path, line=lineno) from None
        if last <= first or first < 0:
            raise ParseError(f"bad token range [{first}, {last})", path=path, line=lineno)
        if not label:
            raise ParseError("empty chunk label", path=path, line=lineno)
        block.append(Chunk(first, last, label))
    if block:
        blocks.append(block)
    return blocks


def serialize_chk(blocks: list[list[Chunk]]) -> str:
    out: list[str] = [HEADERS["chk"] + "\n"]
    for block in blocks:
        for ch in block:
            out.append(f"{ch.first}\t{ch.last_exclusive}\t{ch.label}\n")
        out.append("\n")
    return "".join(out)


# -------------------------------------------------------------- entities ---

_T_RE = re.compile(r"^(T\d+)\t(\S+) (\d+) (\d+)\t(.*)$")
_A_RE = re.compile(r"^(A\d+)\t(\S+) (T\d+)$")
_G_RE = re.compile(r"^(G\d+)\t(\S+)((?: T\d+)+)$")
_R_RE = re.compile(r"^(R\d+)\t(\S+) Arg1:([TG]\d+) Arg2:([TG]\d+)$")


def parse_ann(
    content: str, *, doc_id: str = "", text: str = "", path: str | None = None
) -> DocAnnotations:
    """Parse a standoff entity file.  Structural problems (bad syntax, unknown
    labels, duplicate ids, assertion lines pointing nowhere) raise ParseError;
    semantic problems on well-formed data are left to the validator."""
    ann = DocAnnotations(doc_id=doc_id, text=text)
    assertions: list[tuple[int, str, str, str]] = []  # (line, aid, label, target)
    ref_lines: dict[str, int] = {}  # group/relation id -> source line
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP and (_is_comment(line) or not line.strip()):
            continue
        kind = line[0]
        if kind == "T":
            m = _T_RE.match(line)
            if not m:
                raise ParseError("malformed entity line", path=path, line=lineno)
            tid, label, start, end, surface = m.groups()
            etype = parse_entity_type(label)
            if etype is None:
                raise ParseError(f"unknown entity type {label!r}", path=path, line=lineno)
            if tid in ann.entities:
                raise ParseError(f"duplicate entity id {tid}", path=path, line=lineno)
            ann.entities[tid] = Entity(tid, etype, int(start), int(end), surface)
        elif kind == "A":
            m = _A_RE.match(line)
            if not m:
                raise ParseError("malformed assertion line", path=path, line=lineno)
            aid, label, target = m.groups()
            if parse_assertion_type(label) is None:
                raise ParseError(f"unknown assertion type {label!r}", path=path, line=lineno)
            assertions.append((lineno, aid, label, target))
        elif kind == "G":
            m = _G_RE.match(line)
            if not m:
                raise ParseError("malformed group line", path=path, line=lineno)
            gid, label, members = m.groups()
            etype = parse_entity_type(label)
            if etype is None:
                raise ParseError(f"unknown entity type {label!r}", path=path, line=lineno)
            if gid in ann.groups:
                raise ParseError(f"duplicate group id {gid}", path=path, line=lineno)
            ann.groups[gid] = EntityGroup(
                gid=gid, etype=etype, members=tuple(members.split())
            )
            ref_lines[gid] = lineno
        elif kind == "R":
            m = _R_RE.match(line)
            if not m:
                raise ParseError("malformed relation line", path=path, line=lineno)
            rid, label, arg1, arg2 = m.groups()
            rtype = parse_relation_type(label)
            if rtype is None:
                raise ParseError(f"unknown relation type {label!r}", path=path, line=lineno)
            if rid in ann.relations:
                raise ParseError(f"duplicate relation id {rid}", path=path, line=lineno)
            ann.relations[rid] = Relation(rid=rid, rtype=rtype, arg1=arg1, arg2=arg2)
            ref_lines[rid] = lineno
        else:
            raise ParseError(
                f"unknown annotation line kind {kind!r}", path=path, line=lineno
            )
    seen_targets: set[str] = set()
    for lineno, aid, label, target in assertions:
        if target not in ann.entities:
            raise ParseError(
                f"assertion {aid} refers to missing entity {target}",
                path=path, line=lineno,
            )
        if target in seen_targets:
            raise ParseError(
                f"entity {target} carries more than one assertion",
                path=path, line=lineno,
            )
        seen_targets.add(target)
        old = ann.entities[target]
        ann.entities[target] = Entity(
            old.eid, old.etype, old.start, old.end, old.surface, parse_assertion_type(label)
        )
    for g in ann.groups.values():
        for m in g.members:
            if m not in ann.entities:
                raise ParseError(
                    f"dangling-reference {m} in group {g.gid}",
                    path=path, line=ref_lines[g.gid],
                )
    for r in ann.relations.values():
        for ref in (r.arg1, r.arg2):
            if ref not in ann.entities and ref not in ann.groups:
                raise ParseError(
                    f"dangling-reference {ref} in relation {r.rid}",
                    path=path, line=ref_lines[r.rid],
                )
    return ann


def _id_num(ref: str) -> tuple[int, str]:
    """Sort key for annotation ids: numeric part when present, else the raw
    string after all numbered ids."""
    m = re.fullmatch(r"[TAGR](\d+)", ref)
    if m:
        return (int(m.group(1)), "")
    return (1 << 62, ref)


def _entity_sort_key(e: Entity) -> tuple:
    return (e.start, e.end, _id_num(e.eid))


def _resolved_span(ann: DocAnnotations, ref: str) -> tuple:
    """Span-based sort key for a T or G reference; dangling refs sort last."""
    try:
        spans = tuple(sorted(e.span for e in endpoint_entities(ann, ref)))
    except ResolutionError:
        spans = ()
    return spans or ((1 << 62, 1 << 62),)


def serialize_ann(ann: DocAnnotations) -> str:
    lines: list[str] = [HEADERS["ann"]]
    entities = sorted(ann.entities.values(), key=_entity_sort_key)
    for e in entities:
        if any(c in e.surface for c in "\t\n\r"):
            raise InputError(
                f"entity surface {e.surface!r} cannot be written to the "
                "standoff format"
            )
        lines.append(f"{e.eid}\t{e.etype.value} {e.start} {e.end}\t{e.surface}")
    next_a = 1
    for e in entities:
        if e.assertion is not None:
            lines.append(f"A{next_a}\t{e.assertion.value} {e.eid}")
            next_a += 1
    for g in sorted(
        ann.groups.values(), key=lambda g: (_resolved_span(ann, g.gid), _id_num(g.gid))
    ):
        lines.append(f"{g.gid}\t{g.etype.value}" + "".join(f" {m}" for m in g.members))
    for r in sorted(
        ann.relations.values(),
        key=lambda r: (
            _resolved_span(ann, r.arg1),
            _resolved_span(ann, r.arg2),
            r.rtype.value,
            _id_num(r.rid),
        ),
    ):
        lines.append(f"{r.rid}\t{r.rtype.value} Arg1:{r.arg1} Arg2:{r.arg2}")
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------- bundles ---

class BundlePaths(Record):
    """Filesystem locations of one document's layer files, each the string
    str(Path(root) / relative_path) gives."""

    __slots__ = ("doc_id", "txt", "tok", "ptb", "chk", "ann", "doc_type")
    __hash__ = None

    def __init__(
        self,
        doc_id: str,
        txt: str,
        tok: str | None = None,
        ptb: str | None = None,
        chk: str | None = None,
        ann: str | None = None,
        doc_type: str | None = None,
    ):
        self.doc_id = doc_id
        self.txt = txt
        self.tok = tok
        self.ptb = ptb
        self.chk = chk
        self.ann = ann
        self.doc_type = doc_type


def discover(root: str | Path) -> dict[str, BundlePaths]:
    """Find document bundles under a directory tree, keyed by doc id in
    ascending order.  Every entry corpusdir.bundle_stems names roots a
    bundle; sibling files with the same stem fill in the layers.  A parent
    directory named after a known document type tags the bundle.

    The tree is listed as corpusdir.walk lists it, and a sibling is looked up
    in its directory's listing; only a symlinked sibling is stat'ed, so a
    broken link counts as absent."""
    bundles: dict[str, BundlePaths] = {}
    for prefix, rel, dir_name, names, links in walk(root):
        doc_type = dir_name if dir_name in DOC_TYPES else None
        present = set(names)
        for name, stem in bundle_stems(names):
            layer_paths = []
            for layer in LAYER_FILES:
                sib = f"{stem}.{layer}"
                if sib in present and (sib not in links or os.path.exists(prefix + sib)):
                    layer_paths.append(prefix + sib)
                else:
                    layer_paths.append(None)
            bundles[rel + stem] = BundlePaths(
                rel + stem, prefix + name, *layer_paths, doc_type=doc_type
            )
    return {doc_id: bundles[doc_id] for doc_id in sorted(bundles)}


def load_document(
    paths: BundlePaths, layers: Collection[str] = LAYER_FILES
) -> Document:
    """Read a bundle's .txt file and those of `layers` that are present into a
    Document.  A layer left out stays empty: no sentences, trees or chunks,
    no annotations.

    When both are loaded, tree and token layers must agree sentence-for-
    sentence on leaf counts; a mismatch means the files describe different
    segmentations and is a format error, not a validation finding.
    """
    unknown = set(layers) - set(LAYER_FILES)
    if unknown:
        raise ValueError(f"unknown layers {sorted(unknown)}; expected some of {LAYER_FILES}")
    tok, ptb, chk, ann = (
        getattr(paths, layer) if layer in layers else None for layer in LAYER_FILES
    )
    text = read_text_file(paths.txt)
    doc = Document(doc_id=paths.doc_id, text=text, doc_type=paths.doc_type)
    if tok is not None:
        doc.sentences = parse_tok(read_text_file(tok), path=tok)
    if ptb is not None:
        doc.trees = parse_ptb(read_text_file(ptb), path=ptb)
    if chk is not None:
        doc.chunks = parse_chk(read_text_file(chk), path=chk)
    if doc.trees and doc.sentences:
        if len(doc.trees) != len(doc.sentences):
            raise ParseError(
                f"{len(doc.trees)} trees for {len(doc.sentences)} sentences",
                path=ptb,
            )
        for i, (tree, sent) in enumerate(zip(doc.trees, doc.sentences)):
            n_leaves = tree.leaf_count()
            if n_leaves != len(sent.tokens):
                raise ParseError(
                    f"sentence {i}: tree has {n_leaves} leaves but the token "
                    f"layer has {len(sent.tokens)} tokens", path=ptb,
                )
    if ann is not None:
        doc.annotations = parse_ann(
            read_text_file(ann), doc_id=paths.doc_id, text=text, path=ann,
        )
    return doc


def iter_documents(
    corpus: str | Path | dict[str, BundlePaths],
    layers: Collection[str] = LAYER_FILES,
) -> Iterator[Document]:
    """Every bundle of `corpus`, read as load_document does, one at a time in
    listing order, which is ascending doc-id order.  `corpus` is a directory,
    listed with discover on the call, or a listing discover returned.
    Nothing is parsed before the first document is asked for, and no
    document is kept once the next one is read."""
    bundles = corpus if isinstance(corpus, dict) else discover(corpus)
    return (load_document(paths, layers) for paths in bundles.values())


def iter_pairs(
    bundles_a: dict[str, BundlePaths], bundles_b: dict[str, BundlePaths],
    layers: Collection[str] = LAYER_FILES,
) -> Iterator[tuple[Document | None, Document | None]]:
    """Two discover listings paired by doc id: (doc_a, doc_b) for every id of
    either, in ascending order, read as load_document does, with None for a
    side that lacks the id.  A's document is read before B's, so the first
    malformed file raised is the one with the smallest id, A before B.  No
    pair is kept once the next one is read."""
    for doc_id in sorted(bundles_a.keys() | bundles_b.keys()):
        paths_a, paths_b = bundles_a.get(doc_id), bundles_b.get(doc_id)
        yield (
            None if paths_a is None else load_document(paths_a, layers),
            None if paths_b is None else load_document(paths_b, layers),
        )


def load_corpus(
    root: str | Path, layers: Collection[str] = LAYER_FILES
) -> dict[str, Document]:
    """Every bundle under `root`, keyed by doc id in ascending order, all held
    in memory at once; iter_documents reads the same documents one at a time."""
    return {doc.doc_id: doc for doc in iter_documents(root, layers)}
