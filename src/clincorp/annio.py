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
lines sorted by their resolved spans.  Each serializer reads back what it
wrote, so the parsers are the one statement of each format's rules.
"""
from __future__ import annotations

import os
import re
from functools import partial, wraps
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Collection, Iterator

from .corpusdir import bundle_stems, walk
from .errors import (
    InputError,
    ParseError,
    is_comment_line,
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
    AssertionType,
    parse_assertion_type,
    parse_entity_type,
    parse_relation_type,
)

if TYPE_CHECKING:  # parse_ptb imports parseval when it runs
    from .parseval import ParseTree

# The optional layer files of a bundle, and every file a bundle can have.  The
# .txt file roots the bundle but, like a layer file, is read only when the
# caller of load_document names it; the default, BUNDLE_FILES, names all five.
LAYER_FILES = ("tok", "ptb", "chk", "ann")
BUNDLE_FILES = ("txt",) + LAYER_FILES

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
# the rest are tested with is_comment_line and str.strip().
_MAY_SKIP = frozenset([
    "", "#", *"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000",
])


def _reads_back(parse, fmt: str):
    """Decorate serialize(value) -> text to raise InputError unless `parse`
    reads the text and serialize writes what it read as the same bytes."""
    def decorate(serialize):
        @wraps(serialize)
        def checked(value):
            text = serialize(value)
            try:
                if serialize(parse(text)) == text:
                    return text
                reason = "it reads back as a value written differently"
            except ParseError as exc:
                reason = f"the reader refuses it: {exc}"
            raise InputError(f"this value cannot be written to the {fmt} format: {reason}")
        return checked
    return decorate


def _field(value: str, what: str, fmt: str) -> str:
    """`value`, one field of a tab-separated line: a tab or line feed would
    write other fields or lines, and docs/FORMATS.md forbids a CR as well."""
    if "\t" in value or "\n" in value or "\r" in value:
        raise InputError(f"{what} {value!r} cannot be written to the {fmt} format")
    return value


# ---------------------------------------------------------------- tokens ---

def parse_tok(content: str, *, path: str | None = None) -> list[Sentence]:
    """Parse a token file.  File offsets are document-absolute; each sentence
    is anchored at its first token and stores sentence-relative spans.
    Unknown part-of-speech labels and non-monotonic spans are format errors
    and raise with the line number."""
    sentences: list[Sentence] = []
    block: list[Token] = []
    sent_start = prev_end = 0
    new = object.__new__  # records are built by slot stores (see record.py)
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP:
            if is_comment_line(line):
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
        token = new(Token)
        token.start = start - sent_start
        token.end = end - sent_start
        token.surface = surface
        token.pos = pos
        block.append(token)
    if block:
        sentences.append(Sentence(sent_start, tuple(block)))
    return sentences


@_reads_back(parse_tok, "token")
def serialize_tok(sentences: list[Sentence]) -> str:
    blocks: list[str] = []
    for sent in sentences:
        if sent.tokens and sent.tokens[0].start != 0:
            # The reader anchors a sentence at its first token: this one
            # would read back with another start and shifted token spans.
            raise InputError(
                f"a sentence whose first token starts at {sent.tokens[0].start}, "
                "not 0, cannot be written to the token format"
            )
        lines = []
        for tok in sent.tokens:
            s, e = sent.abs_span(tok)
            fields = [str(s), str(e), _field(tok.surface, "token surface", "token")]
            if tok.pos is not None:
                fields.append(_field(tok.pos, "part-of-speech label", "token"))
            lines.append("\t".join(fields))
        blocks.append("\n".join(lines))
    return HEADERS["tok"] + "\n" + ("\n\n".join(blocks) + "\n" if blocks else "")


# ----------------------------------------------------------------- trees ---

def parse_ptb(content: str, *, path: str | None = None) -> list[ParseTree]:
    from .parseval import parse_tree

    trees: list[ParseTree] = []
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP and (is_comment_line(line) or not line.strip()):
            continue
        trees.append(parse_tree(line, path=path, line=lineno))
    return trees


@_reads_back(parse_ptb, "bracketed tree")
def serialize_ptb(trees: list[ParseTree]) -> str:
    text = HEADERS["ptb"] + "\n" + "".join(t.to_string() + "\n" for t in trees)
    # Each node writes one "(".  More, from a label such as "NN a) (VP", can
    # read back as other nodes that are written to the same bytes.
    if text.count("(") != sum(len(t.nodes()) for t in trees):
        raise InputError("a bracketed tree label or surface cannot hold a bracket")
    return text


# ---------------------------------------------------------------- chunks ---

def parse_chk(content: str, *, path: str | None = None) -> list[list[Chunk]]:
    """Parse a chunk file.  A blank line terminates each sentence block, so a
    sentence without chunks appears as a bare blank line.  A missing final
    terminator is tolerated."""
    blocks: list[list[Chunk]] = []
    block: list[Chunk] = []
    new = object.__new__  # records are built by slot stores (see record.py)
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP:
            if is_comment_line(line):
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
        chunk = new(Chunk)
        chunk.first = first
        chunk.last_exclusive = last
        chunk.label = label
        block.append(chunk)
    if block:
        blocks.append(block)
    return blocks


@_reads_back(parse_chk, "chunk")
def serialize_chk(blocks: list[list[Chunk]]) -> str:
    out: list[str] = [HEADERS["chk"] + "\n"]
    for block in blocks:
        for ch in block:
            label = _field(ch.label, "chunk label", "chunk")
            out.append(f"{ch.first}\t{ch.last_exclusive}\t{label}\n")
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
    assertions: list[tuple[int, str, AssertionType, str]] = []  # (line, aid, type, target)
    ref_lines: dict[str, int] = {}  # group/relation id -> source line
    new = object.__new__  # entities are built by slot stores (see record.py)
    for lineno, line in numbered_lines(content):
        if line[:1] in _MAY_SKIP and (is_comment_line(line) or not line.strip()):
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
            entity = new(Entity)
            entity.eid = tid
            entity.etype = etype
            entity.start = int(start)
            entity.end = int(end)
            entity.surface = surface
            entity.assertion = None
            ann.entities[tid] = entity
        elif kind == "A":
            m = _A_RE.match(line)
            if not m:
                raise ParseError("malformed assertion line", path=path, line=lineno)
            aid, label, target = m.groups()
            assertion = parse_assertion_type(label)
            if assertion is None:
                raise ParseError(f"unknown assertion type {label!r}", path=path, line=lineno)
            assertions.append((lineno, aid, assertion, target))
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
    for lineno, aid, assertion, target in assertions:
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
        # The entity was built above and nothing else holds it yet.
        ann.entities[target].assertion = assertion
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


_ID_RE = re.compile(r"[TGR]\d+")


def _id_num(ref: str, kinds: str) -> int:
    """The number of an id or reference to be written, its sort key.  It
    must be one of the letters `kinds` followed by digits, the only ids
    parse_ann reads: a group member "T1 T2" would read back as two."""
    if _ID_RE.fullmatch(ref) is None or ref[0] not in kinds:
        raise InputError(
            f"id {ref!r} cannot be written to the standoff format: expected "
            f"{' or '.join(kinds)} followed by digits"
        )
    return int(ref[1:])


def _resolved_span(ann: DocAnnotations, ref: str) -> tuple:
    """Span-based sort key for a T or G reference; ResolutionError if it names nothing."""
    return tuple(sorted(e.span for e in endpoint_entities(ann, ref)))


def _own_ids(records: dict, id_of):
    """The values of `records`, each of which must be keyed by its own id:
    the text holds only the ids, so a reference that resolves through a
    different key would read back naming another record."""
    for key, record in records.items():
        if key != id_of(record):
            raise InputError(
                f"a record keyed {key!r} with the id {id_of(record)!r} cannot be "
                "written to the standoff format"
            )
    return records.values()


@_reads_back(parse_ann, "standoff")
def serialize_ann(ann: DocAnnotations) -> str:
    lines: list[str] = [HEADERS["ann"]]
    entities = sorted(
        _own_ids(ann.entities, attrgetter("eid")),
        key=lambda e: (e.start, e.end, _id_num(e.eid, "T")),
    )
    for e in entities:
        surface = _field(e.surface, "entity surface", "standoff")
        lines.append(f"{e.eid}\t{e.etype.value} {e.start} {e.end}\t{surface}")
    next_a = 1
    for e in entities:
        if e.assertion is not None:
            lines.append(f"A{next_a}\t{e.assertion.value} {e.eid}")
            next_a += 1
    for g in sorted(
        _own_ids(ann.groups, attrgetter("gid")),
        key=lambda g: (_resolved_span(ann, g.gid), _id_num(g.gid, "G")),
    ):
        for m in g.members:
            _id_num(m, "T")
        lines.append(f"{g.gid}\t{g.etype.value}" + "".join(f" {m}" for m in g.members))
    for r in sorted(
        _own_ids(ann.relations, attrgetter("rid")),
        key=lambda r: (
            _resolved_span(ann, r.arg1),
            _resolved_span(ann, r.arg2),
            r.rtype.value,
            _id_num(r.rid, "R"),
        ),
    ):
        _id_num(r.arg1, "TG")
        _id_num(r.arg2, "TG")
        lines.append(f"{r.rid}\t{r.rtype.value} Arg1:{r.arg1} Arg2:{r.arg2}")
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------- bundles ---

# Bit i of BundlePaths.mask marks LAYER_FILES[i] present.
_LAYER_BITS = {layer: 1 << i for i, layer in enumerate(LAYER_FILES)}


class BundlePaths(Record):
    """Filesystem locations of one document's layer files, each the string
    str(Path(root) / relative_path) gives, or None for an absent layer.

    A bundle keeps only what the directory walk saw: `prefix`, its
    directory's path with a trailing slash or empty (one string shared by
    the directory's bundles), `name`, the .txt entry, and `mask`, with bit i
    set when LAYER_FILES[i] is present.  The path properties build their
    string on each access.  Equality and repr use doc_id, the five paths and
    doc_type."""

    __slots__ = ("doc_id", "prefix", "name", "mask", "doc_type")
    _fields = ("doc_id", "txt", "tok", "ptb", "chk", "ann", "doc_type")
    __hash__ = None

    def __init__(
        self, doc_id: str, prefix: str, name: str, mask: int = 0,
        doc_type: str | None = None,
    ):
        self.doc_id = doc_id
        self.prefix = prefix
        self.name = name
        self.mask = mask
        self.doc_type = doc_type

    @property
    def txt(self) -> str:
        return self.prefix + self.name

    def _layer(self, layer: str) -> str | None:
        if not self.mask & _LAYER_BITS[layer]:
            return None
        # The sibling's stem is the one corpusdir.bundle_stems gives.
        return f"{self.prefix}{self.name[:-4] or self.name}.{layer}"

    tok = property(lambda self: self._layer("tok"))
    ptb = property(lambda self: self._layer("ptb"))
    chk = property(lambda self: self._layer("chk"))
    ann = property(lambda self: self._layer("ann"))


def discover(root: str | Path) -> dict[str, BundlePaths]:
    """Find document bundles under a directory tree, keyed by doc id in
    ascending order.  Every entry corpusdir.bundle_stems names roots a
    bundle; sibling entries with the same stem fill in the layers.  A parent
    directory named after a known document type tags the bundle.

    The tree is listed as corpusdir.walk lists it, and each directory's
    layer entries are grouped by stem in one pass over its names; only a
    symlinked entry is stat'ed, so a broken link counts as absent."""
    bundles: list[BundlePaths] = []
    for prefix, rel, dir_name, names, links in walk(root):
        doc_type = dir_name if dir_name in DOC_TYPES else None
        masks: dict[str, int] = {}
        for name in names:
            # A name without a dot files under the stem "", which no bundle has.
            stem, _, ext = name.rpartition(".")
            bit = _LAYER_BITS.get(ext)
            if bit and (name not in links or os.path.exists(prefix + name)):
                masks[stem] = masks.get(stem, 0) | bit
        for name, stem in bundle_stems(names):
            bundles.append(
                BundlePaths(rel + stem, prefix, name, masks.get(stem, 0), doc_type)
            )
        # Let go of this directory's names before the walk lists the next.
        del names, masks
    bundles.sort(key=attrgetter("doc_id"))
    return {paths.doc_id: paths for paths in bundles}


def load_document(
    paths: BundlePaths, layers: Collection[str] = BUNDLE_FILES
) -> Document:
    """Read the files of a bundle that `layers` names and that are present
    into a Document.  `layers` holds names from BUNDLE_FILES: "txt" for the
    text, read into Document.text and DocAnnotations.text, and the
    LAYER_FILES.  A file left out stays empty: text "", no sentences, trees
    or chunks, no annotations.

    When both are loaded, tree and token layers must agree sentence-for-
    sentence on leaf counts; a mismatch means the files describe different
    segmentations and is a format error, not a validation finding.
    """
    unknown = set(layers) - set(BUNDLE_FILES)
    if unknown:
        raise ValueError(f"unknown layers {sorted(unknown)}; expected some of {BUNDLE_FILES}")
    tok, ptb, chk, ann = (
        getattr(paths, layer) if layer in layers else None for layer in LAYER_FILES
    )
    text = read_text_file(paths.txt) if "txt" in layers else ""
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


def paired_ids(
    bundles_a: dict[str, BundlePaths], bundles_b: dict[str, BundlePaths]
) -> list[str]:
    """Every doc id of either of two discover listings, in ascending order."""
    return sorted(bundles_a.keys() | bundles_b.keys())


def load_pair(
    bundles_a: dict[str, BundlePaths], bundles_b: dict[str, BundlePaths],
    doc_id: str, layers: Collection[str] = BUNDLE_FILES,
) -> tuple[Document | None, Document | None]:
    """(doc_a, doc_b) for `doc_id` of two discover listings, each read as
    load_document does, with None for a side that lacks the id.  A's
    document is read before B's, so over ids in paired_ids order the first
    malformed file raised is the one with the smallest id, A before B."""
    paths_a, paths_b = bundles_a.get(doc_id), bundles_b.get(doc_id)
    return (
        None if paths_a is None else load_document(paths_a, layers),
        None if paths_b is None else load_document(paths_b, layers),
    )


def iter_pairs(
    bundles_a: dict[str, BundlePaths], bundles_b: dict[str, BundlePaths],
    layers: Collection[str] = BUNDLE_FILES,
) -> Iterator[tuple[Document | None, Document | None]]:
    """load_pair for every id of paired_ids, one pair at a time: no pair is
    kept once the next one is read."""
    return map(
        partial(load_pair, bundles_a, bundles_b, layers=layers),
        paired_ids(bundles_a, bundles_b),
    )


def load_corpus(
    root: str | Path, layers: Collection[str] = BUNDLE_FILES
) -> dict[str, Document]:
    """Every bundle under `root`, read as load_document does, keyed by doc id
    in ascending order, all held in memory at once."""
    return {
        doc_id: load_document(paths, layers) for doc_id, paths in discover(root).items()
    }
