"""Well-formedness and guideline-conformance checks.

Validation never raises on annotation content: every finding becomes a
Diagnostic with a stable rule id, so callers can count, filter, or fail a
build on them.  The one hard error is a wiring problem: annotations that do
not belong to the document they are validated against.

Tagset membership (but for chunk labels), span order and the tree count are
the layer parsers' to refuse: a document read from files has passed them.
"""
from __future__ import annotations

from .errors import InputError
from .model import DocAnnotations, Document, Entity
from .record import Record
from .tagsets import (
    VALID_ASSERTIONS,
    assertion_valid,
    normalize_syn_tag,
    relation_signature,
)


class Diagnostic(Record):
    """One validation finding."""

    __slots__ = ("rule", "message", "layer", "doc_id", "location")

    def __init__(
        self, rule: str, message: str, layer: str = "", doc_id: str = "",
        location: str = "",
    ):
        self.rule = rule
        self.message = message
        self.layer = layer
        self.doc_id = doc_id
        self.location = location

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        doc = f"{self.doc_id}: " if self.doc_id else ""
        return f"{doc}{self.layer}: {self.rule}{where}: {self.message}"


def validate_tokens(doc: Document) -> list[Diagnostic]:
    """Check the segmentation layer: token spans must lie within the text,
    tile each sentence exactly and reproduce the text.  Span order and the
    part-of-speech tagset are parse_tok's to refuse."""
    out: list[Diagnostic] = []
    text = doc.text
    for si, sent in enumerate(doc.sentences):
        prev_end = None
        for ti, tok in enumerate(sent.tokens):
            s = sent.start + tok.start
            e = sent.start + tok.end
            if e > len(text):
                out.append(Diagnostic(
                    "span-out-of-range", f"token span [{s}, {e}) is invalid "
                    f"for text of length {len(text)}",
                    "token", doc.doc_id, f"sentence {si} token {ti}",
                ))
                prev_end = tok.end
                continue
            if text[s:e] != tok.surface:
                out.append(Diagnostic(
                    "surface-mismatch",
                    f"token surface {tok.surface!r} != text {text[s:e]!r}",
                    "token", doc.doc_id, f"sentence {si} token {ti}",
                ))
            if prev_end is not None and tok.start > prev_end:
                gap = text[sent.start + prev_end : s]
                out.append(Diagnostic(
                    "token-gap",
                    f"sentence text {gap!r} is covered by no token",
                    "token", doc.doc_id, f"sentence {si} token {ti}",
                ))
            prev_end = tok.end
    return out


def validate_chunks(doc: Document) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    if doc.sentences and doc.chunks and len(doc.chunks) != len(doc.sentences):
        out.append(Diagnostic(
            "layer-count-mismatch",
            f"{len(doc.chunks)} chunk blocks for {len(doc.sentences)} sentences",
            "chunk", doc.doc_id,
        ))
    for si, block in enumerate(doc.chunks):
        n_tokens = (
            len(doc.sentences[si].tokens)
            if doc.sentences and si < len(doc.sentences)
            else None
        )
        for ci, ch in enumerate(block):
            loc = f"sentence {si} chunk {ci}"
            if normalize_syn_tag(ch.label) is None:
                out.append(Diagnostic(
                    "unknown-label", f"chunk label {ch.label!r} is not in the tagset",
                    "chunk", doc.doc_id, loc,
                ))
            if n_tokens is not None and ch.last_exclusive > n_tokens:
                out.append(Diagnostic(
                    "span-out-of-range",
                    f"chunk covers tokens [{ch.first}, {ch.last_exclusive}) but "
                    f"the sentence has {n_tokens} tokens", "chunk", doc.doc_id, loc,
                ))
    return out


def validate_trees(doc: Document) -> list[Diagnostic]:
    """Check that each tree's leaves spell its sentence's tokens."""
    out: list[Diagnostic] = []
    for si, (tree, sent) in enumerate(zip(doc.trees, doc.sentences)):
        leaf_surfaces = [surface for _, surface in tree.leaves()]
        tok_surfaces = [t.surface for t in sent.tokens]
        if leaf_surfaces != tok_surfaces:
            out.append(Diagnostic(
                "tree-token-mismatch",
                f"tree leaves disagree with the token layer "
                f"({len(leaf_surfaces)} leaves vs {len(tok_surfaces)} tokens)",
                "tree", doc.doc_id, f"sentence {si}",
            ))
    return out


def _entity_sentence(e: Entity, spans: list[tuple[int, int]]) -> int | None:
    for i, (s0, s1) in enumerate(spans):
        if s0 <= e.start and e.end <= s1:
            return i
    return None


def validate_annotations(
    ann: DocAnnotations,
    sentence_spans: list[tuple[int, int]] | None = None,
) -> list[Diagnostic]:
    """Check the entity layer.  Sentence containment rules only run when the
    caller supplies sentence spans; this validator never re-splits text."""
    out: list[Diagnostic] = []
    text = ann.text
    doc = ann.doc_id

    seen_entities: dict[tuple[int, int, str], str] = {}
    for e in ann.entities.values():
        if e.end <= e.start:
            out.append(Diagnostic(
                "empty-span", f"entity span [{e.start}, {e.end}) is empty or inverted",
                "entity", doc, e.eid,
            ))
        elif e.start < 0 or e.end > len(text):
            out.append(Diagnostic(
                "span-out-of-range",
                f"entity span [{e.start}, {e.end}) exceeds text of length {len(text)}",
                "entity", doc, e.eid,
            ))
        elif text[e.start:e.end] != e.surface:
            out.append(Diagnostic(
                "surface-mismatch",
                f"entity surface {e.surface!r} != text {text[e.start:e.end]!r}",
                "entity", doc, e.eid,
            ))
        if e.assertion is None:
            if VALID_ASSERTIONS[e.etype]:
                out.append(Diagnostic(
                    "assertion-missing",
                    f"{e.etype.value} entity requires an assertion",
                    "entity", doc, e.eid,
                ))
        elif not assertion_valid(e.etype, e.assertion):
            out.append(Diagnostic(
                "assertion-invalid",
                f"assertion {e.assertion.value!r} is not admissible on a "
                f"{e.etype.value} entity", "entity", doc, e.eid,
            ))
        key = e.key()
        if key in seen_entities:
            out.append(Diagnostic(
                "duplicate-annotation",
                f"entity duplicates {seen_entities[key]} (same span and type)",
                "entity", doc, e.eid,
            ))
        else:
            seen_entities[key] = e.eid

    seen_groups: dict[tuple, str] = {}
    for g in ann.groups.values():
        member_sents: set[int | None] = set()
        for m in g.members:
            ent = ann.entities.get(m)
            if ent is None:
                out.append(Diagnostic(
                    "dangling-reference", f"group member {m} does not exist",
                    "group", doc, g.gid,
                ))
                continue
            if ent.etype is not g.etype:
                out.append(Diagnostic(
                    "heterogeneous-group",
                    f"member {m} is {ent.etype.value} but the group is "
                    f"{g.etype.value}", "group", doc, g.gid,
                ))
            if sentence_spans is not None:
                member_sents.add(_entity_sentence(ent, sentence_spans))
        if sentence_spans is not None and len(member_sents) > 1:
            out.append(Diagnostic(
                "cross-sentence-group",
                "group members span more than one sentence", "group", doc, g.gid,
            ))
        gkey = (g.etype.value, tuple(sorted(g.members)))
        if gkey in seen_groups:
            out.append(Diagnostic(
                "duplicate-annotation",
                f"group duplicates {seen_groups[gkey]} (same type and members)",
                "group", doc, g.gid,
            ))
        else:
            seen_groups[gkey] = g.gid

    seen_relations: dict[tuple, str] = {}
    for r in ann.relations.values():
        endpoint_types = []
        arg_entities: list[Entity] = []
        for ref in (r.arg1, r.arg2):
            target = ann.resolve(ref)
            if target is None:
                out.append(Diagnostic(
                    "dangling-reference", f"relation argument {ref} does not exist",
                    "relation", doc, r.rid,
                ))
                endpoint_types.append(None)
                continue
            endpoint_types.append(target.etype)
            if isinstance(target, Entity):
                arg_entities.append(target)
            else:
                arg_entities.extend(
                    ann.entities[m] for m in target.members if m in ann.entities
                )
        want = relation_signature(r.rtype)
        if None not in endpoint_types and tuple(endpoint_types) != want:
            got = ", ".join(t.value for t in endpoint_types)  # type: ignore[union-attr]
            out.append(Diagnostic(
                "signature-mismatch",
                f"{r.rtype.value} requires ({want[0].value}, {want[1].value}) "
                f"but arguments are ({got})", "relation", doc, r.rid,
            ))
        if sentence_spans is not None and arg_entities:
            sents = {_entity_sentence(e, sentence_spans) for e in arg_entities}
            if len(sents) > 1:
                out.append(Diagnostic(
                    "cross-sentence-relation",
                    "relation arguments span more than one sentence",
                    "relation", doc, r.rid,
                ))
        rkey = (r.rtype.value, r.arg1, r.arg2)
        if rkey in seen_relations:
            out.append(Diagnostic(
                "duplicate-annotation",
                f"relation duplicates {seen_relations[rkey]} "
                f"(same type and arguments)", "relation", doc, r.rid,
            ))
        else:
            seen_relations[rkey] = r.rid
    return out


def validate_document(doc: Document) -> list[Diagnostic]:
    """Run every applicable layer check on one document.

    Raises InputError when attached annotations carry a different document
    id; that is a wiring mistake, not an annotation finding.
    """
    out = validate_tokens(doc)
    out.extend(validate_chunks(doc))
    out.extend(validate_trees(doc))
    if doc.annotations is not None:
        if doc.annotations.doc_id and doc.annotations.doc_id != doc.doc_id:
            raise InputError(
                f"annotations for document {doc.annotations.doc_id!r} cannot "
                f"be validated against document {doc.doc_id!r}"
            )
        spans = doc.sentence_spans() if doc.sentences else None
        out.extend(validate_annotations(doc.annotations, spans))
    return out

