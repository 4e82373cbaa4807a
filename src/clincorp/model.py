"""Core data model for multilayer annotation of clinical documents.

Offsets are Unicode code-point indices into the document text, half-open
[start, end).  Token spans are stored sentence-relative; a Sentence carries
its absolute start so either coordinate system can be recovered.  Entity,
group, and relation annotations are document-absolute.
"""
from __future__ import annotations

from .record import Record
from .tagsets import AssertionType, EntityType, RelationType


class Token(Record):
    """One segmented token.  start/end are relative to the enclosing sentence."""

    __slots__ = ("start", "end", "surface", "pos")

    def __init__(self, start: int, end: int, surface: str, pos: str | None = None):
        self.start = start
        self.end = end
        self.surface = surface
        self.pos = pos

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


class Sentence(Record):
    """A sentence with its absolute start offset and token sequence."""

    __slots__ = ("start", "tokens")

    def __init__(self, start: int, tokens: tuple[Token, ...]):
        self.start = start
        self.tokens = tokens

    @property
    def end(self) -> int:
        if not self.tokens:
            return self.start
        return self.start + self.tokens[-1].end

    def abs_span(self, token: Token) -> tuple[int, int]:
        return (self.start + token.start, self.start + token.end)


class Chunk(Record):
    """A labeled span of whole tokens, [first, last_exclusive) token indices."""

    __slots__ = ("first", "last_exclusive", "label")

    def __init__(self, first: int, last_exclusive: int, label: str):
        self.first = first
        self.last_exclusive = last_exclusive
        self.label = label


class Entity(Record):
    """A typed text span.  Surface is the exact document substring."""

    __slots__ = ("eid", "etype", "start", "end", "surface", "assertion")

    def __init__(
        self,
        eid: str,
        etype: EntityType,
        start: int,
        end: int,
        surface: str,
        assertion: AssertionType | None = None,
    ):
        self.eid = eid
        self.etype = etype
        self.start = start
        self.end = end
        self.surface = surface
        self.assertion = assertion

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def key(self) -> tuple[int, int, str]:
        """Identity for agreement and deduplication: span plus type."""
        return (self.start, self.end, self.etype.value)


class EntityGroup(Record):
    """Several same-type entities that share assertion status and relation
    participation within one sentence."""

    __slots__ = ("gid", "etype", "members")

    def __init__(self, gid: str, etype: EntityType, members: tuple[str, ...]):
        self.gid = gid
        self.etype = etype
        self.members = members


class Relation(Record):
    """A typed binary relation; each argument names an entity or a group."""

    __slots__ = ("rid", "rtype", "arg1", "arg2")

    def __init__(self, rid: str, rtype: RelationType, arg1: str, arg2: str):
        self.rid = rid
        self.rtype = rtype
        self.arg1 = arg1
        self.arg2 = arg2


class DocAnnotations(Record):
    """The entity layer of one document: entities with assertions, groups,
    and relations, all keyed by their string ids."""

    __slots__ = ("doc_id", "text", "entities", "groups", "relations")
    __hash__ = None

    def __init__(
        self,
        doc_id: str,
        text: str,
        entities: dict[str, Entity] | None = None,
        groups: dict[str, EntityGroup] | None = None,
        relations: dict[str, Relation] | None = None,
    ):
        self.doc_id = doc_id
        self.text = text
        self.entities = {} if entities is None else entities
        self.groups = {} if groups is None else groups
        self.relations = {} if relations is None else relations

    def resolve(self, ref: str) -> Entity | EntityGroup | None:
        """Look up an entity or group by id; None if absent."""
        if ref in self.entities:
            return self.entities[ref]
        return self.groups.get(ref)


DOC_TYPES = ("discharge_summary", "progress_note")


class _WeaklyReferable:
    """A base that lets its subclasses' instances be weakly referenced
    without making `__weakref__` one of their record fields."""

    __slots__ = ("__weakref__",)


class Document(Record, _WeaklyReferable):
    """One document's text plus whichever annotation layers are present.  A
    document can be weakly referenced, so a caller can check that a stream
    of them lets each one go."""

    __slots__ = ("doc_id", "text", "sentences", "chunks", "trees", "annotations",
                 "doc_type")
    __hash__ = None

    def __init__(
        self,
        doc_id: str,
        text: str,
        sentences: list[Sentence] | None = None,
        chunks: list[list[Chunk]] | None = None,
        trees: list["object"] | None = None,
        annotations: DocAnnotations | None = None,
        doc_type: str | None = None,
    ):
        self.doc_id = doc_id
        self.text = text
        self.sentences = [] if sentences is None else sentences
        self.chunks = [] if chunks is None else chunks
        self.trees = [] if trees is None else trees
        self.annotations = annotations
        self.doc_type = doc_type

    def sentence_spans(self) -> list[tuple[int, int]]:
        return [(s.start, s.end) for s in self.sentences]
