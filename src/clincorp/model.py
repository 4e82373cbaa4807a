"""Core data model for multilayer annotation of clinical documents.

Offsets are Unicode code-point indices into the document text, half-open
[start, end).  Token spans are stored sentence-relative; a Sentence carries
its absolute start so either coordinate system can be recovered.  Entity,
group, and relation annotations are document-absolute.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .tagsets import AssertionType, EntityType, RelationType


@dataclass(frozen=True, slots=True)
class Token:
    """One segmented token.  start/end are relative to the enclosing sentence."""

    start: int
    end: int
    surface: str
    pos: str | None = None

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True, slots=True)
class Sentence:
    """A sentence with its absolute start offset and token sequence."""

    start: int
    tokens: tuple[Token, ...]

    @property
    def end(self) -> int:
        if not self.tokens:
            return self.start
        return self.start + self.tokens[-1].end

    def abs_span(self, token: Token) -> tuple[int, int]:
        return (self.start + token.start, self.start + token.end)


@dataclass(frozen=True, slots=True)
class Chunk:
    """A labeled span of whole tokens, [first, last_exclusive) token indices."""

    first: int
    last_exclusive: int
    label: str


@dataclass(frozen=True, slots=True)
class Entity:
    """A typed text span.  Surface is the exact document substring."""

    eid: str
    etype: EntityType
    start: int
    end: int
    surface: str
    assertion: AssertionType | None = None

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def key(self) -> tuple[int, int, str]:
        """Identity for agreement and deduplication: span plus type."""
        return (self.start, self.end, self.etype.value)


@dataclass(frozen=True, slots=True)
class EntityGroup:
    """Several same-type entities that share assertion status and relation
    participation within one sentence."""

    gid: str
    etype: EntityType
    members: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Relation:
    """A typed binary relation; each argument names an entity or a group."""

    rid: str
    rtype: RelationType
    arg1: str
    arg2: str


@dataclass(slots=True)
class DocAnnotations:
    """The entity layer of one document: entities with assertions, groups,
    and relations, all keyed by their string ids."""

    doc_id: str
    text: str
    entities: dict[str, Entity] = field(default_factory=dict)
    groups: dict[str, EntityGroup] = field(default_factory=dict)
    relations: dict[str, Relation] = field(default_factory=dict)

    def resolve(self, ref: str) -> Entity | EntityGroup | None:
        """Look up an entity or group by id; None if absent."""
        if ref in self.entities:
            return self.entities[ref]
        return self.groups.get(ref)


DOC_TYPES = ("discharge_summary", "progress_note")


@dataclass(slots=True)
class Document:
    """One document's text plus whichever annotation layers are present."""

    doc_id: str
    text: str
    sentences: list[Sentence] = field(default_factory=list)
    chunks: list[list[Chunk]] = field(default_factory=list)
    trees: list["object"] = field(default_factory=list)
    annotations: DocAnnotations | None = None
    doc_type: str | None = None

    def sentence_spans(self) -> list[tuple[int, int]]:
        return [(s.start, s.end) for s in self.sentences]
