"""Core data model for multilayer annotation of clinical documents.

Offsets are Unicode code-point indices into the document text, half-open
[start, end).  Token spans are stored sentence-relative; a Sentence carries
its absolute start so either coordinate system can be recovered.  Entity,
group, and relation annotations are document-absolute.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .tagsets import AssertionType, EntityType, RelationType


class Record:
    """Base of the records built once per token, chunk or tree node: plain
    `__slots__` classes, which cost about a third of a frozen dataclass to
    construct.  They keep a dataclass's value equality (only with the same
    type), hash and repr, but do not refuse assignment: treat them as
    immutable, as their hash assumes."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
