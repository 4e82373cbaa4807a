"""Entity-group resolution and one-to-one relation expansion.

A relation argument may name a single entity or a group; expanding a relation
takes the Cartesian product of its two endpoint member sets.  Expanded pairs
are identified by content (span and type of each side plus the relation
type), never by annotation ids, so expansions from different annotators are
directly comparable.
"""
from __future__ import annotations

from .errors import ResolutionError
from .model import DocAnnotations, Entity, Relation
from .record import Record
from .tagsets import RelationType

EntityKey = tuple[int, int, str]  # (start, end, entity type)


class OneToOne(Record):
    """One expanded entity-to-entity relation instance."""

    __slots__ = ("rtype", "arg1", "arg2")

    def __init__(self, rtype: RelationType, arg1: EntityKey, arg2: EntityKey):
        self.rtype = rtype
        self.arg1 = arg1
        self.arg2 = arg2

    @property
    def key(self) -> tuple[str, EntityKey, EntityKey]:
        return (self.rtype.value, self.arg1, self.arg2)


def endpoint_entities(ann: DocAnnotations, ref: str) -> list[Entity]:
    """Entities behind a T or G reference.  A missing reference is a hard
    inconsistency and raises; a group member that does not resolve is merely
    skipped (the validator reports it)."""
    if ref in ann.entities:
        return [ann.entities[ref]]
    if ref in ann.groups:
        return [
            ann.entities[m] for m in ann.groups[ref].members if m in ann.entities
        ]
    raise ResolutionError(
        f"{ann.doc_id or 'document'}: relation argument {ref} does not resolve"
    )


def endpoint_key(ann: DocAnnotations, ref: str) -> frozenset[EntityKey]:
    """Content identity of an endpoint: the set of its entity keys.  A
    singleton group is therefore identical to its lone member."""
    return frozenset(e.key() for e in endpoint_entities(ann, ref))


def expand_relation(ann: DocAnnotations, rel: Relation) -> list[OneToOne]:
    """Cartesian-product expansion of one relation, in document order."""
    left = sorted(endpoint_entities(ann, rel.arg1), key=Entity.key)
    right = sorted(endpoint_entities(ann, rel.arg2), key=Entity.key)
    return [
        OneToOne(rtype=rel.rtype, arg1=a.key(), arg2=b.key())
        for a in left
        for b in right
    ]


def expand_all(ann: DocAnnotations) -> list[OneToOne]:
    """Expand every relation in a document, deduplicating identical pairs.

    Two different group relations can expand to the same entity pair; each
    distinct (type, arg1, arg2) instance counts once.
    """
    seen: set[tuple] = set()
    out: list[OneToOne] = []
    for rel in ann.relations.values():
        for pair in expand_relation(ann, rel):
            if pair.key in seen:
                continue
            seen.add(pair.key)
            out.append(pair)
    return out


def relation_match_key(ann: DocAnnotations, rel: Relation) -> tuple:
    """Identity of an unexpanded relation for group-preserving comparison:
    the relation type plus the content identity of each endpoint."""
    return (rel.rtype.value, endpoint_key(ann, rel.arg1), endpoint_key(ann, rel.arg2))
