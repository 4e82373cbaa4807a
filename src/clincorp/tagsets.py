"""Closed label inventories for every annotation layer.

Part-of-speech and phrase tags follow the Chinese Treebank inventory as
adapted for clinical narrative; entity, assertion, and relation labels follow
the clinical entity-group guidelines.  All sets are closed: parsers and
validators reject anything outside them.  The agreement layers and the
entity and relation comparison choices live here too, so that naming them
(as the command line does) needs no scoring code.
"""
from __future__ import annotations

import enum

# The annotation layers agreement is measured on.
LAYERS = ("seg", "pos", "chunk", "tree", "entity", "relation")


class MatchPolicy(enum.Enum):
    """What must coincide for two entity annotations to agree."""

    SPAN = "span"
    SPAN_TYPE = "span_type"
    SPAN_TYPE_ASSERTION = "span_type_assertion"


class RelationMode(enum.Enum):
    """How relation arguments are compared.

    GROUP_PRESERVED requires the two annotators to agree on the grouping
    itself: each endpoint matches as a whole member set.  ONE_TO_ONE first
    expands every relation to entity pairs and compares those, so different
    groupings of the same underlying pairs still agree.
    """

    GROUP_PRESERVED = "group_preserved"
    ONE_TO_ONE = "one_to_one"


# 33 part-of-speech labels, in canonical (frequency-table) order.
POS_TAGS: tuple[str, ...] = (
    "NN", "PU", "VV", "CD", "VA", "JJ", "AD", "M", "VE", "P", "LC", "NT",
    "CC", "DT", "OD", "ETC", "NR", "VC", "PN", "DEG", "MSP", "CS", "DEC",
    "SB", "BA", "FW", "LB", "AS", "SP", "DER", "DEV", "IJ", "ON",
)
POS_TAG_SET: frozenset[str] = frozenset(POS_TAGS)

# 23 syntactic (phrase) labels.  "VSB" is the canonical spelling for the
# modifier-head verb compound; "VS" is accepted on input and normalized.
SYN_TAGS: tuple[str, ...] = (
    "NP", "VP", "IP", "QP", "ADJP", "ADVP", "CLP", "LST", "PP", "LCP",
    "FRAG", "DP", "VCD", "VSB", "PRN", "VRD", "UCP", "DNP", "CP", "VPT",
    "VNV", "VCP", "DVP",
)
SYN_TAG_SET: frozenset[str] = frozenset(SYN_TAGS)

SYN_TAG_ALIASES: dict[str, str] = {"VS": "VSB"}

# Every accepted spelling of a syntactic label, mapped to its canonical label.
SYN_CANONICAL: dict[str, str] = {**{tag: tag for tag in SYN_TAGS}, **SYN_TAG_ALIASES}


def normalize_syn_tag(label: str) -> str | None:
    """Return the canonical syntactic label, or None if unknown."""
    return SYN_CANONICAL.get(label)


class EntityType(enum.Enum):
    DISEASE = "disease"
    SYMPTOM = "symptom"
    TEST = "test"
    TREATMENT = "treatment"

    def __str__(self) -> str:
        return self.value


class AssertionType(enum.Enum):
    PRESENT = "present"
    ABSENT = "absent"
    POSSIBLE = "possible"
    CONDITIONAL = "conditional"
    NOT_ASSOCIATED = "not_associated"
    OCCASIONAL = "occasional"
    HISTORICAL = "historical"

    def __str__(self) -> str:
        return self.value


# Which assertion labels each entity type admits.  Diseases and symptoms take
# the six status labels, treatments a reduced set of three, tests none.
_DISEASE_SYMPTOM_ASSERTIONS = frozenset({
    AssertionType.PRESENT, AssertionType.ABSENT, AssertionType.POSSIBLE,
    AssertionType.CONDITIONAL, AssertionType.NOT_ASSOCIATED,
    AssertionType.OCCASIONAL,
})
VALID_ASSERTIONS: dict[EntityType, frozenset[AssertionType]] = {
    EntityType.DISEASE: _DISEASE_SYMPTOM_ASSERTIONS,
    EntityType.SYMPTOM: _DISEASE_SYMPTOM_ASSERTIONS,
    EntityType.TREATMENT: frozenset({
        AssertionType.PRESENT, AssertionType.ABSENT, AssertionType.HISTORICAL,
    }),
    EntityType.TEST: frozenset(),
}


def assertion_valid(etype: EntityType, assertion: AssertionType) -> bool:
    """True iff `assertion` is an admissible label for entities of `etype`."""
    return assertion in VALID_ASSERTIONS[etype]


class RelationType(enum.Enum):
    """Typed binary relations, each with a fixed (arg1, arg2) type signature."""

    TR_IMPROVES_DISEASE = "TrID"
    TR_WORSENS_DISEASE = "TrWD"
    TR_CAUSES_DISEASE = "TrCD"
    TR_ADMINISTERED_FOR_DISEASE = "TrAD"
    TR_IMPROVES_SYMPTOM = "TrIS"
    TR_WORSENS_SYMPTOM = "TrWS"
    TR_CAUSES_SYMPTOM = "TrCS"
    TR_ADMINISTERED_FOR_SYMPTOM = "TrAS"
    TR_WITHHELD_FOR_SYMPTOM = "TrNAS"
    TE_REVEALS_DISEASE = "TeRD"
    TE_INVESTIGATES_DISEASE = "TeCD"
    TE_REVEALS_SYMPTOM = "TeRS"
    TE_FOR_SYMPTOM = "TeAS"
    DISEASE_CAUSES_SYMPTOM = "DCS"
    SYMPTOM_INDICATES_DISEASE = "SID"

    def __str__(self) -> str:
        return self.value


_SIGNATURES: dict[RelationType, tuple[EntityType, EntityType]] = {
    RelationType.TR_IMPROVES_DISEASE: (EntityType.TREATMENT, EntityType.DISEASE),
    RelationType.TR_WORSENS_DISEASE: (EntityType.TREATMENT, EntityType.DISEASE),
    RelationType.TR_CAUSES_DISEASE: (EntityType.TREATMENT, EntityType.DISEASE),
    RelationType.TR_ADMINISTERED_FOR_DISEASE: (EntityType.TREATMENT, EntityType.DISEASE),
    RelationType.TR_IMPROVES_SYMPTOM: (EntityType.TREATMENT, EntityType.SYMPTOM),
    RelationType.TR_WORSENS_SYMPTOM: (EntityType.TREATMENT, EntityType.SYMPTOM),
    RelationType.TR_CAUSES_SYMPTOM: (EntityType.TREATMENT, EntityType.SYMPTOM),
    RelationType.TR_ADMINISTERED_FOR_SYMPTOM: (EntityType.TREATMENT, EntityType.SYMPTOM),
    RelationType.TR_WITHHELD_FOR_SYMPTOM: (EntityType.TREATMENT, EntityType.SYMPTOM),
    RelationType.TE_REVEALS_DISEASE: (EntityType.TEST, EntityType.DISEASE),
    RelationType.TE_INVESTIGATES_DISEASE: (EntityType.TEST, EntityType.DISEASE),
    RelationType.TE_REVEALS_SYMPTOM: (EntityType.TEST, EntityType.SYMPTOM),
    RelationType.TE_FOR_SYMPTOM: (EntityType.TEST, EntityType.SYMPTOM),
    RelationType.DISEASE_CAUSES_SYMPTOM: (EntityType.DISEASE, EntityType.SYMPTOM),
    RelationType.SYMPTOM_INDICATES_DISEASE: (EntityType.SYMPTOM, EntityType.DISEASE),
}

# (arg1 type, arg2 type) pairs in canonical reporting order.
RELATION_PAIRS: tuple[tuple[EntityType, EntityType], ...] = (
    (EntityType.TREATMENT, EntityType.DISEASE),
    (EntityType.TREATMENT, EntityType.SYMPTOM),
    (EntityType.TEST, EntityType.DISEASE),
    (EntityType.TEST, EntityType.SYMPTOM),
    (EntityType.DISEASE, EntityType.SYMPTOM),
)


def relation_signature(rtype: RelationType) -> tuple[EntityType, EntityType]:
    """Return the required (arg1, arg2) entity types for a relation type."""
    return _SIGNATURES[rtype]


# Each label parser is one dict lookup: calling the enum on an unknown label
# raises and catches a ValueError.
_ENTITY_TYPES = {member.value: member for member in EntityType}
_ASSERTION_TYPES = {member.value: member for member in AssertionType}
_RELATION_TYPES = {member.value: member for member in RelationType}


def parse_entity_type(label: str) -> EntityType | None:
    return _ENTITY_TYPES.get(label)


def parse_assertion_type(label: str) -> AssertionType | None:
    return _ASSERTION_TYPES.get(label)


def parse_relation_type(label: str) -> RelationType | None:
    return _RELATION_TYPES.get(label)
