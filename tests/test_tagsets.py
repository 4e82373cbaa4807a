"""Label inventories: sizes, aliases, assertion matrix, relation signatures."""
import pytest

from clincorp.tagsets import (
    POS_TAG_SET,
    POS_TAGS,
    RELATION_PAIRS,
    SYN_CANONICAL,
    SYN_TAG_SET,
    SYN_TAGS,
    VALID_ASSERTIONS,
    AssertionType,
    EntityType,
    RelationType,
    assertion_valid,
    parse_assertion_type,
    parse_entity_type,
    parse_relation_type,
    relation_signature,
)


def test_inventory_sizes():
    assert len(POS_TAGS) == 33
    assert len(POS_TAG_SET) == 33
    assert len(SYN_TAGS) == 23
    assert len(SYN_TAG_SET) == 23
    assert len(EntityType) == 4
    assert len(AssertionType) == 7
    assert len(RelationType) == 15


def test_core_labels_present():
    for tag in ("NN", "PU", "VV", "CD", "DEG", "ON"):
        assert tag in POS_TAG_SET
    for tag in ("NP", "VP", "IP", "VSB", "DVP"):
        assert tag in SYN_TAG_SET
    assert "VS" not in SYN_TAG_SET


def test_alias_normalization():
    assert SYN_CANONICAL.get("VS") == "VSB"
    assert SYN_CANONICAL.get("VSB") == "VSB"
    assert SYN_CANONICAL.get("NP") == "NP"
    assert SYN_CANONICAL.get("XX") is None


def test_assertion_matrix_counts():
    assert len(VALID_ASSERTIONS[EntityType.DISEASE]) == 6
    assert len(VALID_ASSERTIONS[EntityType.SYMPTOM]) == 6
    assert len(VALID_ASSERTIONS[EntityType.TREATMENT]) == 3
    assert len(VALID_ASSERTIONS[EntityType.TEST]) == 0
    total_valid = sum(
        assertion_valid(e, a) for e in EntityType for a in AssertionType
    )
    assert total_valid == 15


def test_assertion_matrix_membership():
    assert assertion_valid(EntityType.DISEASE, AssertionType.POSSIBLE)
    assert assertion_valid(EntityType.TREATMENT, AssertionType.HISTORICAL)
    assert not assertion_valid(EntityType.DISEASE, AssertionType.HISTORICAL)
    assert not assertion_valid(EntityType.TREATMENT, AssertionType.POSSIBLE)
    assert not assertion_valid(EntityType.TEST, AssertionType.PRESENT)


def test_relation_signatures_cover_all_types():
    for rtype in RelationType:
        sig = relation_signature(rtype)
        assert sig in RELATION_PAIRS or (sig[1], sig[0]) in RELATION_PAIRS
    assert relation_signature(RelationType.SYMPTOM_INDICATES_DISEASE) == (
        EntityType.SYMPTOM, EntityType.DISEASE,
    )
    assert relation_signature(RelationType.DISEASE_CAUSES_SYMPTOM) == (
        EntityType.DISEASE, EntityType.SYMPTOM,
    )


@pytest.mark.parametrize(
    "parse, good, bad",
    [
        (parse_entity_type, "disease", "Disease"),
        (parse_assertion_type, "not_associated", "denied"),
        (parse_relation_type, "TrNAS", "TrXX"),
    ],
)
def test_label_parsers(parse, good, bad):
    assert parse(good) is not None
    assert parse(bad) is None
