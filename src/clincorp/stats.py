"""Descriptive corpus statistics.

All percentages round half away from zero to two decimals.  Tables
list observed labels only (a label never annotated simply has no row), sorted
by count descending then label, which keeps output deterministic.
"""
from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Iterable

from .errors import InputError
from .groups import expand_all
from .model import Document
from .numfmt import round_half_up
from .record import Record
from .tagsets import (
    RELATION_PAIRS, VALID_ASSERTIONS, EntityType, RelationType, relation_signature,
)

DISTRIBUTION_LAYERS = ("pos", "syntactic")

# Entity-pair subtotal labels, keyed by the unordered endpoint-type pair and
# listed in canonical reporting order.
_SHORT_NAMES = {
    EntityType.TREATMENT: "Tr", EntityType.TEST: "Te",
    EntityType.DISEASE: "D", EntityType.SYMPTOM: "S",
}
_PAIR_LABELS = [
    (frozenset(pair), f"R({_SHORT_NAMES[pair[0]]}, {_SHORT_NAMES[pair[1]]})")
    for pair in RELATION_PAIRS
]

_CROSS_TYPE_ORDER = (
    EntityType.DISEASE, EntityType.SYMPTOM, EntityType.TREATMENT, EntityType.TEST,
)


class DistributionRow(Record):
    __slots__ = ("label", "count", "pct")

    def __init__(self, label: str, count: int, pct: float):
        self.label = label
        self.count = count
        self.pct = pct


class CrossRow(Record):
    __slots__ = ("label", "count", "pct_within", "pct_all")

    def __init__(self, label: str, count: int, pct_within: float, pct_all: float):
        self.label = label
        self.count = count
        self.pct_within = pct_within
        self.pct_all = pct_all


def _pct(count: int, total: int) -> float:
    return round_half_up(100.0 * count / total, 2)


# Each table is a finishing step over a tally: counts over a set of documents,
# in a plain dict keyed by str or str tuples, so tallies of disjoint sets add
# up (Counter.update) to the whole set's, wherever each was taken.

def label_tally(docs: Iterable[Document], layer: str) -> Counter:
    """Label counts of one layer: part-of-speech labels over tokens for pos,
    internal constituent labels over trees for syntactic."""
    if layer not in DISTRIBUTION_LAYERS:
        raise InputError(
            f"unknown layer {layer!r}; expected one of {DISTRIBUTION_LAYERS}"
        )
    tally: Counter = Counter()
    for doc in docs:
        if layer == "pos":
            tally.update(
                t.pos for s in doc.sentences for t in s.tokens if t.pos is not None
            )
        else:
            for tree in doc.trees:
                tally.update(
                    n.label for n in tree.nodes() if not n.is_preterminal
                )
    return tally


def distribution_rows(tally: dict[str, int], layer: str) -> list[DistributionRow]:
    """The label frequency table of a label_tally."""
    total = sum(tally.values())
    if total == 0:
        raise InputError(f"corpus has no {layer} annotations")
    return [
        DistributionRow(label, count, _pct(count, total))
        for label, count in sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    ]


def distribution(docs: Iterable[Document], layer: str) -> list[DistributionRow]:
    """Label frequency table for one layer.

    pos counts part-of-speech labels over tokens; syntactic counts internal
    constituent labels over trees.  Entity and relation type counts are the
    ":total" and relation rows of assertion_cross_table and relation_table.
    """
    return distribution_rows(label_tally(docs, layer), layer)


def assertion_tally(docs: Iterable[Document]) -> Counter:
    """Entity counts keyed by (type value, assertion value or "none")."""
    tally: Counter = Counter()
    for doc in docs:
        if doc.annotations:
            tally.update(
                (e.etype.value, e.assertion.value if e.assertion else "none")
                for e in doc.annotations.entities.values()
            )
    return tally


def assertion_rows(tally: dict[tuple[str, str], int]) -> list[CrossRow]:
    """The entity cross-table of an assertion_tally."""
    grand_total = sum(tally.values())
    if grand_total == 0:
        return []
    rows: list[CrossRow] = []
    for etype in _CROSS_TYPE_ORDER:
        t = etype.value
        type_total = sum(c for (k, _), c in tally.items() if k == t)
        if type_total == 0:
            continue
        labels = {a.value for a in VALID_ASSERTIONS[etype]}
        labels.update(a for (k, a) in tally if k == t)
        per = sorted(
            ((a, tally.get((t, a), 0)) for a in labels),
            key=lambda kv: (-kv[1], kv[0]),
        )
        for a, count in per:
            rows.append(CrossRow(
                f"{t}:{a}", count, _pct(count, type_total), _pct(count, grand_total),
            ))
        rows.append(CrossRow(
            f"{t}:total", type_total, 100.0, _pct(type_total, grand_total),
        ))
    return rows


def assertion_cross_table(docs: Iterable[Document]) -> list[CrossRow]:
    """Entity counts broken down by type and assertion.

    Row labels are "<type>:<assertion>" ("none" for entities without one)
    plus a ":total" row per type; every valid combination gets a row even at
    count zero, so table shapes are comparable across corpora.
    """
    return assertion_rows(assertion_tally(docs))


def relation_tally(docs: Iterable[Document]) -> Counter:
    """One-to-one (expanded) relation counts keyed by relation type value."""
    tally: Counter = Counter()
    for doc in docs:
        if doc.annotations:
            tally.update(p.rtype.value for p in expand_all(doc.annotations))
    return tally


def relation_rows(tally: dict[str, int]) -> list[CrossRow]:
    """The relation table of a relation_tally."""
    grand_total = sum(tally.values())
    if grand_total == 0:
        return []
    pair_of = {rt: frozenset(relation_signature(RelationType(rt))) for rt in tally}
    rows: list[CrossRow] = []
    for pair, pair_label in _PAIR_LABELS:
        members = [(rt, c) for rt, c in tally.items() if pair_of[rt] == pair]
        pair_total = sum(c for _, c in members)
        if pair_total == 0:
            continue
        for rt, count in sorted(members, key=lambda kv: (-kv[1], kv[0])):
            rows.append(CrossRow(
                rt, count, _pct(count, pair_total), _pct(count, grand_total),
            ))
        rows.append(CrossRow(
            pair_label, pair_total, 100.0, _pct(pair_total, grand_total),
        ))
    return rows


def relation_table(docs: Iterable[Document]) -> list[CrossRow]:
    """One-to-one relation counts grouped by entity pair, with "R(x, y)"
    subtotal rows; percentages are within-pair and of all expanded relations."""
    return relation_rows(relation_tally(docs))


def avg_sentence_length(docs: Iterable[Document]) -> float:
    """Mean tokens per sentence, to two decimals."""
    return length_values(length_tally(docs))["avg_tokens_per_sentence"]


def token_and_sentence_counts(docs: Iterable[Document]) -> tuple[int, int]:
    """The length tally: token and sentence counts over `docs`."""
    tokens = sentences = 0
    for doc in docs:
        sentences += len(doc.sentences)
        tokens += sum(len(s.tokens) for s in doc.sentences)
    return tokens, sentences


def length_tally(docs: Iterable[Document]) -> dict[str, int]:
    """token_and_sentence_counts, keyed "tokens" and "sentences"."""
    tokens, sentences = token_and_sentence_counts(docs)
    return {"tokens": tokens, "sentences": sentences}


def length_values(tally: dict[str, int]) -> dict[str, int | float]:
    """The counts of a length_tally and their mean tokens per sentence, to
    two decimals."""
    tokens, sentences = tally["tokens"], tally["sentences"]
    if sentences == 0:
        raise InputError("corpus has no sentences")
    return {
        "tokens": tokens, "sentences": sentences,
        "avg_tokens_per_sentence": round_half_up(tokens / sentences, 2),
    }


# `clincorp stats --report R` reads only the REPORTS[R][0] file of each
# bundle and prints REPORTS[R][2] of the sum of REPORTS[R][1]'s tallies over
# any split of the documents into sets, as rows of type REPORTS[R][3], or for
# None (length) as one object of named values.
REPORTS = {
    "pos": (
        "tok", partial(label_tally, layer="pos"),
        partial(distribution_rows, layer="pos"), DistributionRow,
    ),
    "syn": (
        "ptb", partial(label_tally, layer="syntactic"),
        partial(distribution_rows, layer="syntactic"), DistributionRow,
    ),
    "entity": ("ann", assertion_tally, assertion_rows, CrossRow),
    "relation": ("ann", relation_tally, relation_rows, CrossRow),
    "length": ("tok", length_tally, length_values, None),
}
