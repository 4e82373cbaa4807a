"""Inter-annotator agreement as precision, recall, and F measure.

Annotator A plays the reference role and annotator B the response role:
recall is the share of A's annotations that B also produced, precision the
share of B's that A produced.  Swapping the annotators therefore swaps
precision with recall and leaves F unchanged.

All layer scorers return raw (agreed, count_a, count_b) triples, each from
one list of match keys per side and parseval.match_keys; `prf` turns a
triple into an AgreementReport.  When both sides are empty there is
nothing to disagree about, so all three measures are 1 and the report is
flagged vacuous.
"""
from __future__ import annotations

from typing import Iterable

from .errors import LengthMismatchError
from .groups import expand_all, relation_match_key
from .model import Chunk, DocAnnotations, Document, Sentence
from .parseval import EvalParams, match_keys, score_corpus
from .record import Record
from .tagsets import LAYERS, SYN_CANONICAL, MatchPolicy, RelationMode


class AgreementReport(Record):
    __slots__ = ("agreed", "count_a", "count_b", "precision", "recall", "f", "vacuous")

    def __init__(
        self, agreed: int, count_a: int, count_b: int, precision: float,
        recall: float, f: float, vacuous: bool,
    ):
        self.agreed = agreed
        self.count_a = count_a
        self.count_b = count_b
        self.precision = precision
        self.recall = recall
        self.f = f
        self.vacuous = vacuous

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def prf(agreed: int, count_a: int, count_b: int, beta: float = 1.0) -> AgreementReport:
    """Build an agreement report from raw counts.

    F is the beta-weighted harmonic mean; with the default beta of 1 it is
    the plain F1.  Zero denominators give zero for the affected measure, and
    an entirely empty comparison is vacuously perfect.
    """
    if agreed < 0 or count_a < 0 or count_b < 0:
        raise ValueError("counts must be non-negative")
    if agreed > count_a or agreed > count_b:
        raise ValueError("agreed cannot exceed either annotator's count")
    if count_a == 0 and count_b == 0:
        return AgreementReport(agreed, count_a, count_b, 1.0, 1.0, 1.0, True)
    precision = agreed / count_b if count_b else 0.0
    recall = agreed / count_a if count_a else 0.0
    b2 = beta * beta
    denom = b2 * precision + recall
    f = (1.0 + b2) * precision * recall / denom if denom > 0 else 0.0
    return AgreementReport(agreed, count_a, count_b, precision, recall, f, False)


Counts = tuple[int, int, int]


def add_counts(*counts: Counts) -> Counts:
    agreed = sum(c[0] for c in counts)
    count_a = sum(c[1] for c in counts)
    count_b = sum(c[2] for c in counts)
    return agreed, count_a, count_b


# ---------------------------------------------------------------- layers ---

def token_counts(
    sents_a: list[Sentence], sents_b: list[Sentence], *, labeled: bool = False
) -> Counts:
    """Segmentation agreement over absolute character spans; with labeled=True
    a token must also carry the same part-of-speech to count."""

    def keys(sents: list[Sentence]) -> list:
        return [
            (s + t.start, s + t.end, t.pos) if labeled else (s + t.start, s + t.end)
            for sent in sents for s in (sent.start,) for t in sent.tokens
        ]

    return match_keys(keys(sents_a), keys(sents_b))


def chunk_counts(
    blocks_a: list[list[Chunk]], blocks_b: list[list[Chunk]]
) -> Counts:
    """Chunk agreement per aligned sentence over (first, last, label); labels
    are compared after alias normalization."""
    if len(blocks_a) != len(blocks_b):
        raise LengthMismatchError(
            f"chunk layers have {len(blocks_a)} vs {len(blocks_b)} sentences"
        )

    def keys(blocks: list[list[Chunk]]) -> list:
        # (sentence, first, last, label), the label canonical, or as written
        # when it is unknown.
        return [
            (i, c.first, c.last_exclusive, SYN_CANONICAL.get(c.label, c.label))
            for i, block in enumerate(blocks) for c in block
        ]

    return match_keys(keys(blocks_a), keys(blocks_b))


def entity_counts(
    ann_a: DocAnnotations,
    ann_b: DocAnnotations,
    policy: MatchPolicy = MatchPolicy.SPAN_TYPE,
) -> Counts:
    def keys(ann: DocAnnotations) -> list:
        # The type and assertion members stand for their values: each value
        # names one member.
        entities = ann.entities.values()
        if policy is MatchPolicy.SPAN:
            return [(e.start, e.end) for e in entities]
        if policy is MatchPolicy.SPAN_TYPE:
            return [(e.start, e.end, e.etype) for e in entities]
        return [(e.start, e.end, e.etype, e.assertion) for e in entities]

    return match_keys(keys(ann_a), keys(ann_b))


def relation_counts(
    ann_a: DocAnnotations,
    ann_b: DocAnnotations,
    mode: RelationMode = RelationMode.ONE_TO_ONE,
) -> Counts:
    if mode is RelationMode.GROUP_PRESERVED:
        ka = [relation_match_key(ann_a, r) for r in ann_a.relations.values()]
        kb = [relation_match_key(ann_b, r) for r in ann_b.relations.values()]
    else:
        ka = [p.key for p in expand_all(ann_a)]
        kb = [p.key for p in expand_all(ann_b)]
    return match_keys(ka, kb)


# ------------------------------------------------------------ aggregation ---

def macro_average(reports: list[AgreementReport]) -> tuple[float, float, float]:
    """Unweighted mean of per-document precision, recall, and F.  Vacuous
    documents count as perfect agreement."""
    if not reports:
        return (1.0, 1.0, 1.0)
    n = len(reports)
    return (
        sum(r.precision for r in reports) / n,
        sum(r.recall for r in reports) / n,
        sum(r.f for r in reports) / n,
    )


class CorpusAgreement(Record):
    """Per-document counts for one layer over a document collection, with a
    record of everything that could not be scored."""

    __slots__ = ("layer", "per_doc", "excluded_docs", "excluded_sentences")
    __hash__ = None

    def __init__(
        self,
        layer: str,
        per_doc: dict[str, Counts],
        excluded_docs: list[str],
        excluded_sentences: dict[str, list[int]],
    ):
        self.layer = layer
        self.per_doc = per_doc
        self.excluded_docs = excluded_docs
        self.excluded_sentences = excluded_sentences

    @property
    def has_exclusions(self) -> bool:
        return bool(self.excluded_docs or self.excluded_sentences)

    def counts(self) -> Counts:
        return add_counts(*self.per_doc.values()) if self.per_doc else (0, 0, 0)

    def report(self, beta: float = 1.0) -> AgreementReport:
        """The headline micro-averaged report (global counts)."""
        return prf(*self.counts(), beta=beta)

    def doc_reports(self, beta: float = 1.0) -> dict[str, AgreementReport]:
        return {d: prf(*c, beta=beta) for d, c in self.per_doc.items()}

    def join(self, part: tuple) -> None:
        """Add (per_doc, excluded_docs, excluded_sentences) of documents that
        come after this result's, as a worker sends them back."""
        per_doc, excluded_docs, excluded_sentences = part
        self.per_doc.update(per_doc)
        self.excluded_docs.extend(excluded_docs)
        self.excluded_sentences.update(excluded_sentences)


# The one layer file _doc_counts reads for each layer; the text is never
# scored, so a corpus command reads that file alone.
LAYER_FILE = {
    "seg": "tok", "pos": "tok", "chunk": "chk", "tree": "ptb",
    "entity": "ann", "relation": "ann",
}


def _doc_counts(
    layer: str, da: Document, db: Document, policy: MatchPolicy,
    mode: RelationMode, params: EvalParams,
) -> tuple[Counts, list[int]]:
    """One layer's counts for one document pair, plus the excluded sentence
    indices of the tree layer; LengthMismatchError when the two documents'
    chunk or tree layers have different sentence counts."""
    if layer == "seg":
        return token_counts(da.sentences, db.sentences, labeled=False), []
    if layer == "pos":
        return token_counts(da.sentences, db.sentences, labeled=True), []
    if layer == "chunk":
        return chunk_counts(da.chunks, db.chunks), []
    if layer == "tree":
        # Looked up in this module's globals on each call, where a caller
        # may have replaced it, for instance to time it.
        return score_corpus(da.trees, db.trees, params)  # type: ignore[arg-type]
    ann_a = da.annotations or DocAnnotations(doc_id=da.doc_id, text=da.text)
    ann_b = db.annotations or DocAnnotations(doc_id=db.doc_id, text=db.text)
    if layer == "entity":
        return entity_counts(ann_a, ann_b, policy), []
    return relation_counts(ann_a, ann_b, mode), []


def corpus_agreement(
    pairs: Iterable[tuple[Document | None, Document | None]],
    layer: str,
    *,
    policy: MatchPolicy = MatchPolicy.SPAN_TYPE,
    mode: RelationMode = RelationMode.ONE_TO_ONE,
    params: EvalParams = EvalParams(),
) -> CorpusAgreement:
    """Score one layer across two annotation sets, document by document.

    `pairs` holds (doc_a, doc_b) for each doc id of either set, as
    annio.iter_pairs yields them, so only the current pair is held.  A side
    that lacks the document is None and counts as empty there.  Documents
    whose tree or chunk layers have incompatible shapes are excluded and
    reported, never silently dropped or silently kept.
    """
    if layer not in LAYERS:
        raise ValueError(f"unknown layer {layer!r}; expected one of {LAYERS}")
    result = CorpusAgreement(layer, {}, [], {})
    for da, db in pairs:
        doc_id = (db if da is None else da).doc_id
        try:
            counts, excluded = _doc_counts(
                layer,
                Document(doc_id, "") if da is None else da,
                Document(doc_id, "") if db is None else db,
                policy, mode, params,
            )
        except LengthMismatchError:
            result.excluded_docs.append(doc_id)
        else:
            result.per_doc[doc_id] = counts
            if excluded:
                result.excluded_sentences[doc_id] = excluded
        # Otherwise this pair stays alive while the next one is read.
        del da, db
    return result
