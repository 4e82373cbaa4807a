"""Inter-annotator agreement as precision, recall, and F measure.

Annotator A plays the reference role and annotator B the response role:
recall is the share of A's annotations that B also produced, precision the
share of B's that A produced.  Swapping the annotators therefore swaps
precision with recall and leaves F unchanged.

All layer scorers return raw (agreed, count_a, count_b) triples, each from
one list of match keys per side and parseval.match_keys; `prf` turns a
triple into an AgreementReport.  When both sides are empty there is
nothing to disagree about, so all three measures are 1 and the report is
flagged vacuous.  `diff_report` lists the disagreements themselves, one
adjudication item each, on the entity, group and relation layers.
"""
from __future__ import annotations

from typing import Iterable

from .errors import InputError, LengthMismatchError
from .groups import endpoint_key, expand_all, relation_match_key
from .model import Chunk, DocAnnotations, Document, Entity, Sentence
from .numfmt import round_half_up
from .parseval import EvalParams, ParseTree, match_counts, match_keys, score_corpus
from .record import Record
from .tagsets import LAYERS, SYN_TAG_ALIASES, SYN_TAG_SET, MatchPolicy, RelationMode


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

    def to_dict(self, *, rounded: bool = True) -> dict:
        p, r, f = self.precision, self.recall, self.f
        if rounded:
            p, r, f = (round_half_up(x, 3) for x in (p, r, f))
        return {
            "agreed": self.agreed,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "precision": p,
            "recall": r,
            "f": f,
            "vacuous": self.vacuous,
        }


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
        # (sentence, first, last, label), the label as normalize_syn_tag
        # gives it, or as written when it is unknown.
        return [
            (i, c.first, c.last_exclusive, label if label in SYN_TAG_SET else c.label)
            for i, block in enumerate(blocks) for c in block
            for label in (SYN_TAG_ALIASES.get(c.label, c.label),)
        ]

    return match_keys(keys(blocks_a), keys(blocks_b))


def tree_counts(
    trees_a: list[ParseTree],
    trees_b: list[ParseTree],
    params: EvalParams = EvalParams(),
) -> tuple[Counts, list[int]]:
    """Labeled-bracketing agreement; returns counts plus excluded sentence
    indices (pairs whose scorable leaf counts differ)."""
    score = score_corpus(trees_a, trees_b, params)
    return (score.agreed, score.count_a, score.count_b), score.excluded


def score_trees(
    gold: ParseTree,
    cand: ParseTree,
    params: EvalParams = EvalParams(),
    beta: float = 1.0,
) -> AgreementReport:
    """Bracketing agreement for one sentence pair, gold on the recall side."""
    agreed, ca, cb = match_counts(gold, cand, params)
    return prf(agreed, ca, cb, beta=beta)


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
        return tree_counts(da.trees, db.trees, params)  # type: ignore[arg-type]
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


# ----------------------------------------------------------------- diffs ---

class Disagreement(Record):
    """One adjudication item: an annotation present on one side only, or
    present on both with differing attributes."""

    __slots__ = ("doc_id", "layer", "kind", "location", "surface", "detail")

    def __init__(
        self, doc_id: str, layer: str, kind: str, location: str, surface: str,
        detail: str = "",
    ):
        self.doc_id = doc_id
        self.layer = layer
        self.kind = kind  # a-only | b-only | attribute-mismatch
        self.location = location
        self.surface = surface
        self.detail = detail

    def render(self) -> str:
        return "\t".join(
            (self.doc_id, self.layer, self.kind, self.location, self.surface,
             self.detail)
        )


def _span_surface(ann: DocAnnotations, key: tuple[int, int, str]) -> str:
    start, end, _ = key
    return ann.text[start:end] if ann.text else ""


def _diff_entities(
    ann_a: DocAnnotations, ann_b: DocAnnotations, doc_id: str
) -> list[Disagreement]:
    def index(ann: DocAnnotations) -> dict[tuple, list[Entity]]:
        idx: dict[tuple, list[Entity]] = {}
        for e in ann.entities.values():
            idx.setdefault(e.key(), []).append(e)
        return idx

    ia, ib = index(ann_a), index(ann_b)
    out: list[Disagreement] = []
    for key in sorted(set(ia) | set(ib)):
        ea, eb = ia.get(key, []), ib.get(key, [])
        start, end, etype = key
        loc = f"[{start},{end}) {etype}"
        surface = (ea or eb)[0].surface
        for _ in range(len(ea) - len(eb)):
            out.append(Disagreement(doc_id, "entity", "a-only", loc, surface))
        for _ in range(len(eb) - len(ea)):
            out.append(Disagreement(doc_id, "entity", "b-only", loc, surface))
        if ea and eb:
            aa = sorted(e.assertion.value if e.assertion else "none" for e in ea)
            ab = sorted(e.assertion.value if e.assertion else "none" for e in eb)
            if aa != ab:
                out.append(Disagreement(
                    doc_id, "entity", "attribute-mismatch", loc, surface,
                    detail=f"assertion {'/'.join(aa)} vs {'/'.join(ab)}",
                ))
    return out


def _endpoint_desc(ann: DocAnnotations, spans: tuple) -> str:
    return ";".join(_span_surface(ann, k) or f"[{k[0]},{k[1]})" for k in spans)


def _keyed(ann: DocAnnotations, layer: str) -> dict:
    idx: dict = {}
    if layer == "group":
        for g in ann.groups.values():
            members = tuple(sorted(
                ann.entities[m].key() for m in g.members if m in ann.entities
            ))
            key = (g.etype.value, members)
            desc = _endpoint_desc(ann, members)
            idx.setdefault(key, []).append((f"group {g.etype.value}", desc))
    else:
        for r in ann.relations.values():
            k1 = tuple(sorted(endpoint_key(ann, r.arg1)))
            k2 = tuple(sorted(endpoint_key(ann, r.arg2)))
            key = (r.rtype.value, k1, k2)
            desc = f"{_endpoint_desc(ann, k1)} -> {_endpoint_desc(ann, k2)}"
            idx.setdefault(key, []).append((r.rtype.value, desc))
    return idx


def _diff_keyed(
    ann_a: DocAnnotations, ann_b: DocAnnotations, doc_id: str, layer: str
) -> list[Disagreement]:
    keys_a, keys_b = _keyed(ann_a, layer), _keyed(ann_b, layer)
    out: list[Disagreement] = []
    for key in sorted(set(keys_a) | set(keys_b)):
        na = len(keys_a.get(key, []))
        nb = len(keys_b.get(key, []))
        loc, surface = (keys_a.get(key) or keys_b[key])[0]
        for _ in range(na - nb):
            out.append(Disagreement(doc_id, layer, "a-only", loc, surface))
        for _ in range(nb - na):
            out.append(Disagreement(doc_id, layer, "b-only", loc, surface))
    return out


def diff_report(
    pairs: Iterable[tuple[Document | None, Document | None]], layer: str
) -> list[Disagreement]:
    """Itemized disagreements for adjudication.

    `pairs` holds (doc_a, doc_b) for each doc id, as annio.iter_pairs yields
    them; the first document on one side only (None on the other) raises
    InputError.  Entities match by span and type, then compare assertions;
    groups match by type and member set; relations match group-preserved
    (type plus endpoint member sets).  Swapping the inputs swaps a-only with
    b-only and leaves attribute mismatches in place with their sides
    reversed.
    """
    if layer not in ("entity", "group", "relation"):
        raise InputError(f"diff supports entity/group/relation, not {layer!r}")
    out: list[Disagreement] = []
    for da, db in pairs:
        if da is None or db is None:
            doc_id, side = (db.doc_id, "b") if da is None else (da.doc_id, "a")
            raise InputError(
                f"annotation sets cover different documents: {doc_id!r} is only in {side}"
            )
        doc_id = da.doc_id
        ann_a = da.annotations or DocAnnotations(doc_id, "")
        ann_b = db.annotations or DocAnnotations(doc_id, "")
        if layer == "entity":
            out.extend(_diff_entities(ann_a, ann_b, doc_id))
        else:
            out.extend(_diff_keyed(ann_a, ann_b, doc_id, layer))
        # Otherwise this pair stays alive while the next one is read.
        del da, db, ann_a, ann_b
    return out
