"""Acceptance gate: ten fixed criteria, one test each.

Every computed quantity with a brute-force alternative is checked against an
oracle implemented here from scratch: greedy multiset intersection for the
agreement equations, dominance-set bracket enumeration for tree scoring.
Tolerances and fixture values are pinned; do not loosen them.
"""
from __future__ import annotations

import random
import time
from collections import Counter

import pytest

from clincorp.agreement import (
    LAYERS,
    MatchPolicy,
    RelationMode,
    corpus_agreement,
    prf,
    relation_counts,
)
from clincorp.annio import (
    load_corpus,
    parse_ann,
    parse_chk,
    parse_ptb,
    parse_tok,
    serialize_ann,
    serialize_chk,
    serialize_ptb,
    serialize_tok,
)
from clincorp.errors import InputError, ParseError
from clincorp.groups import expand_relation
from clincorp.model import (
    DocAnnotations,
    Document,
    Entity,
    EntityGroup,
    Relation,
    Sentence,
    Token,
)
from clincorp.numfmt import round_half_up
from clincorp.parseval import ParseTree, match_counts, parse_tree
from clincorp.refdata import (
    ENTITY_ASSERTION_TABLE,
    POS_DISTRIBUTION,
    RELATION_TABLE,
    RELATION_TABLE_TOTAL,
    SYN_DISTRIBUTION,
    TOTAL_ENTITIES,
    TOTAL_SENTENCES,
    TOTAL_TOKENS,
    compare_reference,
    matches_display,
)
from clincorp.stats import (
    DistributionRow,
    avg_sentence_length,
    token_and_sentence_counts,
)
from clincorp.tagsets import (
    POS_TAGS,
    VALID_ASSERTIONS,
    AssertionType,
    EntityType,
    RelationType,
    assertion_valid,
    relation_signature,
)
from clincorp.validate import validate_annotations
from clincorp.workflow import ConvergencePolicy, check_convergence, kfold
from helpers import (
    NON_PUNCT_POS,
    random_annotations,
    random_chunks,
    random_document,
    random_sentences,
    random_tree,
    random_tree_over,
    random_word,
    write_bundle,
)

N_PAIRS = 1000
N_TREES = 500
N_BUNDLES = 500


# ------------------------------------------------------------------ oracles ---

def greedy_intersection(items_a: list, items_b: list) -> int:
    """Multiset intersection size by literal removal from a copy."""
    remaining = list(items_b)
    agreed = 0
    for item in items_a:
        try:
            remaining.remove(item)
        except ValueError:
            continue
        agreed += 1
    return agreed


def oracle_prf(agreed: int, count_a: int, count_b: int) -> tuple[float, float, float]:
    if count_a == 0 and count_b == 0:
        return 1.0, 1.0, 1.0
    precision = agreed / count_b if count_b else 0.0
    recall = agreed / count_a if count_a else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def dominance_brackets(tree: ParseTree) -> list[tuple[str, int, int]]:
    """Labeled brackets via dominated-leaf positions, not width accumulation.

    Non-punctuation leaves are numbered left to right; an internal node
    contributes (label, min, max+1) over the positions it dominates, nothing
    if it dominates only punctuation.
    """
    position: dict[int, int] = {}

    def number(node: ParseTree) -> None:
        if node.is_preterminal:
            if node.label != "PU":
                position[id(node)] = len(position)
            return
        for child in node.children:
            number(child)

    number(tree)

    def dominated(node: ParseTree) -> list[int]:
        if node.is_preterminal:
            return [position[id(node)]] if id(node) in position else []
        out: list[int] = []
        for child in node.children:
            out.extend(dominated(child))
        return out

    brackets: list[tuple[str, int, int]] = []

    def walk(node: ParseTree) -> None:
        if node.is_preterminal:
            return
        positions = dominated(node)
        if positions:
            brackets.append((node.label, min(positions), max(positions) + 1))
        for child in node.children:
            walk(child)

    walk(tree)
    return brackets


def resolve_endpoint(ann: DocAnnotations, ref: str) -> list[Entity]:
    if ref in ann.entities:
        return [ann.entities[ref]]
    return [ann.entities[m] for m in ann.groups[ref].members if m in ann.entities]


def seg_items(doc: Document) -> list[tuple]:
    return [
        (s.start + t.start, s.start + t.end) for s in doc.sentences for t in s.tokens
    ]


def pos_items(doc: Document) -> list[tuple]:
    return [
        (s.start + t.start, s.start + t.end, t.pos)
        for s in doc.sentences
        for t in s.tokens
    ]


def chunk_items(doc: Document) -> list[tuple]:
    return [
        (i, c.first, c.last_exclusive, c.label)
        for i, block in enumerate(doc.chunks)
        for c in block
    ]


def tree_items(doc: Document) -> list[tuple]:
    return [
        (i,) + bracket
        for i, tree in enumerate(doc.trees)
        for bracket in dominance_brackets(tree)
    ]


def entity_items(doc: Document, policy: MatchPolicy) -> list[tuple]:
    items = []
    for e in doc.annotations.entities.values():
        if policy is MatchPolicy.SPAN:
            items.append((e.start, e.end))
        elif policy is MatchPolicy.SPAN_TYPE:
            items.append((e.start, e.end, e.etype.value))
        else:
            items.append((
                e.start, e.end, e.etype.value,
                e.assertion.value if e.assertion else None,
            ))
    return items


def relation_items(doc: Document, mode: RelationMode) -> list[tuple]:
    ann = doc.annotations
    if mode is RelationMode.GROUP_PRESERVED:
        return [
            (
                r.rtype.value,
                frozenset(e.key() for e in resolve_endpoint(ann, r.arg1)),
                frozenset(e.key() for e in resolve_endpoint(ann, r.arg2)),
            )
            for r in ann.relations.values()
        ]
    pairs = set()
    for r in ann.relations.values():
        for e1 in resolve_endpoint(ann, r.arg1):
            for e2 in resolve_endpoint(ann, r.arg2):
                pairs.add((r.rtype.value, e1.key(), e2.key()))
    return sorted(pairs)


# --------------------------------------------------------- pair generation ---

def _retokenize_one(rng: random.Random, text: str, sent: Sentence) -> Sentence:
    surface = text[sent.start:sent.end]
    tokens: list[Token] = []
    rel = 0
    while rel < len(surface):
        width = rng.randint(1, min(4, len(surface) - rel))
        tokens.append(Token(
            start=rel, end=rel + width,
            surface=surface[rel:rel + width], pos=rng.choice(POS_TAGS),
        ))
        rel += width
    return Sentence(start=sent.start, tokens=tuple(tokens))


def perturb_sentences(
    rng: random.Random, text: str, sentences: list[Sentence]
) -> list[Sentence]:
    """A second annotator's token layer: some sentences re-segmented from
    scratch, the rest kept with occasional part-of-speech changes."""
    out: list[Sentence] = []
    for sent in sentences:
        if rng.random() < 0.5:
            out.append(_retokenize_one(rng, text, sent))
            continue
        tokens = tuple(
            t if rng.random() < 0.7
            else Token(t.start, t.end, t.surface, rng.choice(POS_TAGS))
            for t in sent.tokens
        )
        out.append(Sentence(start=sent.start, tokens=tokens))
    return out


def perturb_chunks(
    rng: random.Random, blocks: list[list], token_counts: list[int]
) -> list[list]:
    out: list[list] = []
    for block, n_tokens in zip(blocks, token_counts):
        kept = [c for c in block if rng.random() < 0.6]
        if rng.random() < 0.5:
            kept.extend(random_chunks(rng, n_tokens))
        out.append(kept)
    return out


def perturb_annotations(
    rng: random.Random, ann_a: DocAnnotations, text: str, sentences: list[Sentence]
) -> DocAnnotations:
    """A second annotator's entity layer derived from the first: entities are
    kept, re-attributed, or dropped; groups and relations follow, with any
    direct reference to a dropped entity pruned so everything still resolves."""
    ann = DocAnnotations(doc_id=ann_a.doc_id, text=text)
    dropped: set[str] = set()
    for tid, e in ann_a.entities.items():
        roll = rng.random()
        if roll < 0.15:
            dropped.add(tid)
            continue
        if roll < 0.30 and e.end - e.start > 1:
            e = Entity(e.eid, e.etype, e.start, e.end - 1,
                       text[e.start:e.end - 1], e.assertion)
        elif roll < 0.45:
            allowed = sorted(VALID_ASSERTIONS[e.etype], key=lambda a: a.value)
            if allowed:
                e = Entity(e.eid, e.etype, e.start, e.end, e.surface,
                           rng.choice(allowed))
        ann.entities[tid] = e
    for gid, g in ann_a.groups.items():
        if rng.random() < 0.2:
            continue
        members = tuple(m for m in g.members if m not in dropped)
        ann.groups[gid] = EntityGroup(gid, g.etype, members)
    for rid, r in ann_a.relations.items():
        if rng.random() < 0.25:
            continue
        if any(
            arg not in ann.entities and arg not in ann.groups
            for arg in (r.arg1, r.arg2)
        ):
            continue
        ann.relations[rid] = r
    extra = random_annotations(rng, ann_a.doc_id, text, sentences)
    taken = {x.key() for x in ann.entities.values()}
    for tid, e in extra.entities.items():
        if e.key() in taken:
            continue
        taken.add(e.key())
        new_id = f"T9{tid[1:]}"
        ann.entities[new_id] = Entity(
            new_id, e.etype, e.start, e.end, e.surface, e.assertion
        )
    return ann


def document_pair(rng: random.Random, doc_id: str = "d") -> tuple[Document, Document]:
    """Two annotators' versions of one document: shared text and sentence
    boundaries, annotator B's layers perturbed from A's so every layer mixes
    agreement with disagreement (tree pairs share leaves so their index
    spaces stay comparable)."""
    text, sents_a = random_sentences(rng)
    leaves = [[(t.pos or "NN", t.surface) for t in s.tokens] for s in sents_a]
    chunks_a = [random_chunks(rng, len(s.tokens)) for s in sents_a]
    ann_a = random_annotations(rng, doc_id, text, sents_a)
    doc_a = Document(
        doc_id=doc_id, text=text, sentences=sents_a, chunks=chunks_a,
        trees=[random_tree_over(rng, lv) for lv in leaves],
        annotations=ann_a,
    )
    doc_b = Document(
        doc_id=doc_id, text=text,
        sentences=perturb_sentences(rng, text, sents_a),
        chunks=perturb_chunks(rng, chunks_a, [len(s.tokens) for s in sents_a]),
        trees=[random_tree_over(rng, lv) for lv in leaves],
        annotations=perturb_annotations(rng, ann_a, text, sents_a),
    )
    return doc_a, doc_b


_POLICIES = (MatchPolicy.SPAN, MatchPolicy.SPAN_TYPE, MatchPolicy.SPAN_TYPE_ASSERTION)
_MODES = (RelationMode.ONE_TO_ONE, RelationMode.GROUP_PRESERVED)


# ---------------------------------------------------------------- criteria ---

def test_c01_agreement_equations_match_brute_force_oracle():
    started = time.perf_counter()
    rng = random.Random(1001)
    checked: Counter = Counter()
    for i in range(N_PAIRS):
        doc_a, doc_b = document_pair(rng)
        policy = _POLICIES[i % 3]
        mode = _MODES[i % 2]
        oracle_items = {
            "seg": (seg_items(doc_a), seg_items(doc_b)),
            "pos": (pos_items(doc_a), pos_items(doc_b)),
            "chunk": (chunk_items(doc_a), chunk_items(doc_b)),
            "tree": (tree_items(doc_a), tree_items(doc_b)),
            "entity": (entity_items(doc_a, policy), entity_items(doc_b, policy)),
            "relation": (relation_items(doc_a, mode), relation_items(doc_b, mode)),
        }
        for layer, (items_a, items_b) in oracle_items.items():
            corpus = corpus_agreement(
                [(doc_a, doc_b)], layer,
                policy=policy, mode=mode,
            )
            assert not corpus.has_exclusions
            expected = (
                greedy_intersection(items_a, items_b), len(items_a), len(items_b)
            )
            assert corpus.counts() == expected, (layer, i)
            report = corpus.report()
            want_p, want_r, want_f = oracle_prf(*expected)
            assert abs(report.precision - want_p) <= 1e-12, (layer, i)
            assert abs(report.recall - want_r) <= 1e-12, (layer, i)
            assert abs(report.f - want_f) <= 1e-12, (layer, i)
            checked[layer] += 1
    assert all(checked[layer] >= 1000 for layer in LAYERS)
    assert time.perf_counter() - started < 30.0


def test_c02_swapping_annotators_swaps_precision_and_recall():
    rng = random.Random(2002)
    for i in range(N_PAIRS):
        doc_a, doc_b = document_pair(rng)
        policy = _POLICIES[i % 3]
        mode = _MODES[i % 2]
        for layer in LAYERS:
            forward = corpus_agreement(
                [(doc_a, doc_b)], layer,
                policy=policy, mode=mode,
            ).report()
            reverse = corpus_agreement(
                [(doc_b, doc_a)], layer,
                policy=policy, mode=mode,
            ).report()
            assert forward.precision == reverse.recall
            assert forward.recall == reverse.precision
            assert forward.f == reverse.f

    report = prf(3, 4, 5)
    assert abs(round_half_up(report.precision, 3) - 0.600) <= 1e-12
    assert abs(round_half_up(report.recall, 3) - 0.750) <= 1e-12
    assert abs(round_half_up(report.f, 3) - 0.667) <= 1e-12


def test_c03_bracket_scoring_matches_enumeration_oracle():
    started = time.perf_counter()
    rng = random.Random(3003)

    for _ in range(50):
        tree = random_tree(rng)
        report = prf(*match_counts(tree, tree))
        assert report.precision == report.recall == report.f == 1.0

    gold = parse_tree("(IP (NP (NN a) (NN b)) (VP (VV c)))")
    cand = parse_tree("(IP (NP (NN a)) (VP (NN b) (VV c)))")
    assert match_counts(gold, cand) == (1, 3, 3)
    report = prf(*match_counts(gold, cand))
    assert report.precision == 1 / 3
    assert report.recall == 1 / 3
    assert abs(report.f - 1 / 3) <= 1e-12

    for i in range(N_TREES):
        n_leaves = rng.randint(1, 12)
        leaves = []
        for _ in range(n_leaves):
            pos = "PU" if rng.random() < 0.25 else rng.choice(NON_PUNCT_POS)
            leaves.append((pos, random_word(rng, 2)))
        tree_a = random_tree_over(rng, leaves)
        tree_b = random_tree_over(rng, leaves)
        brackets_a = dominance_brackets(tree_a)
        brackets_b = dominance_brackets(tree_b)
        expected = (
            greedy_intersection(brackets_a, brackets_b),
            len(brackets_a),
            len(brackets_b),
        )
        assert match_counts(tree_a, tree_b) == expected, i
    assert time.perf_counter() - started < 30.0


def _dual_mode_fixture() -> tuple[DocAnnotations, DocAnnotations]:
    text = "甲乙丙"

    def entities() -> dict[str, Entity]:
        return {
            "T1": Entity("T1", EntityType.SYMPTOM, 0, 1, "甲", AssertionType.PRESENT),
            "T2": Entity("T2", EntityType.SYMPTOM, 1, 2, "乙", AssertionType.PRESENT),
            "T3": Entity("T3", EntityType.DISEASE, 2, 3, "丙", AssertionType.PRESENT),
        }

    ann_a = DocAnnotations(
        doc_id="d", text=text, entities=entities(),
        groups={"G1": EntityGroup("G1", EntityType.SYMPTOM, ("T1", "T2"))},
        relations={"R1": Relation("R1", RelationType.SYMPTOM_INDICATES_DISEASE, "G1", "T3")},
    )
    ann_b = DocAnnotations(
        doc_id="d", text=text, entities=entities(),
        relations={"R1": Relation("R1", RelationType.SYMPTOM_INDICATES_DISEASE, "T1", "T3")},
    )
    return ann_a, ann_b


def test_c04_grouped_relations_dual_mode_and_expansion_size():
    ann_a, ann_b = _dual_mode_fixture()

    grouped = prf(*relation_counts(ann_a, ann_b, RelationMode.GROUP_PRESERVED))
    assert grouped.f == 0.0

    counts = relation_counts(ann_a, ann_b, RelationMode.ONE_TO_ONE)
    assert counts == (1, 2, 1)
    expanded = prf(*counts)
    assert abs(round_half_up(expanded.f, 3) - 0.667) <= 1e-9

    rng = random.Random(4004)
    for _ in range(1000):
        size1, size2 = rng.randint(1, 4), rng.randint(1, 4)
        ann = DocAnnotations(doc_id="d", text="")
        for j in range(size1):
            tid = f"T{j + 1}"
            ann.entities[tid] = Entity(
                tid, EntityType.SYMPTOM, 2 * j, 2 * j + 1, "症",
                AssertionType.PRESENT,
            )
        for j in range(size2):
            tid = f"T{100 + j}"
            ann.entities[tid] = Entity(
                tid, EntityType.DISEASE, 100 + 2 * j, 101 + 2 * j, "病",
                AssertionType.PRESENT,
            )
        ann.groups["G1"] = EntityGroup(
            "G1", EntityType.SYMPTOM, tuple(f"T{j + 1}" for j in range(size1))
        )
        ann.groups["G2"] = EntityGroup(
            "G2", EntityType.DISEASE, tuple(f"T{100 + j}" for j in range(size2))
        )
        relation = Relation("R1", RelationType.SYMPTOM_INDICATES_DISEASE, "G1", "G2")
        assert len(expand_relation(ann, relation)) == size1 * size2


def test_c05_reference_tables_internally_consistent():
    started = time.perf_counter()

    # Token table: counts sum to the corpus size and every percentage cell
    # is reproduced from its count.
    assert sum(count for _, count, _ in POS_DISTRIBUTION) == TOTAL_TOKENS
    for label, count, pct in POS_DISTRIBUTION:
        assert matches_display(100.0 * count / TOTAL_TOKENS, pct, 0.01), label
    assert round_half_up(100.0 * 14782 / TOTAL_TOKENS, 2) == 31.17

    rows = [
        DistributionRow(label, count, round_half_up(100.0 * count / TOTAL_TOKENS, 2))
        for label, count, _ in POS_DISTRIBUTION
        if count > 0
    ]
    assert compare_reference(rows, POS_DISTRIBUTION) == []

    syn_total = sum(count for _, count, _ in SYN_DISTRIBUTION)
    for label, count, pct in SYN_DISTRIBUTION:
        assert matches_display(100.0 * count / syn_total, pct, 0.01), label

    # Entity/assertion table: per-type blocks add up to their totals, the
    # totals add up to the corpus entity count.
    totals = {
        label.split(":")[0]: count
        for label, count, _, _ in ENTITY_ASSERTION_TABLE
        if label.endswith(":total")
    }
    assert sum(totals.values()) == TOTAL_ENTITIES
    assert matches_display(100.0 * totals["disease"] / TOTAL_ENTITIES, "21.08", 0.01)
    block_sums: Counter = Counter()
    for label, count, pct_within, pct_all in ENTITY_ASSERTION_TABLE:
        etype, _, assertion = label.partition(":")
        if assertion != "total":
            block_sums[etype] += count
            assert matches_display(100.0 * count / totals[etype], pct_within, 0.01), label
        assert matches_display(100.0 * count / TOTAL_ENTITIES, pct_all, 0.01), label
    for etype, total in totals.items():
        if block_sums[etype]:  # the test block publishes no per-assertion rows
            assert block_sums[etype] == total, etype

    # Relation table: members add up to their pair subtotals, subtotals to
    # the table total; percentages reproduce from the counts.
    subtotals = {
        label: count for label, count, _, _ in RELATION_TABLE if label.startswith("R(")
    }
    assert subtotals["R(Tr, S)"] == 2020
    assert sum(subtotals.values()) == RELATION_TABLE_TOTAL == 7691
    assert round_half_up(100.0 * 613 / 2020, 2) == 30.35
    members: list[tuple[str, int, str, str]] = []
    for label, count, pct_within, pct_all in RELATION_TABLE:
        if label.startswith("R("):
            assert sum(c for _, c, _, _ in members) == count, label
            for m_label, m_count, m_within, _ in members:
                assert matches_display(100.0 * m_count / count, m_within, 0.01), m_label
            members = []
            assert matches_display(100.0, pct_within, 0.01)
        else:
            members.append((label, count, pct_within, pct_all))
        assert matches_display(
            100.0 * count / RELATION_TABLE_TOTAL, pct_all, 0.01
        ), label
    assert not members

    assert time.perf_counter() - started < 5.0


def test_c06_average_sentence_length_on_synthetic_corpus():
    sizes = [19] * 1470 + [18] * 1083
    assert sum(sizes) == 47424 and len(sizes) == 2553
    docs: list[Document] = []
    per_doc = 851
    for d in range(3):
        chunk = sizes[d * per_doc:(d + 1) * per_doc]
        sentences = []
        cursor = 0
        for n_tokens in chunk:
            tokens = tuple(
                Token(start=i, end=i + 1, surface="字") for i in range(n_tokens)
            )
            sentences.append(Sentence(start=cursor, tokens=tokens))
            cursor += n_tokens + 1
        docs.append(Document(doc_id=f"d{d}", text="", sentences=sentences))
    assert token_and_sentence_counts(docs) == (47424, 2553)
    assert abs(avg_sentence_length(docs) - 18.58) <= 0.005


def test_c07_convergence_fixtures():
    policy = ConvergencePolicy(window=3, tau={"segmentation": 0.96})
    assert check_convergence([0.965, 0.979, 0.983], policy, "segmentation") is True

    policy = ConvergencePolicy(window=3, tau={"entity": 0.85})
    assert check_convergence([0.805, 0.840, 0.865], policy, "entity") is False


def test_c08_kfold_sizes_partition_and_determinism():
    ids = [f"doc{i:03d}" for i in range(992)]
    expected_sizes = [99] * 8 + [100] * 2

    manifest = kfold(ids, 10, 7)
    assert sorted(len(fold) for fold in manifest.folds) == expected_sizes

    for seed in range(100):
        first = kfold(ids, 10, seed)
        second = kfold(ids, 10, seed)
        assert first.folds == second.folds
        flat = [doc for fold in first.folds for doc in fold]
        assert len(flat) == 992
        assert set(flat) == set(ids)
        assert sorted(len(fold) for fold in first.folds) == expected_sizes


def _mutate(rng: random.Random, content: str) -> str:
    chars = "\t()0123456789TAGRX: #字\n"
    out = content
    for _ in range(rng.randint(1, 3)):
        if not out:
            break
        op = rng.randrange(3)
        pos = rng.randrange(len(out))
        if op == 0:
            out = out[:pos] + rng.choice(chars) + out[pos:]
        elif op == 1:
            out = out[:pos] + out[pos + 1:]
        else:
            out = out[:pos] + rng.choice(chars) + out[pos + 1:]
    return out


_TOK_BAD = [
    "0\t2\t发热\tXX\n",
    "0\tx\t发热\tNN\n",
    "0\t2\t发热\tNN\n1\t3\t咳\tNN\n",
    "2\t2\t发\tNN\n",
    "0\t2\n",
    "5\t3\t发\tNN\n",
]
_PTB_BAD = [
    "(IP (NN a)\n",
    "(ZZ (NN a))\n",
    "(IP (QQ a))\n",
    "(IP)\n",
    "(IP (NN a)))\n",
]
_CHK_BAD = [
    "0\ta\tNP\n",
    "0\t1\n",
    "1\t1\tNP\n",
    "-1\t1\tNP\n",
]
_ANN_BAD = [
    "T1\tdrug 0 1\tx\n",
    "T1\tdisease 0 1\tx\nT1\tdisease 1 2\ty\n",
    "A1\tpresent T9\n",
    "A1\tmaybe T1\n",
    "G1\tdisease T4\n",
    "R1\tSID Arg1:T1 Arg2:T2\n",
    "T1\tdisease 0 1\tx\nA1\tpresent T1\nA2\tabsent T1\n",
    "X1\tfoo\n",
]


def test_c09_round_trip_identity_and_fuzz_never_crashes(tmp_path):
    rng = random.Random(9009)
    for i in range(N_BUNDLES):
        doc = random_document(rng, f"d{i:03d}")

        tok = serialize_tok(doc.sentences)
        assert parse_tok(tok) == doc.sentences
        assert serialize_tok(parse_tok(tok)) == tok

        ptb = serialize_ptb(doc.trees)
        assert parse_ptb(ptb) == doc.trees
        assert serialize_ptb(parse_ptb(ptb)) == ptb

        chk = serialize_chk(doc.chunks)
        assert parse_chk(chk) == doc.chunks
        assert serialize_chk(parse_chk(chk)) == chk

        ann = serialize_ann(doc.annotations)
        assert parse_ann(ann, doc_id=doc.doc_id, text=doc.text) == doc.annotations
        assert serialize_ann(parse_ann(ann)) == ann

    # Surfaces holding characters that str.splitlines() treats as line breaks.
    for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        surface = f"发{ch}热"
        sents = [Sentence(0, (Token(0, 3, surface, "NN"), Token(3, 4, ch, "PU")))]
        tok = serialize_tok(sents)
        assert parse_tok(tok) == sents
        assert serialize_tok(parse_tok(tok)) == tok
        entities = {"T1": Entity("T1", EntityType.TEST, 0, 3, surface)}
        doc_ann = DocAnnotations("d", surface + ch, entities=entities)
        ann = serialize_ann(doc_ann)
        assert parse_ann(ann, doc_id="d", text=surface + ch) == doc_ann
        assert serialize_ann(parse_ann(ann)) == ann
    # A carriage return is a line ending, so no surface may hold one.
    for bad in ("发\r", "发\r热"):
        with pytest.raises(InputError):
            serialize_tok([Sentence(0, (Token(0, len(bad), bad, "NN"),))])
        with pytest.raises(InputError):
            serialize_ann(DocAnnotations("d", bad, entities={
                "T1": Entity("T1", EntityType.TEST, 0, len(bad), bad)}))

    # Tree leaves: a surface holding a bracket or a character the tree
    # reader splits at (every code point Python's `\s` matches) is refused;
    # any other non-empty surface round-trips.
    leaf_breaks = set(
        "()\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000"
    ) | {chr(c) for c in range(0x2000, 0x200B)}
    ordinary = "发热+-/（）[]\u200b\ufeff"
    alphabet = sorted(leaf_breaks) + list(ordinary)
    tree_rng = random.Random(9013)
    surfaces = ["", "(+)", "a　b"] + [
        "".join(tree_rng.choices(alphabet, k=tree_rng.randint(1, 4))) for _ in range(2000)
    ]
    for surface in surfaces:
        tree = ParseTree("IP", (ParseTree("NN", surface=surface),
                                ParseTree("PU", surface="。")))
        if not surface or leaf_breaks & set(surface):
            with pytest.raises(InputError):
                serialize_ptb([tree])
        else:
            ptb = serialize_ptb([tree])
            assert parse_ptb(ptb) == [tree]
            assert serialize_ptb(parse_ptb(ptb)) == ptb

    # The same identity through actual files.
    disk_rng = random.Random(9010)
    root = tmp_path / "bundles"
    originals = {f"f{i:02d}": random_document(disk_rng, f"f{i:02d}") for i in range(25)}
    for doc in originals.values():
        write_bundle(root, doc)
    loaded = load_corpus(root)
    assert set(loaded) == set(originals)
    for doc_id, doc in originals.items():
        got = loaded[doc_id]
        assert got.sentences == doc.sentences
        assert got.trees == doc.trees
        assert got.chunks == doc.chunks
        assert got.annotations == doc.annotations
        assert (root / f"{doc_id}.tok").read_text("utf-8") == serialize_tok(got.sentences)
        assert (root / f"{doc_id}.ann").read_text("utf-8") == serialize_ann(got.annotations)

    # Known-malformed inputs: always a located parse error.
    cases = [
        (parse_tok, "bad.tok", _TOK_BAD),
        (parse_ptb, "bad.ptb", _PTB_BAD),
        (parse_chk, "bad.chk", _CHK_BAD),
        (parse_ann, "bad.ann", _ANN_BAD),
    ]
    for parser, path, contents in cases:
        for content in contents:
            with pytest.raises(ParseError) as excinfo:
                parser(content, path=path)
            assert excinfo.value.path == path
            assert excinfo.value.line is not None and excinfo.value.line >= 1

    # Random mutations: a clean parse or a ParseError, never anything else.
    base = random_document(random.Random(9011), "fuzz")
    fuzz_rng = random.Random(9012)
    layers = [
        (parse_tok, "f.tok", serialize_tok(base.sentences)),
        (parse_ptb, "f.ptb", serialize_ptb(base.trees)),
        (parse_chk, "f.chk", serialize_chk(base.chunks)),
        (parse_ann, "f.ann", serialize_ann(base.annotations)),
    ]
    for parser, path, content in layers:
        for _ in range(250):
            mutated = _mutate(fuzz_rng, content)
            try:
                parser(mutated, path=path)
            except ParseError as exc:
                assert exc.path == path
                assert exc.line is None or exc.line >= 1


def _signature_diagnostics(rtype: RelationType, t1: EntityType, t2: EntityType) -> set[str]:
    def make(tid: str, etype: EntityType, start: int) -> Entity:
        allowed = sorted(VALID_ASSERTIONS[etype], key=lambda a: a.value)
        return Entity(
            tid, etype, start, start + 1, "甲乙"[start],
            allowed[0] if allowed else None,
        )

    ann = DocAnnotations(
        doc_id="d", text="甲乙",
        entities={"T1": make("T1", t1, 0), "T2": make("T2", t2, 1)},
        relations={"R1": Relation("R1", rtype, "T1", "T2")},
    )
    return {d.rule for d in validate_annotations(ann)}


def test_c10_validity_matrix_and_relation_signatures():
    combinations = [(e, a) for e in EntityType for a in AssertionType]
    assert len(combinations) == 28
    valid = {(e, a) for e, a in combinations if assertion_valid(e, a)}
    assert len(valid) == 15

    by_type = Counter(e for e, _ in valid)
    assert by_type[EntityType.DISEASE] == 6
    assert by_type[EntityType.SYMPTOM] == 6
    assert by_type[EntityType.TREATMENT] == 3
    assert by_type[EntityType.TEST] == 0
    assert {a for e, a in valid if e is EntityType.TREATMENT} == {
        AssertionType.PRESENT, AssertionType.ABSENT, AssertionType.HISTORICAL,
    }

    assert len(list(RelationType)) == 15
    for rtype in RelationType:
        t1, t2 = relation_signature(rtype)
        assert t1 is not t2
        assert _signature_diagnostics(rtype, t1, t2) == set()
        assert "signature-mismatch" in _signature_diagnostics(rtype, t2, t1)
