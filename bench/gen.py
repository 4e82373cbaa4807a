"""Seeded synthetic inputs for the CLI benchmark.

    python3 bench/gen.py --part {big,pair,extras} --seed 1 --out DIR

writes one part of the inputs under DIR, plus a manifest.json holding what
was injected and every answer the generator knows:

    big     corpus A at 9,920 documents, all five layers, about 1% of
            documents carrying one seeded guideline violation each
    pair    a/: corpus A at 992 documents (the first 992 documents of big);
            b/: a seeded perturbation of a/ (merged tokens, retagged POS,
            rebuilt trees, dropped or retyped entities, dropped relations,
            truncated chunk layers)
    extras  expand/: dense standoff files for `clincorp expand`;
            lexicon.tsv: a term lexicon for `clincorp seg-advise`

Documents have 1-4 sentences of 10-27 tokens and alternate between
discharge_summary/ and progress_note/.  Document i of a corpus depends only on
(seed, i), so pair's a/ is a prefix of big.  Every file is written with the
library's own serializers; nothing here imports the test helpers, so editing
the tests cannot change the benchmark's inputs.  The manifest's answers are
computed from the generator's in-memory objects, never by running the
program under test.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from clincorp.annio import serialize_ann, serialize_chk, serialize_ptb, serialize_tok  # noqa: E402
from clincorp.model import (  # noqa: E402
    DOC_TYPES,
    Chunk,
    DocAnnotations,
    Entity,
    EntityGroup,
    Relation,
    Sentence,
    Token,
)
from clincorp.parseval import ParseTree  # noqa: E402
from clincorp.tagsets import (  # noqa: E402
    POS_TAGS,
    SYN_TAGS,
    AssertionType,
    VALID_ASSERTIONS,
    EntityType,
    RelationType,
    relation_signature,
)

BIG_DOCS = 9920
SMALL_DOCS = 992
EXPAND_FILES = 16
LEXICON_TERMS = 240
QUERY_TERMS = 32

ALPHABET = "患者有发热咳嗽头痛腹泻心悸糖尿病高血压检查治疗示无明显好转恶化入院出院后续用药情况稳定血常规肝功能胸片阴性阳性"
PUNCT = "，。；、"
NON_PUNCT_POS = tuple(t for t in POS_TAGS if t != "PU")
CHUNK_LABELS = ("NP", "VP", "ADJP", "ADVP", "QP", "PP", "DNP")
ENTITY_TYPES = tuple(EntityType)
RELATION_TYPES = tuple(RelationType)

# Seeded guideline violations.  Each kind yields exactly one validator
# finding with the named rule id.
VIOLATIONS = (
    "assertion-missing",
    "assertion-invalid",
    "duplicate-annotation",
    "signature-mismatch",
    "unknown-label",
)
VIOLATION_RATE = 0.01


@dataclass(slots=True)
class Doc:
    """One generated document, layer by layer."""

    doc_id: str
    text: str
    sentences: list[Sentence]
    trees: list[ParseTree]
    chunks: list[list[Chunk]]
    ann: DocAnnotations


def doc_id_of(i: int) -> str:
    return f"{DOC_TYPES[i % 2]}/doc{i:05d}"


# ------------------------------------------------------------- documents ---

# The functions below draw with rng.random() and index directly: a few times
# faster than choice/randint/sample, which keeps a 10k corpus quick to write.

def _pick(r, seq):
    return seq[int(r() * len(seq))]


def _sentences(rng: random.Random) -> tuple[str, list[Sentence]]:
    r = rng.random
    parts: list[str] = []
    sentences: list[Sentence] = []
    cursor = 0
    for _ in range(1 + int(4 * r())):
        rel = 0
        tokens = []
        for _ in range(10 + int(18 * r())):
            if r() < 0.1:
                surface, pos = _pick(r, PUNCT), "PU"
            else:
                surface = "".join([_pick(r, ALPHABET) for _ in range(1 + int(3 * r()))])
                pos = _pick(r, NON_PUNCT_POS)
            tokens.append(Token(rel, rel + len(surface), surface, pos))
            rel += len(surface)
        sentences.append(Sentence(cursor, tuple(tokens)))
        parts.append("".join([t.surface for t in tokens]))
        cursor += rel + 1
    return "\n".join(parts), sentences


def _tree(rng: random.Random, sent: Sentence) -> ParseTree:
    """A random bracketing over the sentence's tokens: every internal node
    has 2-4 children and a label from the syntactic tagset; the root is IP."""
    r = rng.random
    leaves = [ParseTree(t.pos, (), t.surface) for t in sent.tokens]

    def build(lo: int, hi: int, label: str) -> ParseTree:
        k = 2 + int(r() * (min(4, hi - lo) - 1))
        cuts: set[int] = set()
        while len(cuts) < k - 1:
            cuts.add(lo + 1 + int(r() * (hi - lo - 1)))
        bounds = [lo, *sorted(cuts), hi]
        kids = tuple(
            leaves[a] if b - a == 1 else build(a, b, _pick(r, SYN_TAGS))
            for a, b in zip(bounds, bounds[1:])
        )
        return ParseTree(label, kids)

    return build(0, len(leaves), "IP")


def _chunks(rng: random.Random, n_tokens: int) -> list[Chunk]:
    r = rng.random
    out = []
    i = 0
    while i < n_tokens:
        last = min(n_tokens, i + 1 + int(3 * r()))
        if r() < 0.7:
            out.append(Chunk(i, last, _pick(r, CHUNK_LABELS)))
        i = last
    return out


def _token_span(rng: random.Random, sent: Sentence) -> tuple[int, int]:
    k = rng.randrange(len(sent.tokens))
    width = 1 if k + 1 == len(sent.tokens) else rng.randint(1, 2)
    s, _ = sent.abs_span(sent.tokens[k])
    _, e = sent.abs_span(sent.tokens[k + width - 1])
    return s, e


def _assertion(rng: random.Random, etype: EntityType):
    allowed = sorted(VALID_ASSERTIONS[etype], key=lambda a: a.value)
    return rng.choice(allowed) if allowed else None


def _annotations(
    rng: random.Random, doc_id: str, text: str, sentences: list[Sentence],
    per_sentence: tuple[int, int] = (0, 4), p_group: float = 0.4,
    p_relation: float = 0.3,
) -> DocAnnotations:
    """Entities, groups and relations that pass validation: every span lies in
    one sentence, assertions are admissible, groups are homogeneous and
    same-sentence, relation endpoints match their signature."""
    ann = DocAnnotations(doc_id=doc_id, text=text)
    keys: set[tuple] = set()
    for sent in sentences:
        by_type: dict[EntityType, list[str]] = {}
        for _ in range(rng.randint(*per_sentence)):
            s, e = _token_span(rng, sent)
            etype = rng.choice(ENTITY_TYPES)
            if (s, e, etype.value) in keys:
                continue
            keys.add((s, e, etype.value))
            tid = f"T{len(ann.entities) + 1}"
            ann.entities[tid] = Entity(tid, etype, s, e, text[s:e], _assertion(rng, etype))
            by_type.setdefault(etype, []).append(tid)
        endpoints = {t: list(ids) for t, ids in by_type.items()}
        for etype, tids in by_type.items():
            if len(tids) >= 2 and rng.random() < p_group:
                gid = f"G{len(ann.groups) + 1}"
                members = tuple(sorted(rng.sample(tids, rng.randint(2, len(tids)))))
                ann.groups[gid] = EntityGroup(gid, etype, members)
                endpoints[etype].append(gid)
        for rtype in RELATION_TYPES:
            t1, t2 = relation_signature(rtype)
            if t1 in endpoints and t2 in endpoints and rng.random() < p_relation:
                arg1, arg2 = rng.choice(endpoints[t1]), rng.choice(endpoints[t2])
                rid = f"R{len(ann.relations) + 1}"
                ann.relations[rid] = Relation(rid, rtype, arg1, arg2)
    return ann


def _fresh_entity(
    rng: random.Random, ann: DocAnnotations, sent: Sentence, etype: EntityType,
    assertion,
) -> str:
    """Add an entity of `etype` on a token span of `sent` whose key is unused."""
    used = {e.key() for e in ann.entities.values()}
    while True:
        s, e = _token_span(rng, sent)
        if (s, e, etype.value) not in used:
            break
    tid = f"T{_next_id(ann.entities)}"
    ann.entities[tid] = Entity(tid, etype, s, e, ann.text[s:e], assertion)
    return tid


def _next_id(ids) -> int:
    return max((int(k[1:]) for k in ids), default=0) + 1


def _inject(rng: random.Random, doc: Doc, kind: str) -> None:
    """Apply one guideline violation that the parsers accept and the
    validator reports exactly once."""
    ann, sent = doc.ann, doc.sentences[0]
    if kind == "assertion-missing":
        _fresh_entity(rng, ann, sent, EntityType.DISEASE, None)
    elif kind == "assertion-invalid":
        _fresh_entity(rng, ann, sent, EntityType.TEST, AssertionType.PRESENT)
    elif kind == "duplicate-annotation":
        if not ann.entities:
            _fresh_entity(rng, ann, sent, EntityType.TEST, None)
        base = ann.entities[sorted(ann.entities, key=lambda k: int(k[1:]))[0]]
        tid = f"T{_next_id(ann.entities)}"
        ann.entities[tid] = Entity(
            tid, base.etype, base.start, base.end, base.surface, base.assertion
        )
    elif kind == "signature-mismatch":
        sym = _fresh_entity(rng, ann, sent, EntityType.SYMPTOM, _assertion(rng, EntityType.SYMPTOM))
        dis = _fresh_entity(rng, ann, sent, EntityType.DISEASE, _assertion(rng, EntityType.DISEASE))
        rid = f"R{_next_id(ann.relations)}"
        ann.relations[rid] = Relation(rid, RelationType.TR_IMPROVES_DISEASE, sym, dis)
    else:  # unknown-label
        block = doc.chunks[0]
        if block:
            c = block[0]
            block[0] = Chunk(c.first, c.last_exclusive, "XP")
        else:
            block.append(Chunk(0, 1, "XP"))


def make_doc(seed: int, i: int) -> tuple[Doc, str | None]:
    """Document i of corpus A, plus the violation kind injected into it."""
    rng = random.Random(f"{seed}:a:{i}")
    doc_id = doc_id_of(i)
    text, sentences = _sentences(rng)
    trees = [_tree(rng, s) for s in sentences]
    chunks = [_chunks(rng, len(s.tokens)) for s in sentences]
    ann = _annotations(rng, doc_id, text, sentences)
    doc = Doc(doc_id, text, sentences, trees, chunks, ann)
    kind = None
    if rng.random() < VIOLATION_RATE:
        kind = rng.choice(VIOLATIONS)
        _inject(rng, doc, kind)
    return doc, kind


# ---------------------------------------------------------- perturbation ---

def _referenced(ann: DocAnnotations) -> set[str]:
    refs = {m for g in ann.groups.values() for m in g.members}
    refs.update(r.arg1 for r in ann.relations.values())
    refs.update(r.arg2 for r in ann.relations.values())
    return refs


def perturb(seed: int, i: int, a: Doc) -> Doc:
    """Annotator B's version of document i: same text, disagreeing layers."""
    rng = random.Random(f"{seed}:b:{i}")
    sentences, trees, chunks = [], [], []
    for sent, tree, block in zip(a.sentences, a.trees, a.chunks):
        toks = list(sent.tokens)
        changed = False
        if rng.random() < 0.3:
            # Merge two adjacent non-punctuation tokens: the sentence's
            # scorable leaf count drops by one, so tree scoring excludes it.
            pairs = [k for k in range(len(toks) - 1)
                     if toks[k].pos != "PU" and toks[k + 1].pos != "PU"]
            if pairs:
                k = rng.choice(pairs)
                t0, t1 = toks[k], toks[k + 1]
                toks[k:k + 2] = [Token(t0.start, t1.end, t0.surface + t1.surface, t0.pos)]
                changed = True
        for k, t in enumerate(toks):
            if t.pos != "PU" and rng.random() < 0.08:
                pos = rng.choice([p for p in NON_PUNCT_POS if p != t.pos])
                toks[k] = Token(t.start, t.end, t.surface, pos)
                changed = True
        new_sent = Sentence(sent.start, tuple(toks))
        sentences.append(new_sent)
        if changed or rng.random() < 0.2:
            trees.append(_tree(rng, new_sent))
        else:
            trees.append(tree)
        if len(toks) != len(sent.tokens) or rng.random() < 0.2:
            chunks.append(_chunks(rng, len(toks)))
        else:
            chunks.append(list(block))
    if rng.random() < 0.03:
        chunks.pop()  # unfinished chunk layer: the document is excluded

    ann = DocAnnotations(doc_id=a.doc_id, text=a.text)
    ann.groups = dict(a.ann.groups)
    ann.relations = {
        rid: r for rid, r in a.ann.relations.items() if rng.random() >= 0.15
    }
    refs = _referenced(ann)
    keys_a = {e.key() for e in a.ann.entities.values()}
    for tid, e in a.ann.entities.items():
        if tid in refs:
            ann.entities[tid] = e
            continue
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.15:
            options = [t for t in ENTITY_TYPES
                       if (e.start, e.end, t.value) not in keys_a]
            if options:
                t = rng.choice(options)
                e = Entity(tid, t, e.start, e.end, e.surface, e.assertion)
        ann.entities[tid] = e
    return Doc(a.doc_id, a.text, sentences, trees, chunks, ann)


# --------------------------------------------------------------- writing ---

def write_doc(root: Path, doc: Doc) -> None:
    stem = f"{root}/{doc.doc_id}"
    for suffix, content in (
        (".txt", doc.text),
        (".tok", serialize_tok(doc.sentences)),
        (".ptb", serialize_ptb(doc.trees)),
        (".chk", serialize_chk(doc.chunks)),
        (".ann", serialize_ann(doc.ann)),
    ):
        with open(stem + suffix, "wb") as f:
            f.write(content.encode("utf-8"))


# Agreement keys per layer, as the format documentation defines them: a
# token by its absolute span (plus POS when labeled), a chunk by its token
# range and label within an aligned sentence, an entity by span and type, an
# expanded relation by its type and both endpoint entity keys.

def _token_keys(doc: Doc, labeled: bool = False) -> Counter:
    return Counter(
        (*s.abs_span(t), t.pos) if labeled else s.abs_span(t)
        for s in doc.sentences for t in s.tokens
    )


def _chunk_keys(doc: Doc) -> list[Counter]:
    return [Counter((c.first, c.last_exclusive, c.label) for c in b) for b in doc.chunks]


def _entity_keys(doc: Doc) -> Counter:
    return Counter(e.key() for e in doc.ann.entities.values())


def _relation_keys(ann: DocAnnotations) -> Counter:
    """Distinct (type, arg1 key, arg2 key) pairs over every relation."""
    def members(ref: str) -> list[Entity]:
        if ref in ann.entities:
            return [ann.entities[ref]]
        return [ann.entities[m] for m in ann.groups[ref].members]

    return Counter({
        (r.rtype.value, x.key(), y.key())
        for r in ann.relations.values()
        for x in members(r.arg1)
        for y in members(r.arg2)
    })


def _add(acc: dict, ka: Counter, kb: Counter) -> None:
    acc["agreed"] += sum((ka & kb).values())
    acc["count_a"] += sum(ka.values())
    acc["count_b"] += sum(kb.values())


def _lexicon(rng: random.Random) -> tuple[list[str], dict[str, list[str]]]:
    """Lexicon rows plus, for a sample of query terms, the rule trail the
    decision table must produce (R1 keep, R2 expand, R3 split, R4 keep)."""
    surfaces: list[str] = []
    seen: set[str] = set()
    while len(surfaces) < LEXICON_TERMS:
        w = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(2, 5)))
        if w not in seen:
            seen.add(w)
            surfaces.append(w)
    rows: list[str] = []
    trail: dict[str, list[str]] = {}
    for k, w in enumerate(surfaces):
        # Every fourth term is an abbreviation expanding to an earlier term,
        # possibly another abbreviation, so trails run up to three deep.
        if k >= 8 and k % 4 == 0:
            target = rng.choice([t for t in surfaces[:k] if len(trail[t]) < 3])
            rows.append(f"{w}\tfalse\ttrue\ttrue\tfalse\t{target}\t-")
            trail[w] = ["R2", *trail[target]]
            continue
        rule = rng.choice(("R1", "R3", "R4"))
        if rule == "R1":
            nominal = rng.choice(("true", "false"))
            comb = "false" if nominal == "false" else rng.choice(("true", "false"))
            rows.append(f"{w}\t{nominal}\t{comb}\tfalse\tfalse\t-\t-")
        elif rule == "R3":
            rows.append(f"{w}\tfalse\ttrue\tfalse\ttrue\t-\t{rng.randint(1, len(w) - 1)}")
        else:
            rows.append(f"{w}\tfalse\ttrue\tfalse\tfalse\t-\t-")
        trail[w] = [rule]
    queries = rng.sample(surfaces, QUERY_TERMS)
    return rows, {q: trail[q] for q in queries}


def gen_big(seed: int, out: Path, n_docs: int = BIG_DOCS) -> dict:
    """Corpus A at `n_docs` documents, with its seeded violations."""
    for t in DOC_TYPES:
        (out / t).mkdir(parents=True, exist_ok=True)
    violations = []
    for i in range(n_docs):
        doc, kind = make_doc(seed, i)
        write_doc(out, doc)
        if kind is not None:
            violations.append([doc.doc_id, kind])
    return {"docs": n_docs, "violations": violations}


def gen_pair(seed: int, out: Path, n_docs: int = SMALL_DOCS) -> dict:
    """Corpus A at `n_docs` documents under a/ and its perturbation under b/,
    with the agreement counts and exclusions the pair must produce."""
    for sub in ("a", "b"):
        for t in DOC_TYPES:
            (out / sub / t).mkdir(parents=True, exist_ok=True)
    iaa = {layer: {"agreed": 0, "count_a": 0, "count_b": 0}
           for layer in ("seg", "pos", "chunk", "entity", "relation")}
    sentences = tokens = entities = expanded = constituents = 0
    tree_excluded: dict[str, list[int]] = {}
    chunk_excluded: list[str] = []
    for i in range(n_docs):
        a, _ = make_doc(seed, i)
        b = perturb(seed, i, a)
        write_doc(out / "a", a)
        write_doc(out / "b", b)
        _add(iaa["seg"], _token_keys(a), _token_keys(b))
        _add(iaa["pos"], _token_keys(a, True), _token_keys(b, True))
        _add(iaa["entity"], _entity_keys(a), _entity_keys(b))
        _add(iaa["relation"], _relation_keys(a.ann), _relation_keys(b.ann))
        if len(a.chunks) == len(b.chunks):
            for ka, kb in zip(_chunk_keys(a), _chunk_keys(b)):
                _add(iaa["chunk"], ka, kb)
        else:
            chunk_excluded.append(a.doc_id)
        sentences += len(a.sentences)
        tokens += sum(len(s.tokens) for s in a.sentences)
        entities += len(a.ann.entities)
        expanded += len(_relation_keys(a.ann))
        constituents += sum(
            1 for t in a.trees for n in t.nodes() if not n.is_preterminal
        )
        merged = [j for j, (sa, sb) in enumerate(zip(a.sentences, b.sentences))
                  if len(sa.tokens) != len(sb.tokens)]
        if merged:
            tree_excluded[a.doc_id] = merged
    return {
        "docs": n_docs,
        "sentences": sentences,
        "tokens": tokens,
        "entities": entities,
        "relations_expanded": expanded,
        "constituents": constituents,
        "iaa": iaa,
        "tree_excluded": tree_excluded,
        "chunk_excluded": sorted(chunk_excluded),
    }


def gen_extras(seed: int, out: Path) -> dict:
    """Dense standoff files for `expand` and a lexicon for `seg-advise`."""
    (out / "expand").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{seed}:expand")
    expand = {}
    for k in range(EXPAND_FILES):
        text, sentences = _sentences(rng)
        ann = _annotations(rng, f"e{k:02d}", text, sentences, per_sentence=(6, 10),
                           p_group=0.8, p_relation=0.6)
        name = f"e{k:02d}.ann"
        (out / "expand" / name).write_text(serialize_ann(ann), encoding="utf-8")
        expand[name] = len(_relation_keys(ann))
    rows, queries = _lexicon(random.Random(f"{seed}:lexicon"))
    (out / "lexicon.tsv").write_text(
        "# surface\tnominal\tcombinable\treducible\treplaceable\texpansion\tsplit\n"
        + "".join(r + "\n" for r in rows), encoding="utf-8",
    )
    return {"expand": expand, "seg_advise": queries}


PARTS = {"big": gen_big, "pair": gen_pair, "extras": gen_extras}


def generate(part: str, seed: int, out: Path) -> dict:
    """Write one input part for `seed` under `out`.  The manifest is written
    last, so its presence marks a complete part."""
    manifest = {"part": part, "seed": seed, **PARTS[part](seed, out)}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Write seeded benchmark inputs.")
    p.add_argument("--part", choices=sorted(PARTS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    generate(args.part, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
