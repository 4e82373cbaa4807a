"""Toolkit for multilayer annotation of Chinese clinical text.

The package models a corpus annotated on six layers (word segmentation,
part of speech, chunks, constituency trees, clinical entities with
assertions, and entity-group relations), reads and writes the interchange
formats, validates every layer, measures inter-annotator agreement, computes
corpus statistics against bundled reference tables, and drives the iterative
annotation workflow (sampling rounds, duplicate assignment, convergence
checks, k-fold splits).
"""
from .agreement import (
    LAYERS,
    AgreementReport,
    CorpusAgreement,
    MatchPolicy,
    RelationMode,
    add_counts,
    chunk_counts,
    corpus_agreement,
    entity_counts,
    macro_average,
    prf,
    relation_counts,
    score_trees,
    token_counts,
    tree_counts,
)
from .annio import (
    BundlePaths,
    discover,
    load_corpus,
    load_document,
    parse_ann,
    parse_chk,
    parse_ptb,
    parse_tok,
    serialize_ann,
    serialize_chk,
    serialize_ptb,
    serialize_tok,
)
from .errors import (
    ClincorpError,
    InputError,
    LengthMismatchError,
    LexiconError,
    ParseError,
    ResolutionError,
)
from .groups import (
    OneToOne,
    endpoint_entities,
    endpoint_key,
    expand_all,
    expand_relation,
    relation_match_key,
)
from .model import (
    DOC_TYPES,
    Chunk,
    DocAnnotations,
    Document,
    Entity,
    EntityGroup,
    Relation,
    Sentence,
    Token,
)
from .numfmt import fmt_metric, fmt_percent, round_half_up
from .parseval import (
    EvalParams,
    ParseTree,
    TreeScore,
    brackets,
    match_counts,
    parse_tree,
    score_corpus,
)
from .segadvice import (
    MAX_EXPANSION_DEPTH,
    SegDecision,
    TermEntry,
    advise,
    advise_chain,
    load_lexicon,
)
from .stats import (
    CrossRow,
    Deviation,
    DistributionRow,
    assertion_cross_table,
    avg_sentence_length,
    compare_reference,
    distribution,
    reference_column,
    relation_table,
    token_and_sentence_counts,
)
from .tagsets import (
    POS_TAGS,
    SYN_TAGS,
    VALID_ASSERTIONS,
    AssertionType,
    EntityType,
    RelationType,
    assertion_valid,
    normalize_syn_tag,
    relation_signature,
)
from .validate import (
    Diagnostic,
    validate_annotations,
    validate_chunks,
    validate_document,
    validate_tokens,
    validate_trees,
)
from .workflow import (
    ConvergencePolicy,
    Disagreement,
    FoldManifest,
    RoundState,
    SplitMix64,
    assign_duplicates,
    check_convergence,
    diff_report,
    kfold,
    load_state,
    sample_round,
    save_state,
    seeded_shuffle,
)

__version__ = "0.1.0"
