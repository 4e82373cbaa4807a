"""Toolkit for multilayer annotation of Chinese clinical text.

The package models a corpus annotated on six layers (word segmentation,
part of speech, chunks, constituency trees, clinical entities with
assertions, and entity-group relations), reads and writes the interchange
formats, validates every layer, measures inter-annotator agreement, computes
corpus statistics against bundled reference tables, and drives the iterative
annotation workflow (sampling rounds, duplicate assignment, convergence
checks, k-fold splits).

Every name in `__all__` can be taken from the package root, as in
`from clincorp import corpus_agreement`.  It resolves on first access
(PEP 562) by importing the one submodule that defines it, so
`import clincorp` by itself loads no submodule.
"""
import importlib

# The public names, by the submodule that defines each.
_EXPORTS = {
    "agreement": (
        "AgreementReport", "CorpusAgreement", "corpus_agreement", "macro_average",
        "prf",
    ),
    "annio": (
        "BundlePaths", "discover", "iter_pairs", "load_corpus", "load_document",
        "parse_ann", "parse_chk", "parse_ptb", "parse_tok", "serialize_ann",
        "serialize_chk", "serialize_ptb", "serialize_tok",
    ),
    "errors": (
        "ClincorpError", "InputError", "LengthMismatchError", "LexiconError",
        "ParseError", "ResolutionError",
    ),
    "groups": ("OneToOne", "endpoint_entities", "expand_all", "relation_match_key"),
    "model": (
        "DOC_TYPES", "Chunk", "DocAnnotations", "Document", "Entity",
        "EntityGroup", "Relation", "Sentence", "Token",
    ),
    "numfmt": ("fmt_metric", "fmt_percent", "round_half_up"),
    "parseval": (
        "EvalParams", "ParseTree", "match_counts", "parse_tree", "score_corpus",
    ),
    "refdata": ("Deviation", "compare_reference", "reference_column"),
    "segadvice": (
        "SegDecision", "TermEntry", "advise", "advise_chain", "load_lexicon",
    ),
    "stats": (
        "CrossRow", "DistributionRow", "assertion_cross_table",
        "avg_sentence_length", "distribution", "relation_table",
        "token_and_sentence_counts",
    ),
    "tagsets": (
        "LAYERS", "POS_TAGS", "SYN_TAGS", "VALID_ASSERTIONS", "AssertionType",
        "EntityType", "MatchPolicy", "RelationMode", "RelationType",
        "assertion_valid", "relation_signature",
    ),
    "validate": ("Diagnostic", "validate_document"),
    "workflow": (
        "ConvergencePolicy", "FoldManifest", "RoundState", "SplitMix64",
        "assign_duplicates", "check_convergence", "kfold", "load_state",
        "sample_round", "save_state", "seeded_shuffle",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
