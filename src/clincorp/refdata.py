"""Published distribution tables, and the check of computed tables against them.

These are transcriptions of the corpus release's published annotation
distribution tables, kept verbatim so recomputed statistics can be checked
against them.  Percentage cells are stored as the published display strings:
"<0.01" means a nonzero share below the rounding threshold and "0" means an
exactly empty cell, so both survive transcription without inventing digits.

Two totals deliberately disagree in the source: the relation table rows sum
to 7,691 while the prose reports 7,695 expanded relations.  Both values are
kept; the table's own sum is what its percentage columns are computed from.

Transcription notes: thousands separators are dropped, and the verb-compound
syntactic tag is stored under its canonical spelling VSB (the part-of-speech
table prints it as VS; the by-document-type table prints VSB).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import InputError
from .model import DOC_TYPES
from .numfmt import round_half_up
from .record import Record

if TYPE_CHECKING:
    from .stats import CrossRow, DistributionRow

# ------------------------------------------------------- headline figures ---

TOTAL_TOKENS = 47_424
TOTAL_SENTENCES = 2_553
AVG_TOKENS_PER_SENTENCE = "18.58"
AVG_TOKENS_DISCHARGE = "14.13"
AVG_TOKENS_PROGRESS = "22.42"
TOTAL_ENTITIES = 39_511
TOTAL_ONE_TO_ONE_RELATIONS = 7_695  # prose figure
RELATION_TABLE_TOTAL = 7_691  # sum of the published relation rows
N_DISCHARGE_SUMMARIES = 500
N_PROGRESS_NOTES = 492

# ---------------------------------------------------------------- Part A ---
# Part-of-speech tag distribution: (label, count, pct of all tokens).

POS_DISTRIBUTION: list[tuple[str, int, str]] = [
    ("NN", 14782, "31.17"),
    ("PU", 10763, "22.70"),
    ("VV", 5896, "12.43"),
    ("CD", 3484, "7.35"),
    ("VA", 2762, "5.82"),
    ("JJ", 2086, "4.40"),
    ("AD", 1759, "3.71"),
    ("M", 1736, "3.66"),
    ("VE", 1160, "2.45"),
    ("P", 628, "1.32"),
    ("LC", 595, "1.25"),
    ("NT", 584, "1.23"),
    ("CC", 463, "0.98"),
    ("DT", 251, "0.53"),
    ("OD", 232, "0.49"),
    ("ETC", 74, "0.16"),
    ("NR", 53, "0.11"),
    ("VC", 44, "0.09"),
    ("PN", 26, "0.05"),
    ("DEG", 16, "0.03"),
    ("MSP", 8, "0.02"),
    ("CS", 7, "0.01"),
    ("DEC", 6, "0.01"),
    ("SB", 5, "0.01"),
    ("BA", 1, "<0.01"),
    ("FW", 1, "<0.01"),
    ("LB", 1, "<0.01"),
    ("AS", 1, "<0.01"),
    ("SP", 0, "0"),
    ("DER", 0, "0"),
    ("DEV", 0, "0"),
    ("IJ", 0, "0"),
    ("ON", 0, "0"),
]

# ---------------------------------------------------------------- Part B ---
# Syntactic tag distribution over constituents: (label, count, pct).

SYN_DISTRIBUTION: list[tuple[str, int, str]] = [
    ("NP", 17254, "32.43"),
    ("VP", 14573, "27.39"),
    ("IP", 9634, "18.11"),
    ("QP", 2701, "5.08"),
    ("ADJP", 2114, "3.97"),
    ("ADVP", 1754, "3.30"),
    ("CLP", 1736, "3.26"),
    ("LST", 1104, "2.07"),
    ("PP", 662, "1.24"),
    ("LCP", 598, "1.12"),
    ("FRAG", 341, "0.64"),
    ("DP", 251, "0.47"),
    ("VCD", 164, "0.31"),
    ("VSB", 121, "0.23"),
    ("PRN", 106, "0.20"),
    ("VRD", 37, "0.07"),
    ("UCP", 28, "0.05"),
    ("DNP", 23, "0.04"),
    ("CP", 6, "0.01"),
    ("VPT", 1, "<0.01"),
    ("VNV", 1, "<0.01"),
    ("VCP", 1, "<0.01"),
    ("DVP", 0, "0"),
]

# ---------------------------------------------------------------- Part C ---
# Entities and assertions: (label, count, pct within entity type, pct of all
# entities).  Labels are "<entity type>:<assertion>" with ":total" rows.

ENTITY_ASSERTION_TABLE: list[tuple[str, int, str, str]] = [
    ("disease:possible", 3255, "39.09", "8.24"),
    ("disease:present", 2686, "32.25", "6.80"),
    ("disease:absent", 2352, "28.24", "5.95"),
    ("disease:not_associated", 35, "0.42", "0.09"),
    ("disease:conditional", 0, "0.00", "0.00"),
    ("disease:occasional", 0, "0.00", "0.00"),
    ("disease:total", 8328, "100.00", "21.08"),
    ("symptom:absent", 12070, "63.69", "30.55"),
    ("symptom:present", 6425, "33.90", "16.26"),
    ("symptom:conditional", 257, "1.36", "0.65"),
    ("symptom:occasional", 153, "0.81", "0.39"),
    ("symptom:possible", 41, "0.22", "0.10"),
    ("symptom:not_associated", 5, "0.03", "0.01"),
    ("symptom:total", 18951, "100.00", "47.96"),
    ("treatment:present", 3703, "70.63", "9.37"),
    ("treatment:historical", 1413, "26.95", "3.58"),
    ("treatment:absent", 127, "2.42", "0.32"),
    ("treatment:total", 5243, "100.00", "13.27"),
    ("test:total", 6989, "100.00", "17.69"),
]

# ---------------------------------------------------------------- Part D ---
# One-to-one relations: (label, count, pct within entity pair, pct of all
# relations).  "R(x, y)" rows are the pair subtotals.

RELATION_TABLE: list[tuple[str, int, str, str]] = [
    ("TrAD", 393, "58.66", "5.11"),
    ("TrID", 201, "30.00", "2.61"),
    ("TrWD", 70, "10.45", "0.91"),
    ("TrCD", 6, "0.90", "0.08"),
    ("R(Tr, D)", 670, "100.00", "8.71"),
    ("TrAS", 613, "30.35", "7.97"),
    ("TrIS", 566, "28.02", "7.36"),
    ("TrWS", 540, "26.73", "7.02"),
    ("TrCS", 298, "14.75", "3.87"),
    ("TrNAS", 3, "0.15", "0.04"),
    ("R(Tr, S)", 2020, "100.00", "26.26"),
    ("TeRD", 581, "99.49", "7.55"),
    ("TeCD", 3, "0.51", "0.04"),
    ("R(Te, D)", 584, "100.00", "7.59"),
    ("TeRS", 1239, "53.31", "16.11"),
    ("TeAS", 1085, "46.69", "14.11"),
    ("R(Te, S)", 2324, "100.00", "30.22"),
    ("SID", 1663, "79.46", "21.62"),
    ("DCS", 430, "20.54", "5.59"),
    ("R(D, S)", 2093, "100.00", "27.21"),
]

# ---------------------------------------------------------------- Part E ---
# Part-of-speech shares by document type: (label, pct in discharge
# summaries, pct in progress notes).  Percentages only; counts unpublished.

POS_BY_DOC_TYPE: list[tuple[str, str, str]] = [
    ("NN", "32.90", "30.23"),
    ("PU", "21.29", "23.46"),
    ("VV", "12.85", "12.20"),
    ("CD", "6.86", "7.61"),
    ("VA", "6.62", "5.39"),
    ("JJ", "4.41", "4.39"),
    ("AD", "3.40", "3.88"),
    ("M", "3.71", "3.63"),
    ("VE", "2.09", "2.64"),
    ("P", "0.86", "1.58"),
    ("LC", "0.93", "1.43"),
    ("NT", "1.84", "0.90"),
    ("CC", "0.74", "1.11"),
    ("DT", "0.54", "0.52"),
    ("OD", "0.81", "0.31"),
    ("ETC", "0.09", "0.19"),
    ("NR", "0", "0.17"),
    ("VC", "0.02", "0.13"),
    ("PN", "0.02", "0.07"),
    ("DEG", "0", "0.05"),
    ("MSP", "<0.01", "0.02"),
    ("CS", "0.02", "<0.01"),
    ("DEC", "0", "0.02"),
    ("SB", "0", "0.02"),
    ("BA", "0", "<0.01"),
    ("FW", "0", "<0.01"),
    ("LB", "0", "<0.01"),
    ("AS", "0", "<0.01"),
    ("SP", "0", "0"),
    ("DER", "0", "0"),
    ("DEV", "0", "0"),
    ("IJ", "0", "0"),
    ("ON", "0", "0"),
]

# ---------------------------------------------------------------- Part F ---
# Syntactic tag shares by document type.

SYN_BY_DOC_TYPE: list[tuple[str, str, str]] = [
    ("NP", "33.27", "31.95"),
    ("VP", "27.38", "27.39"),
    ("IP", "18.08", "18.12"),
    ("QP", "5.17", "5.02"),
    ("ADJP", "3.90", "4.01"),
    ("ADVP", "2.95", "3.49"),
    ("CLP", "3.23", "3.28"),
    ("LST", "1.60", "2.34"),
    ("PP", "0.83", "1.48"),
    ("LCP", "0.78", "1.32"),
    ("FRAG", "1.45", "0.18"),
    ("DP", "0.47", "0.47"),
    ("VCD", "0.50", "0.20"),
    ("VSB", "0.22", "0.23"),
    ("PRN", "0.07", "0.27"),
    ("VRD", "0.05", "0.08"),
    ("UCP", "0.03", "0.06"),
    ("DNP", "0.01", "0.06"),
    ("CP", "0.01", "0.01"),
    ("VPT", "0", "<0.01"),
    ("VNV", "0", "<0.01"),
    ("VCP", "0", "<0.01"),
    ("DVP", "0", "0"),
]


def matches_display(computed: float, display: str, tol: float) -> bool:
    """Whether a computed percentage agrees with a published display cell.

    Numeric cells match within tol after the same half-away-from-zero
    rounding; "<0.01" requires 0 <= computed < 0.01; a bare "0" requires an
    exact zero.
    """
    if display == "0":
        return computed == 0.0
    if display.startswith("<"):
        return 0.0 <= computed < float(display[1:])
    return abs(round_half_up(computed, 2) - float(display)) <= tol + 1e-12


class Deviation(Record):
    """One disagreement between a computed table and a reference table."""

    __slots__ = ("label", "field", "computed", "expected")

    def __init__(self, label: str, field: str, computed: float | int, expected: str | int):
        self.label = label
        self.field = field
        self.computed = computed
        self.expected = expected

    def render(self) -> str:
        return f"{self.label}\t{self.field}\tcomputed={self.computed}\texpected={self.expected}"


def compare_reference(
    rows: Sequence[DistributionRow | CrossRow], reference: Sequence[tuple],
    tol_pct: float = 0.01,
) -> list[Deviation]:
    """Check computed rows against a reference table, matching by label.

    Reference rows may be (label, count, pct), (label, count, pct_within,
    pct_all), or percentage-only (label, pct).  A reference label with no
    computed row counts as zero; a computed label missing from the reference
    is a hard mismatch since references are complete inventories.
    """
    by_label = {r.label: r for r in rows}
    extra = sorted(set(by_label) - {ref[0] for ref in reference})
    if extra:
        raise InputError(f"labels not in the reference table: {', '.join(extra)}")

    out: list[Deviation] = []

    def check_pct(label: str, field: str, computed: float, display: str) -> None:
        if not matches_display(computed, display, tol_pct):
            out.append(Deviation(label, field, computed, display))

    for ref in reference:
        label = ref[0]
        row = by_label.get(label)
        if len(ref) == 2:
            check_pct(label, "pct", getattr(row, "pct", 0.0), ref[1])
            continue
        count = row.count if row else 0
        if ref[1] != count:
            out.append(Deviation(label, "count", count, ref[1]))
        if len(ref) == 3:
            check_pct(label, "pct", row.pct if row else 0.0, ref[2])
        else:
            check_pct(label, "pct_within", row.pct_within if row else 0.0, ref[2])
            check_pct(label, "pct_all", row.pct_all if row else 0.0, ref[3])
    return out


def reference_column(
    table: Sequence[tuple[str, str, str]], doc_type: str
) -> list[tuple[str, str]]:
    """Project a by-document-type reference table onto one document type,
    yielding (label, pct) rows for compare_reference."""
    if doc_type not in DOC_TYPES:
        raise InputError(f"unknown document type {doc_type!r}")
    col = 1 if doc_type == DOC_TYPES[0] else 2
    return [(label, values[col - 1]) for label, *values in table]
