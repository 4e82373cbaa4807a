"""Keep-or-split advice for lexicon terms during word segmentation.

Each term carries word attributes (nominal status, combinability,
reducibility, replaceability) and the adviser runs a fixed, ordered decision
table over them.  The table is a codification, not ground truth: every
decision reports the rule that fired so reviewers can audit or override it.

Rules, checked in order:
    R1  nominal or not combinable        -> keep whole
    R2  reducible (is an abbreviation)   -> expand, then decide on the expansion
    R3  combinable and replaceable       -> split at the recorded point
    R4  combinable but not replaceable   -> keep whole (conservative default)
"""
from __future__ import annotations

from .errors import LexiconError, ParseError, is_comment_line, numbered_lines
from .record import Record

MAX_EXPANSION_DEPTH = 3


class TermEntry(Record):
    """One lexicon term with its word attributes."""

    __slots__ = ("surface", "is_nominal", "combinable", "reducible", "replaceable",
                 "expansion", "split_point")

    def __init__(
        self,
        surface: str,
        is_nominal: bool,
        combinable: bool,
        reducible: bool,
        replaceable: bool,
        expansion: str | None = None,
        split_point: int | None = None,
    ):
        self.surface = surface
        self.is_nominal = is_nominal
        self.combinable = combinable
        self.reducible = reducible
        self.replaceable = replaceable
        self.expansion = expansion
        self.split_point = split_point

    def check(self) -> None:
        """Raise LexiconError on any violated entry invariant."""
        if not self.surface:
            raise LexiconError("empty term surface")
        if self.reducible and not self.expansion:
            raise LexiconError(
                f"{self.surface!r}: reducible terms must carry an expansion"
            )
        if self.replaceable and not self.combinable:
            raise LexiconError(
                f"{self.surface!r}: replaceable implies combinable"
            )
        if self.split_point is not None and not (
            0 < self.split_point < len(self.surface)
        ):
            raise LexiconError(
                f"{self.surface!r}: split point {self.split_point} is not "
                "strictly inside the surface"
            )


class SegDecision(Record):
    """The adviser's verdict for one term."""

    __slots__ = ("action", "rule", "surface", "at", "expansion")

    def __init__(
        self, action: str, rule: str, surface: str, at: int | None = None,
        expansion: str | None = None,
    ):
        self.action = action  # keep_whole | split | expand_then_decide
        self.rule = rule  # R1..R4
        self.surface = surface
        self.at = at
        self.expansion = expansion

    def render(self) -> str:
        if self.action == "split":
            return f"{self.surface}\t{self.rule}\tsplit at {self.at}"
        if self.action == "expand_then_decide":
            return f"{self.surface}\t{self.rule}\texpand to {self.expansion}"
        return f"{self.surface}\t{self.rule}\tkeep whole"


def advise(entry: TermEntry) -> SegDecision:
    """Apply the decision table to one entry.  Exactly one rule fires."""
    entry.check()
    if entry.is_nominal or not entry.combinable:
        return SegDecision("keep_whole", "R1", entry.surface)
    if entry.reducible:
        return SegDecision(
            "expand_then_decide", "R2", entry.surface, expansion=entry.expansion
        )
    if entry.replaceable:
        if entry.split_point is None:
            raise LexiconError(
                f"{entry.surface!r}: split advised but no split point recorded"
            )
        return SegDecision("split", "R3", entry.surface, at=entry.split_point)
    return SegDecision("keep_whole", "R4", entry.surface)


def advise_chain(
    lexicon: dict[str, TermEntry], surface: str
) -> list[SegDecision]:
    """Advise a term, following abbreviation expansions to a final verdict.

    Returns every decision along the way; the last one is final.  Expansion
    chains longer than MAX_EXPANSION_DEPTH (including cycles) are errors.
    """
    trail: list[SegDecision] = []
    current = surface
    for _ in range(MAX_EXPANSION_DEPTH + 1):
        entry = lexicon.get(current)
        if entry is None:
            raise LexiconError(f"term {current!r} is not in the lexicon")
        decision = advise(entry)
        trail.append(decision)
        if decision.action != "expand_then_decide":
            return trail
        current = decision.expansion or ""
        if len(trail) > MAX_EXPANSION_DEPTH:
            break
    raise LexiconError(
        f"term {surface!r} expands more than {MAX_EXPANSION_DEPTH} times"
    )


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(field: str, value: str, path: str | None, lineno: int) -> bool:
    try:
        return _BOOL[value.lower()]
    except KeyError:
        raise ParseError(
            f"{field} must be true/false/1/0, got {value!r}", path=path, line=lineno
        ) from None


def load_lexicon(content: str, *, path: str | None = None) -> dict[str, TermEntry]:
    """Read a term lexicon.

    Tab-separated columns: surface, is_nominal, combinable, reducible,
    replaceable, expansion, split_point; '-' marks an absent optional.
    Duplicate surfaces and invariant violations are errors.
    """
    lexicon: dict[str, TermEntry] = {}
    for lineno, line in numbered_lines(content):
        if not line.strip() or is_comment_line(line):
            continue
        fields = line.split("\t")
        if len(fields) != 7:
            raise ParseError(
                f"expected 7 tab-separated columns, got {len(fields)}",
                path=path, line=lineno,
            )
        surface = fields[0]
        if surface in lexicon:
            raise ParseError(f"duplicate-term {surface!r}", path=path, line=lineno)
        expansion = None if fields[5] == "-" else fields[5]
        if fields[6] == "-":
            split_point = None
        else:
            try:
                split_point = int(fields[6])
            except ValueError:
                raise ParseError(
                    f"split_point must be an integer or '-', got {fields[6]!r}",
                    path=path, line=lineno,
                ) from None
        entry = TermEntry(
            surface=surface,
            is_nominal=_parse_bool("is_nominal", fields[1], path, lineno),
            combinable=_parse_bool("combinable", fields[2], path, lineno),
            reducible=_parse_bool("reducible", fields[3], path, lineno),
            replaceable=_parse_bool("replaceable", fields[4], path, lineno),
            expansion=expansion,
            split_point=split_point,
        )
        try:
            entry.check()
        except LexiconError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from None
        lexicon[surface] = entry
    return lexicon
