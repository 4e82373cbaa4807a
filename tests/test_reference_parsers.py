"""Differential tests of parse_tok, parse_chk and parse_ann against plain
reference parsers, each written line by line from its section of
docs/FORMATS.md and from "Lines" there.  On drawn valid and malformed files,
each pair must agree on the parsed value, or on the ParseError message and
the line it names."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clincorp.annio import parse_ann, parse_chk, parse_tok
from clincorp.errors import ParseError
from clincorp.model import (
    Chunk, DocAnnotations, Entity, EntityGroup, Relation, Sentence, Token,
)
from clincorp.tagsets import POS_TAGS, AssertionType, EntityType, RelationType


def _lines(content: str) -> list[tuple[int, str]]:
    """"Lines": only a line feed ends a line, a final line feed does not start
    an empty last line, and one carriage return at the end of a line is
    dropped."""
    pieces = content.split("\n")
    if pieces[-1] == "":
        pieces.pop()
    return [(number, piece[:-1] if piece.endswith("\r") else piece)
            for number, piece in enumerate(pieces, start=1)]


def _reference_tok(content: str, *, path: str | None = None) -> list[Sentence]:
    """The `.tok` section: checks in the documented order, offsets read as
    int() reads them, spans monotonic across the file from offset 0, and each
    sentence anchored at the absolute start of its first token."""
    sentences: list[Sentence] = []
    tokens: list[tuple[int, int, str, str | None]] = []

    def close_sentence() -> None:
        anchor = tokens[0][0]
        sentences.append(Sentence(anchor, tuple(
            Token(start - anchor, end - anchor, surface, pos)
            for start, end, surface, pos in tokens
        )))
        tokens.clear()

    previous_end = 0
    for number, line in _lines(content):
        if line.strip().startswith("#"):
            continue
        if line.strip() == "":
            if tokens:
                close_sentence()
            continue

        def fail(message: str) -> ParseError:
            return ParseError(message, path=path, line=number)

        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise fail(f"expected 3 or 4 tab-separated fields, got {len(fields)}")
        try:
            start, end = int(fields[0]), int(fields[1])
        except ValueError:
            raise fail("offsets must be integers") from None
        if end <= start:
            raise fail(f"empty or inverted span [{start}, {end})")
        if start < previous_end:
            raise fail(f"non-monotonic span: [{start}, {end}) starts before "
                       f"the previous token ends at {previous_end}")
        previous_end = end
        surface = fields[2]
        pos = fields[3] if len(fields) == 4 else None
        if surface == "":
            raise fail("empty surface")
        if pos is not None and pos not in POS_TAGS:
            raise fail(f"unknown-pos-label {pos!r}")
        tokens.append((start, end, surface, pos))
    if tokens:
        close_sentence()
    return sentences


def _reference_chk(content: str, *, path: str | None = None) -> list[list[Chunk]]:
    """The `.chk` section: a blank line terminates a block, whatever it holds,
    and a last block without one is kept when it holds a chunk."""
    blocks: list[list[Chunk]] = []
    chunks: list[Chunk] = []
    for number, line in _lines(content):
        if line.strip().startswith("#"):
            continue
        if line.strip() == "":
            blocks.append(chunks)
            chunks = []
            continue

        def fail(message: str) -> ParseError:
            return ParseError(message, path=path, line=number)

        fields = line.split("\t")
        if len(fields) != 3:
            raise fail(f"expected 3 tab-separated fields, got {len(fields)}")
        try:
            first, last = int(fields[0]), int(fields[1])
        except ValueError:
            raise fail("token indices must be integers") from None
        if last <= first or first < 0:
            raise fail(f"bad token range [{first}, {last})")
        if fields[2] == "":
            raise fail("empty chunk label")
        chunks.append(Chunk(first, last, fields[2]))
    if chunks:
        blocks.append(chunks)
    return blocks


# The `.ann` section's label lists.
ENTITY_TYPES = ("disease", "symptom", "treatment", "test")
ASSERTIONS = ("present", "absent", "possible", "conditional", "not_associated",
              "occasional", "historical")
RELATION_TYPES = ("TrID", "TrWD", "TrCD", "TrAD", "TrIS", "TrWS", "TrCS", "TrAS",
                  "TrNAS", "DCS", "TeRD", "TeCD", "TeRS", "TeAS", "SID")


def _is_id(field: str, letters: str) -> bool:
    """One of `letters` followed by one or more decimal digits of any script."""
    return field[:1] in tuple(letters) and field[1:].isdecimal()


def _is_label(field: str) -> bool:
    """A label field: one or more characters, none of them white space."""
    return field != "" and not any(c.isspace() for c in field)


def _reference_ann(
    content: str, *, doc_id: str = "", text: str = "", path: str | None = None
) -> DocAnnotations:
    """The `.ann` section: each line is checked alone, in file order, for its
    shape, then its label, then a repeated id; then the assertions in file
    order, each group's members and each relation's arguments."""
    ann = DocAnnotations(doc_id, text)
    assertions: list[tuple[int, str, str, str]] = []
    ref_lines: dict[str, int] = {}

    def fail(message: str, number: int) -> ParseError:
        return ParseError(message, path=path, line=number)

    for number, line in _lines(content):
        if line.strip() == "" or line.strip().startswith("#"):
            continue
        kind = line[0]
        if kind == "T":
            # The surface is the rest of the line, tabs and all.
            fields = line.split("\t", 2)
            words = fields[1].split(" ") if len(fields) == 3 else []
            if not (len(words) == 3 and _is_id(fields[0], "T") and _is_label(words[0])
                    and words[1].isdecimal() and words[2].isdecimal()):
                raise fail("malformed entity line", number)
            if words[0] not in ENTITY_TYPES:
                raise fail(f"unknown entity type {words[0]!r}", number)
            if fields[0] in ann.entities:
                raise fail(f"duplicate entity id {fields[0]}", number)
            ann.entities[fields[0]] = Entity(
                fields[0], EntityType(words[0]), int(words[1]), int(words[2]), fields[2],
            )
            continue
        fields = line.split("\t")
        words = fields[1].split(" ") if len(fields) == 2 else []
        if kind == "A":
            if not (len(words) == 2 and _is_id(fields[0], "A") and _is_label(words[0])
                    and _is_id(words[1], "T")):
                raise fail("malformed assertion line", number)
            if words[0] not in ASSERTIONS:
                raise fail(f"unknown assertion type {words[0]!r}", number)
            assertions.append((number, fields[0], words[0], words[1]))
        elif kind == "G":
            if not (len(words) >= 2 and _is_id(fields[0], "G") and _is_label(words[0])
                    and all(_is_id(word, "T") for word in words[1:])):
                raise fail("malformed group line", number)
            if words[0] not in ENTITY_TYPES:
                raise fail(f"unknown entity type {words[0]!r}", number)
            if fields[0] in ann.groups:
                raise fail(f"duplicate group id {fields[0]}", number)
            ann.groups[fields[0]] = EntityGroup(
                fields[0], EntityType(words[0]), tuple(words[1:]))
            ref_lines[fields[0]] = number
        elif kind == "R":
            args = [word[5:] for word, key in zip(words[1:], ("Arg1:", "Arg2:"))
                    if word.startswith(key)]
            if not (len(words) == 3 and len(args) == 2 and _is_id(fields[0], "R")
                    and _is_label(words[0]) and all(_is_id(a, "TG") for a in args)):
                raise fail("malformed relation line", number)
            if words[0] not in RELATION_TYPES:
                raise fail(f"unknown relation type {words[0]!r}", number)
            if fields[0] in ann.relations:
                raise fail(f"duplicate relation id {fields[0]}", number)
            ann.relations[fields[0]] = Relation(
                fields[0], RelationType(words[0]), args[0], args[1])
            ref_lines[fields[0]] = number
        else:
            raise fail(f"unknown annotation line kind {kind!r}", number)
    for number, aid, label, target in assertions:
        if target not in ann.entities:
            raise fail(f"assertion {aid} refers to missing entity {target}", number)
        if ann.entities[target].assertion is not None:
            raise fail(f"entity {target} carries more than one assertion", number)
        ann.entities[target].assertion = AssertionType(label)
    for gid, group in ann.groups.items():
        for member in group.members:
            if member not in ann.entities:
                raise fail(f"dangling-reference {member} in group {gid}", ref_lines[gid])
    for rid, relation in ann.relations.items():
        for ref in (relation.arg1, relation.arg2):
            if ref not in ann.entities and ref not in ann.groups:
                raise fail(f"dangling-reference {ref} in relation {rid}", ref_lines[rid])
    return ann


# Offsets and indices that int() reads (white space around, a sign, `_`,
# other scripts' digits) or refuses, and surfaces and labels with white
# space, a '#', a carriage return or nothing in them; an edit draws a field
# from these, so they lean to values that a check refuses.
NUMBERS = st.integers(-2, 12).map(str) | st.sampled_from(
    ("-0", "+2", " 4", "4\u3000", "1_0", "\u0663", "", "x", "1.5", "0x1")
)
SURFACES = st.just("") | st.sampled_from(("a", "\u7532", "#", "a b", " ", "\u3000", "\x0b", "x\r"))
POS_LABELS = st.sampled_from(("NN", "VV", "PU", "XX", "nn", "NN ", ""))
CHUNK_LABELS = st.just("") | st.sampled_from(("NP", "VP", "XX", "#", " ", "a\rb"))
TOK_COLUMNS = (NUMBERS, NUMBERS, SURFACES, POS_LABELS, SURFACES)
CHK_COLUMNS = (NUMBERS, NUMBERS, CHUNK_LABELS, CHUNK_LABELS)
BLANK_LINES = st.sampled_from(("", " ", "\t", " \t ", "\x1c", "\x85", "\u3000"))
COMMENT_LINES = st.sampled_from(("#", "# c", "  # x\ty", "\t#\t0", "\u3000#"))


@st.composite
def _texts(draw, data_line, columns):
    """A file of blank, comment and data lines, each data line the fields
    `data_line(draw, offset)` returns with the next offset; then up to three
    edits, each drawing one field anew from its column in `columns` or
    inserting a line of one to four drawn fields, so that about half the
    files are malformed and some lines fail more than one check."""
    lines: list = []
    offset = 0
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.append(draw(BLANK_LINES))
        elif kind == 1:
            lines.append(draw(COMMENT_LINES))
        else:
            fields, offset = data_line(draw, offset)
            lines.append(fields)
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3)))):
        data = [i for i, line in enumerate(lines) if isinstance(line, list)]
        if data and draw(st.integers(0, 3)):
            fields = lines[draw(st.sampled_from(data))]
            i = draw(st.integers(0, len(fields) - 1))
            fields[i] = draw(columns[i])
        else:
            junk = [draw(column) for column in columns[:draw(st.integers(1, 4))]]
            lines.insert(draw(st.integers(0, len(lines))), junk)
    newline = draw(st.sampled_from(("\n", "\r\n")))
    text = newline.join(line if isinstance(line, str) else "\t".join(line) for line in lines)
    return text + draw(st.sampled_from(("", newline, newline * 2, "\r")))


def _token_line(draw, offset: int) -> tuple[list[str], int]:
    start = offset + draw(st.integers(0, 2))
    end = start + draw(st.integers(1, 3))
    fields = [str(start), str(end), draw(st.sampled_from(("a", "\u7532", "#", "a b")))]
    if draw(st.booleans()):
        fields.append(draw(st.sampled_from(POS_TAGS)))
    return fields, end


def _chunk_line(draw, offset: int) -> tuple[list[str], int]:
    first = draw(st.integers(0, 6))
    label = draw(st.sampled_from(("NP", "VP", "XX", "#")))
    return [str(first), str(first + draw(st.integers(1, 3))), label], offset


def _outcome(parse, text: str, path: str):
    try:
        return parse(text, path=path)
    except ParseError as exc:
        return ("error", str(exc), exc.line)


@settings(max_examples=400, deadline=None)
@given(_texts(_token_line, TOK_COLUMNS))
@example("")
@example("\r")
@example("\n\n")
@example("-2\t-1\ta\n")
@example("0\t2\ta\tNN\n\n1\t3\tb\n")
@example("0\t1\tx\r\r\n")
@example(" #\t0\t1\ta\n0\t1\t#\n")
@example("0\tx\t\tXX\textra\n")
def test_parse_tok_matches_the_reference_parser(text):
    assert _outcome(parse_tok, text, "f.tok") == _outcome(_reference_tok, text, "f.tok")


@settings(max_examples=400, deadline=None)
@given(_texts(_chunk_line, CHK_COLUMNS))
@example("")
@example("\r")
@example("\n\n")
@example("-1\t0\tNP\n")
@example("0\t1\tNP\n\n\n1\t2\tVP")
@example("# c\n\t\n0\t1\tNP\r\n\r\n")
@example("0\tx\t\n")
def test_parse_chk_matches_the_reference_parser(text):
    assert _outcome(parse_chk, text, "f.chk") == _outcome(_reference_chk, text, "f.chk")


# The columns of `.ann` lines: each piece of a line, a separator too, is
# drawn from its column when an edit replaces it, so edits lean to ids,
# labels, offsets, references and separators that a check refuses.
def _ann_ids(letter: str):
    return st.sampled_from((f"{letter}1", f"{letter}01", f"{letter}\u0663", letter,
                            f"{letter.lower()}1", f"{letter}{letter}1", "X1",
                            f" {letter}1", f"{letter}1 "))


def _ann_labels(values):
    return st.sampled_from(values) | st.sampled_from((
        "", "Disease", "present", "TrID", "trid", "a\u3000b", "a\rb", "#"))


TABS = st.sampled_from(("\t", " ", "", "\t\t", "\u3000"))
SPACES = st.sampled_from((" ", "  ", "\t", "", "\xa0", "\u3000"))
ANN_OFFSETS = st.sampled_from(("0", "12", "\u0663", "-1", "+1", " 2", "1_0", "x", "", "1.5"))
ANN_SURFACES = st.sampled_from(("a", "\u7532", "", "a\tb", "#", " ", "x\r", "\x0b"))
ANN_TARGETS = st.sampled_from((" T1", " T9", " G1", " T", " T\u0663", " t1", "  T1", "\tT1"))
ANN_ARGS = st.sampled_from((" Arg1:T1", " Arg1:G1", " Arg1:R1", " Arg1:T", " arg1:T1",
                            " Arg2:T1", " Arg1: T1", " Arg1:T9", "Arg1:T1"))
ANN_LABELS = {"T": ENTITY_TYPES, "A": ASSERTIONS, "G": ENTITY_TYPES, "R": RELATION_TYPES}
ANN_COLUMNS = {
    "T": (_ann_ids("T"), TABS, _ann_labels(ENTITY_TYPES), SPACES, ANN_OFFSETS, SPACES,
          ANN_OFFSETS, TABS, ANN_SURFACES),
    "A": (_ann_ids("A"), TABS, _ann_labels(ASSERTIONS), ANN_TARGETS),
    "G": (_ann_ids("G"), TABS, _ann_labels(ENTITY_TYPES), ANN_TARGETS, ANN_TARGETS),
    "R": (_ann_ids("R"), TABS, _ann_labels(RELATION_TYPES), ANN_ARGS, ANN_ARGS),
}


@st.composite
def _ann_texts(draw):
    """A file of blank, comment, T, A, G and R lines, each data line a list
    of pieces and its kind's columns; then up to three edits, as in _texts,
    each drawing one piece anew from its column or inserting a line of the
    first pieces of one kind's columns.  Each id is usually the next of its
    letter but sometimes repeats the last, and each reference usually names
    an entity or group of the file, so that about a third of the files are
    valid.  A file writes its ids and offsets in ASCII or Arabic-Indic
    digits."""
    lines: list = []
    counts = dict.fromkeys("TAGR", 0)
    script = draw(st.sampled_from(("", "", "", "\u0660\u0661\u0662\u0663\u0664\u0665"
                                   "\u0666\u0667\u0668\u0669")))
    digits = str.maketrans("0123456789", script) if script else {}

    def rarely() -> int:
        return draw(st.sampled_from((0,) * 11 + (1,)))

    def number(value: int) -> str:
        return str(value).translate(digits)

    def ident(kind: str) -> str:
        counts[kind] += 1
        return kind + number(counts[kind] - rarely())

    def ref(letters: str) -> str:
        letter = draw(st.sampled_from(letters))
        return letter + number(draw(st.integers(1, max(counts[letter], 1))) + rarely())

    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from("TTTAGRbc"))
        if kind in "bc":
            lines.append(draw(BLANK_LINES if kind == "b" else COMMENT_LINES))
            continue
        label = draw(st.sampled_from(ANN_LABELS[kind]))
        if kind == "T":
            start = draw(st.integers(0, 9))
            pieces = [ident(kind), "\t", label, " ", number(start), " ",
                      number(start + draw(st.integers(0, 3))), "\t", draw(ANN_SURFACES)]
        elif kind == "A":
            pieces = [ident(kind), "\t", label, f" {ref('T')}"]
        elif kind == "G":
            members = "".join(f" {ref('T')}" for _ in range(draw(st.integers(1, 3))))
            pieces = [ident(kind), "\t", label, members, ""]
        else:
            pieces = [ident(kind), "\t", label, f" Arg1:{ref('TG')}", f" Arg2:{ref('TG')}"]
        lines.append((pieces, ANN_COLUMNS[kind]))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 1, 2, 3)))):
        data = [line for line in lines if isinstance(line, tuple)]
        if data and draw(st.integers(0, 3)):
            pieces, columns = draw(st.sampled_from(data))
            i = draw(st.integers(0, len(pieces) - 1))
            pieces[i] = draw(columns[i])
        else:
            columns = ANN_COLUMNS[draw(st.sampled_from("TAGR"))]
            junk = [draw(column) for column in columns[:draw(st.integers(1, len(columns)))]]
            lines.insert(draw(st.integers(0, len(lines))), (junk, columns))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    text = newline.join(line if isinstance(line, str) else "".join(line[0]) for line in lines)
    return text + draw(st.sampled_from(("", newline, newline * 2, "\r")))


def _ann_outcome(parse, text: str):
    """_outcome of one parser, the records of a parsed file listed in their
    dictionaries' order."""
    try:
        ann = parse(text, doc_id="d", text="\u7532a", path="f.ann")
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return (ann.doc_id, ann.text, list(ann.entities.items()),
            list(ann.groups.items()), list(ann.relations.items()))


@settings(max_examples=400, deadline=None)
@given(_ann_texts())
@example("")
@example("\r")
@example(" T1\tdisease 0 1\ta\n")
@example("T1\tdisease 0 1\ta\tb\r\r\nT2\ttest \u0663 \u0664\t\n")
@example("T1\tdisease 0 1\n")
@example("A1\tpresent T2\nT1\tdisease 0 1\ta\nA1\tabsent T1\nA2\tpresent T1\n")
@example("R1\tTrID Arg1:T5 Arg2:G1\nG1\tdisease T1 T2\nT1\ttest 0 1\ta\n")
@example("G1\tdisease  T1\nR1\tTrID Arg2:T1 Arg1:T1\n")
@example("T01\tsymptom 0 1\t\nT1\tsymptom 0 1\t\nR1\tSID Arg1:T01 Arg2:T1\n")
@example("T1\ttest 0 1\ta\nT1\tTest 0 1\ta\n")
@example("T1\ttest -1 1\ta\n")
@example("G1\ttest T1\nG1\tTest T1\n")
@example("R1\tSID Arg1:T1 Arg2:T1\nR1\tsid Arg1:T1 Arg2:T1\n")
@example("T1\tsymptom 0 1\ta\nR1\tSID Arg1:T1 Arg2:T1\nR1\tDCS Arg1:T1 Arg2:T1\n")
def test_parse_ann_matches_the_reference_parser(text):
    assert _ann_outcome(parse_ann, text) == _ann_outcome(_reference_ann, text)
