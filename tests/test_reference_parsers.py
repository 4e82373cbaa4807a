"""Differential tests of parse_tok and parse_chk against plain reference
parsers, each written line by line from its section of docs/FORMATS.md and
from "Lines" there.  On drawn valid and malformed files, each pair must agree
on the parsed value, or on the ParseError message and the line it names."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clincorp.annio import parse_chk, parse_tok
from clincorp.errors import ParseError
from clincorp.model import Chunk, Sentence, Token
from clincorp.tagsets import POS_TAGS


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
