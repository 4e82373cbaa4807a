"""The one reader of text files: whole content, located decode errors and
file errors that name the file."""
import errno
import os
import threading

import pytest

from clincorp.cli import main
from clincorp.errors import ParseError, read_text_file


def test_empty_file_reads_as_empty(tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes(b"")
    assert read_text_file(path) == ""


def test_file_without_final_newline_reads_whole(tmp_path):
    path = tmp_path / "d.txt"
    path.write_bytes("发热\n咳嗽".encode("utf-8"))
    assert read_text_file(path) == "发热\n咳嗽"
    assert read_text_file(str(path)) == "发热\n咳嗽"


def test_fifo_is_read_to_its_end(tmp_path):
    # A FIFO reports size 0, so the reader cannot size its read from fstat.
    # The text spans several pipe buffers and splits characters across writes.
    path = tmp_path / "d.fifo"
    os.mkfifo(path)
    assert os.stat(path).st_size == 0
    text = "发热 fever\n" * 20000
    data = text.encode("utf-8")

    def write():
        with open(path, "wb") as f:
            for i in range(0, len(data), 50001):
                f.write(data[i:i + 50001])

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        assert read_text_file(path) == text
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_invalid_utf8_keeps_its_byte_offset_and_line(tmp_path):
    path = tmp_path / "d.ptb"
    path.write_bytes("ok\n发\n".encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(ParseError) as err:
        read_text_file(path)
    assert (err.value.path, err.value.line) == (str(path), 3)
    assert str(err.value) == f"{path}:line 3: invalid UTF-8 at byte offset 7"


def test_missing_file_error_names_the_file(tmp_path):
    path = tmp_path / "nope.txt"
    with pytest.raises(FileNotFoundError) as err:
        read_text_file(path)
    assert err.value.filename == str(path)


def test_validate_with_a_directory_as_a_layer_exits_2(tmp_path, capsys):
    (tmp_path / "d.txt").write_text("发热\n", encoding="utf-8")
    (tmp_path / "d.tok").mkdir()
    assert main(["validate", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
        f"{str(tmp_path / 'd.tok')!r}\n"
    )
