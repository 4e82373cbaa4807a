"""validate, iaa, score and stats split their documents across forked
workers through fanout.fold_slices.

Every command forks by one rule, slices of at least fanout.MIN_SLICE_DOCS
documents.  That minimum is set to 1 here, and the affinity mask faked, so
that the small corpora of tests/test_streaming.py take the forked path: what
a command prints and returns must not depend on how many slices it ran, the
parent must read only its own slice, one document at a time, and no worker
may outlive the command, however it ends."""
import os
import random
import re
import signal
import threading

import pytest

from clincorp import annio, cli, fanout, stats
from clincorp.cli import _LAYER_FILES, main
from clincorp.model import DOC_TYPES
from clincorp.tagsets import LAYERS
from helpers import random_document
from test_streaming import IDS_A, IDS_B, _corpus_pair, _Liveness, _write

ALL_IDS = sorted(set(IDS_A) | set(IDS_B))
REPORTS = ("pos", "syn", "entity", "relation", "length")
# One command line of each corpus command and stats report, on corpora A and B.
CORPUS_ARGVS = [
    ["validate", "A"], ["iaa", "--layer", "tree", "A", "B"],
    *(["stats", "--report", report, "A"] for report in REPORTS),
    ["score", "--layer", "entity", "A", "B"],
]


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv("CLINCORP_CONFIG", raising=False)


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs the affinity mask holds, with no minimum slice
    size; returns the list that records every fork."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(fanout, "MIN_SLICE_DOCS", 1)
    monkeypatch.setattr(os, "fork", counted_fork)

    def set_cpus(n: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks

    return set_cpus


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run(capsys, argv):
    code = main([str(arg) for arg in argv])
    out, err = capsys.readouterr()
    _no_child_left()
    return code, out, err


def _typed_corpus(root, n_per_type: int = 4):
    """n_per_type bundles under each document-type directory."""
    for doc_type in DOC_TYPES:
        for i in range(n_per_type):
            doc_id = f"{doc_type}/d{i}"
            _write(root, random_document(random.Random(doc_id), doc_id))
    return root


def _argvs(a, b, typed):
    """Each corpus command with the number of documents it splits."""
    yield ["validate", a], len(IDS_A)
    yield ["validate", "--keep-going", a], len(IDS_A)
    for cmd in ("iaa", "score"):
        for layer in LAYERS:
            yield [cmd, "--layer", layer, a, b], len(ALL_IDS)
            yield [cmd, "--layer", layer, "--details", a, b], len(ALL_IDS)
    for report in REPORTS:
        yield ["stats", "--report", report, a], len(IDS_A)
        yield ["stats", "--report", report, "--format", "json", a], len(IDS_A)
        yield ["stats", "--report", report, "--doc-type", DOC_TYPES[1], typed], 4


def test_output_does_not_depend_on_the_slice_count(tmp_path, capsys, cpus):
    a, b = _corpus_pair(tmp_path)
    typed = _typed_corpus(tmp_path / "typed")
    for argv, n_docs in _argvs(a, b, typed):
        cpus(1)
        want = _run(capsys, argv)
        assert want[0] in (0, 1)
        # One slice per document when the mask holds more CPUs than that.
        for n in (2, 3, 100):
            forks = cpus(n)
            assert _run(capsys, argv) == want, (argv, n)
            assert len(forks) == min(n, n_docs) - 1
    # The corpora hold an excluded document and an excluded sentence.
    assert "excluded document m3" in _run(capsys, ["iaa", "--layer", "chunk", a, b])[2]
    assert "excluded sentences in m3" in _run(capsys, ["iaa", "--layer", "tree", a, b])[2]


# Three slices of ALL_IDS: [a, a-b, a/z], [m1, m2, m3], [m4, m5, only_a, only_b].
# One bundle per slice and side, m3 on both sides.
BROKEN = [("A", "a-b"), ("B", "a"), ("A", "m3"), ("B", "m3"), ("A", "only_a"), ("B", "m4")]


def _first_error(broken) -> tuple:
    """The (doc id, side) a serial run reports: smallest id, A before B."""
    return min((doc_id, side) for side, doc_id in broken)


@pytest.mark.parametrize("cmd", ["iaa", "score", "validate"])
def test_first_error_in_doc_id_order_wins(tmp_path, capsys, cpus, cmd):
    a, b = _corpus_pair(tmp_path)
    roots = {"A": a, "B": b}
    cells = [c for c in BROKEN if cmd != "validate" or c[0] == "A"]
    cases = [[c] for c in cells] + [
        [c, d] for i, c in enumerate(cells) for d in cells[i + 1:]
    ]
    argv = ["validate", a] if cmd == "validate" else [cmd, "--layer", "seg", a, b]
    for broken in cases:
        files = [roots[side] / f"{doc_id}.tok" for side, doc_id in broken]
        saved = [f.read_bytes() for f in files]
        for f in files:
            f.write_text("bad\n", encoding="utf-8")
        doc_id, side = _first_error(broken)
        cpus(3)
        got = _run(capsys, argv)
        assert got[:2] == (2, ""), broken
        assert got[2].startswith(f"error: {roots[side] / doc_id}.tok:line 1:"), broken
        cpus(1)
        assert _run(capsys, argv) == got, broken
        for f, data in zip(files, saved):
            f.write_bytes(data)


# Three slices of IDS_A: [a, a-b], [a/z, m1], [m3, m5, only_a].
FIRST, MIDDLE, LAST = "a", "m1", "only_a"


@pytest.mark.parametrize("report", REPORTS)
def test_stats_reports_the_first_malformed_file_of_one_slice(tmp_path, capsys, cpus, report):
    a, _ = _corpus_pair(tmp_path)
    (ext,) = _LAYER_FILES[report]
    cases = [[FIRST], [MIDDLE], [LAST], [MIDDLE, LAST], [FIRST, MIDDLE, LAST]]
    for broken in cases:
        files = [a / f"{doc_id}.{ext}" for doc_id in broken]
        saved = [f.read_bytes() for f in files]
        for f in files:
            f.write_text("bad\n", encoding="utf-8")
        argv = ["stats", "--report", report, a]
        cpus(1)
        want = _run(capsys, argv)
        assert want[:2] == (2, ""), broken
        assert want[2].startswith(f"error: {a / broken[0]}.{ext}:"), broken
        forks = cpus(3)
        assert _run(capsys, argv) == want, broken
        assert len(forks) == 2
        for f, data in zip(files, saved):
            f.write_bytes(data)


def _parse_error_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if ": parse-error: " in line]


@pytest.mark.parametrize("broken", [
    [(FIRST, "tok")],
    [(FIRST, "ptb"), (MIDDLE, "ann")],
    [(FIRST, "chk"), (MIDDLE, "tok"), (LAST, "txt")],
], ids=["one-slice", "two-slices", "three-slices"])
def test_keep_going_reports_every_malformed_file(tmp_path, capsys, cpus, broken):
    a, _ = _corpus_pair(tmp_path)
    cpus(1)
    clean = _run(capsys, ["validate", a])
    for doc_id, ext in broken:
        # Bytes that are not UTF-8 for the text, a malformed line for the rest.
        (a / f"{doc_id}.{ext}").write_bytes(b"\xff\n" if ext == "txt" else b"bad\n")
    # Without the flag the first malformed file ends the run.
    doc_id, ext = broken[0]
    code, out, err = _run(capsys, ["validate", a])
    assert (code, out) == (2, "") and err.startswith(f"error: {a / doc_id}.{ext}:line 1:")
    argv = ["validate", "--keep-going", a]
    want = _run(capsys, argv)
    code, out, err = want
    assert code == 1
    # One parse-error finding per broken file, in doc-id order, each the
    # error line the run without the flag would end with.
    lines = _parse_error_lines(out)
    assert [line.split(":", 1)[0] for line in lines] == [doc_id for doc_id, _ in broken]
    for line, (doc_id, ext) in zip(lines, broken):
        assert line.startswith(f"{doc_id}: {ext}: parse-error: {a / doc_id}.{ext}:line 1: ")
    # The other documents' findings are those of the clean corpus.
    skipped = {doc_id for doc_id, _ in broken}
    assert [line for line in out.splitlines() if line not in lines] == [
        line for line in clean[1].splitlines() if line.split(":", 1)[0] not in skipped
    ]
    assert err == f"{len(out.splitlines())} finding(s) in {len(IDS_A)} document(s)\n"
    for n in (2, 3):
        forks = cpus(n)
        assert _run(capsys, argv) == want, n
        assert len(forks) == n - 1


def test_keep_going_exit_codes(tmp_path, capsys, cpus):
    (tmp_path / "empty").mkdir()
    cpus(2)
    assert _run(capsys, ["validate", "--keep-going", tmp_path / "empty"]) == (
        2, "", f"error: no document bundles under {tmp_path / 'empty'}\n")
    root = _typed_corpus(tmp_path / "typed", n_per_type=1)
    assert _run(capsys, ["validate", "--keep-going", root])[:2] == (0, "")
    (root / DOC_TYPES[1] / "d0.ptb").write_text("bad\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["validate", "--keep-going", root])
    assert code == 1 and len(_parse_error_lines(out)) == 1
    # An unreadable file is not a parse error: it still ends the run.
    (root / DOC_TYPES[0] / "d0.tok").unlink()
    (root / DOC_TYPES[0] / "d0.tok").mkdir()
    code, out, err = _run(capsys, ["validate", "--keep-going", root])
    assert (code, out) == (2, "") and "Is a directory" in err


@pytest.mark.parametrize("argv", CORPUS_ARGVS)
def test_every_command_forks_by_the_one_slice_minimum(
    tmp_path, monkeypatch, capsys, cpus, argv,
):
    a, b = _corpus_pair(tmp_path)
    dirs = {"A": a, "B": b}
    ids = ALL_IDS if "B" in argv else IDS_A
    monkeypatch.setattr(fanout, "MIN_SLICE_DOCS", len(ids) // 2)
    forks = cpus(100)
    assert _run(capsys, [dirs.get(arg, arg) for arg in argv])[0] in (0, 1)
    assert len(forks) == 1


def test_worker_os_error_prints_the_serial_line(tmp_path, capsys, cpus):
    a, b = _corpus_pair(tmp_path)
    (a / "m5.tok").unlink()
    (a / "m5.tok").mkdir()
    for argv in (["validate", a], ["iaa", "--layer", "pos", a, b]):
        cpus(1)
        want = _run(capsys, argv)
        assert want[0] == 2 and "Is a directory" in want[2]
        forks = cpus(3)
        assert _run(capsys, argv) == want
        assert len(forks) == 2


@pytest.mark.parametrize("argv", CORPUS_ARGVS)
def test_parent_loads_only_its_own_slice(tmp_path, monkeypatch, capsys, cpus, argv):
    a, b = _corpus_pair(tmp_path)
    dirs = {"A": str(a), "B": str(b)}
    tracker = _Liveness({side: d + "/" for side, d in dirs.items()})
    monkeypatch.setattr(annio, "load_document", tracker)
    cpus(2)
    assert main([dirs.get(arg, arg) for arg in argv]) in (0, 1)
    ids = ALL_IDS if "B" in argv else IDS_A
    first = ids[: len(ids) // 2]
    assert len(tracker.refs["A"]) == len(set(first) & set(IDS_A))
    assert len(tracker.refs["B"]) == (len(set(first) & set(IDS_B)) if "B" in argv else 0)
    _no_child_left()


def _in_worker_for(doc_id: str, action):
    """A load_document that runs `action` when a worker loads `doc_id`."""
    parent, load_document = os.getpid(), annio.load_document

    def load(paths, layers=annio.BUNDLE_FILES):
        if paths.doc_id == doc_id and os.getpid() != parent:
            action()
        return load_document(paths, layers)

    return load


@pytest.mark.parametrize("argv", [["validate", "A"], ["score", "--layer", "entity", "A", "B"]])
def test_worker_killed_by_a_signal(tmp_path, monkeypatch, capsys, cpus, argv):
    a, b = _corpus_pair(tmp_path)
    dirs = {"A": a, "B": b}
    argv = [dirs.get(arg, arg) for arg in argv]
    ids = IDS_A if argv[0] == "validate" else ALL_IDS
    second = ids[len(ids) // 3: 2 * len(ids) // 3]
    kill = _in_worker_for(second[0], lambda: os.kill(os.getpid(), signal.SIGKILL))
    monkeypatch.setattr(annio, "load_document", kill)
    cpus(3)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the worker for documents {second[0]} to {second[-1]} "
        f"was killed by signal {int(signal.SIGKILL)}\n"
    )


def test_worker_that_ends_without_a_result(tmp_path, monkeypatch, capsys, cpus):
    a, _ = _corpus_pair(tmp_path)
    monkeypatch.setattr(annio, "load_document", _in_worker_for("m5", lambda: os._exit(3)))
    cpus(2)
    assert _run(capsys, ["validate", a]) == (
        2, "", "error: the worker for documents m1 to only_a ended with exit "
        "status 3 and no whole result\n",
    )


def test_other_worker_exceptions_end_the_run_as_serially(tmp_path, monkeypatch, capsys, cpus):
    a, b = _corpus_pair(tmp_path)
    load_document = annio.load_document

    def load(paths, layers=annio.BUNDLE_FILES):
        if paths.doc_id == "m4":
            raise ZeroDivisionError("boom")
        return load_document(paths, layers)

    monkeypatch.setattr(annio, "load_document", load)
    argv = ["iaa", "--layer", "seg", a, b]
    cpus(1)
    want = _run(capsys, argv)
    assert want[:2] == (2, "")
    assert re.fullmatch(r"error: ZeroDivisionError: boom \(annio\.py:\d+\)\n", want[2])
    forks = cpus(2)
    assert _run(capsys, argv) == want
    assert len(forks) == 1


@pytest.mark.parametrize("where", ["parent", "worker"])
def test_a_bug_in_a_step_exits_2_with_one_located_line(
    tmp_path, monkeypatch, capsys, cpus, where
):
    """A bug in the length report's tally, in the parent's slice or in a
    worker's: exit 2 and one line naming the exception and the innermost
    clincorp frame it passed through, never a traceback."""
    a, _ = _corpus_pair(tmp_path)
    parent, counts = os.getpid(), stats.token_and_sentence_counts

    def tally(docs):
        if (os.getpid() == parent) == (where == "parent"):
            return 1 // 0
        return counts(docs)

    monkeypatch.setattr(stats, "token_and_sentence_counts", tally)
    cpus(2)
    code, out, err = _run(capsys, ["stats", "--report", "length", a])
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: ZeroDivisionError: integer division or modulo by zero "
        r"\(stats\.py:\d+\)\n", err,
    )


def test_an_interrupt_in_the_parent_reaps_every_worker(tmp_path, monkeypatch, capsys, cpus):
    a, _ = _corpus_pair(tmp_path)
    load_document = annio.load_document
    parent = os.getpid()

    def interrupted(paths, layers=annio.BUNDLE_FILES):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return load_document(paths, layers)

    monkeypatch.setattr(annio, "load_document", interrupted)
    forks = cpus(3)
    with pytest.raises(KeyboardInterrupt):
        main(["validate", str(a)])
    assert len(forks) == 2
    _no_child_left()


def test_one_slice_without_fork_affinity_or_a_single_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    n = 4 * fanout.MIN_SLICE_DOCS
    assert fanout.slice_count(n) == 4
    assert fanout.slice_count(2 * fanout.MIN_SLICE_DOCS - 1) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert fanout.slice_count(n) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert fanout.slice_count(n) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert fanout.slice_count(n) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.delattr(os, "fork")
    assert fanout.slice_count(n) == 1
    assert fanout.fold_slices(["a", "b"], str.upper, list, [], list.append) == [["A", "B"]]


def test_the_parent_still_calls_the_names_the_benchmark_patches(tmp_path, monkeypatch, capsys, cpus):
    a, b = _corpus_pair(tmp_path)
    seen = []

    def recorded(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("validate_document", "corpus_agreement"):
        monkeypatch.setattr(cli, name, recorded(name))
    # The benchmark's traced stats span is this name, in the stats module.
    fn = stats.token_and_sentence_counts
    monkeypatch.setattr(stats, "token_and_sentence_counts",
                        lambda docs: seen.append("token_and_sentence_counts") or fn(docs))
    cpus(2)
    assert main(["validate", str(a)]) == 1
    assert main(["iaa", "--layer", "seg", str(a), str(b)]) in (0, 1)
    assert main(["stats", "--report", "length", str(a)]) == 0
    # The workers' calls stay in the workers.
    assert seen == ["validate_document"] * (len(IDS_A) // 2) + [
        "corpus_agreement", "token_and_sentence_counts"]
