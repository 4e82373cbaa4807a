"""validate, iaa and score split their documents across forked workers.

The minimum slice size is set to 1 here, and the affinity mask faked, so
that the small corpora of tests/test_streaming.py take the forked path: what
a command prints and returns must not depend on how many slices it ran, and
no worker may outlive the command, however it ends."""
import os
import signal
import threading

import pytest

from clincorp import annio, cli, fanout
from clincorp.cli import main
from clincorp.tagsets import LAYERS
from test_streaming import IDS_A, IDS_B, _corpus_pair, _Liveness

ALL_IDS = sorted(set(IDS_A) | set(IDS_B))


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


def _argvs(a, b):
    yield ["validate", a]
    for cmd in ("iaa", "score"):
        for layer in LAYERS:
            yield [cmd, "--layer", layer, a, b]
            yield [cmd, "--layer", layer, "--details", a, b]


def test_output_does_not_depend_on_the_slice_count(tmp_path, capsys, cpus):
    a, b = _corpus_pair(tmp_path)
    for argv in _argvs(a, b):
        n_docs = len(IDS_A) if argv[0] == "validate" else len(ALL_IDS)
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


@pytest.mark.parametrize("argv", [["validate", "A"], ["iaa", "--layer", "tree", "A", "B"]])
def test_parent_loads_only_its_own_slice(tmp_path, monkeypatch, capsys, cpus, argv):
    a, b = _corpus_pair(tmp_path)
    dirs = {"A": str(a), "B": str(b)}
    tracker = _Liveness({side: d + "/" for side, d in dirs.items()})
    monkeypatch.setattr(annio, "load_document", tracker)
    cpus(2)
    assert main([dirs.get(arg, arg) for arg in argv]) in (0, 1)
    ids = IDS_A if argv[0] == "validate" else ALL_IDS
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

    def fail():
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(annio, "load_document", _in_worker_for("m4", fail))
    cpus(2)
    failed = r"(?s)documents m3 to only_b failed:.*ZeroDivisionError: boom"
    with pytest.raises(RuntimeError, match=failed):
        main(["iaa", "--layer", "seg", str(a), str(b)])
    _no_child_left()


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
    calls = []
    assert fanout.fan_out(["a", "b"], lambda ids: calls.append(ids) or len(ids)) == [2]
    assert calls == [["a", "b"]]


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
    cpus(2)
    assert main(["validate", str(a)]) == 1
    assert main(["iaa", "--layer", "seg", str(a), str(b)]) in (0, 1)
    # The workers' calls stay in the workers.
    assert seen == ["validate_document"] * (len(IDS_A) // 2) + ["corpus_agreement"]
