"""Split a corpus command's documents across the CPUs this process may use.

fold_slices is the one way the corpus commands use it: validate, iaa, score
and stats each give it their doc ids, what to do with one id (read its
bundle, or pair of bundles, as annio does, and for validate check it), a
step that takes those one at a time over a slice and returns plain data
(rendered findings, per-document agreement counts, a statistics tally), and
a fold that joins the slices' results here, in doc-id order.  It cuts the
ids into contiguous slices, one per CPU in the process's affinity mask, each
at least MIN_SLICE_DOCS long, and runs the step on each: the first slice in
the calling process, every other one in a forked worker that sends its
result back through a pipe, marshalled.  So the total is what one step over
the whole list gives.

One slice, run in the calling process with no fork, is what every case
below gets: one usable CPU, fewer than two slices' worth of documents, a
platform without os.fork or os.sched_getaffinity (Windows, macOS), and a
process with more than one thread, where a fork can deadlock.

Import this module only where it runs: the short commands never need it.
"""
from __future__ import annotations

import marshal
import os
import threading
from typing import Callable, Iterator, NoReturn, TypeVar

from .errors import ClincorpError, error_line

# In a process that holds a 9,920-bundle listing, one fork, pipe and reap
# costs about 3.3-4 ms: what validate spends on about 10 documents (0.32-0.36
# ms each), and agreement or stats on 15-65 (0.06-0.25 ms each, by layer or
# report), on a 2-CPU x86-64 host under Python 3.11.  Slices of at least 100
# documents keep the fork under a tenth of a validate slice's work and below
# the agreement or stats work a worker takes off the caller.  Every corpus
# command forks by this one rule.
MIN_SLICE_DOCS = 100

D = TypeVar("D")
T = TypeVar("T")
U = TypeVar("U")


class WorkerError(ClincorpError):
    """A worker's error, carried back as the error_line the command would
    have printed, or a worker that ended without a result."""


def slice_count(n_docs: int) -> int:
    """How many slices fold_slices cuts `n_docs` documents into, each at
    least MIN_SLICE_DOCS long."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:  # a fork could deadlock
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, n_docs // MIN_SLICE_DOCS))


def fold_slices(
    doc_ids: list[str], per_doc: Callable[[str], D],
    step: Callable[[Iterator[D]], T], total: U, fold: Callable[[U, T], object],
) -> U:
    """`total` after fold(total, step(map(per_doc, ids))) for each slice `ids`
    of `doc_ids`, each a contiguous run of ids, the first run here and the
    others in forked workers.  per_doc reads one doc id, as annio reads a
    document or a pair, and may work on it; the step consumes the map one
    item at a time and returns plain data that marshal can carry.  The folds
    run here, in slice order.

    The error raised is the one of the first failing slice, which is the
    error one step over the whole list would raise.  No worker outlives the
    call, however it ends."""
    n = slice_count(len(doc_ids))
    cuts = [len(doc_ids) * i // n for i in range(n + 1)]
    slices = [doc_ids[lo:hi] for lo, hi in zip(cuts, cuts[1:])]

    def run(ids: list[str]) -> T:
        return step(map(per_doc, ids))

    live: dict[int, int] = {}  # pid -> read end, for each worker not yet reaped
    try:
        for ids in slices[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _work(run, ids, write_end, [read_end, *live.values()])
            # Closed at once, so that no later worker holds it open.
            os.close(write_end)
            live[pid] = read_end
        fold(total, run(slices[0]))
        for pid, ids in zip(list(live), slices[1:]):
            with open(live[pid], "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(live.pop(pid))
            fold(total, _unpack(payload, status, ids))
        return total
    finally:
        if live:
            # Imported only here: signal builds its enums on import, about
            # 1 ms, and a command whose workers all succeed needs none.
            import signal
        for pid, read_end in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)


def _work(step, ids: list[str], write_end: int, inherited: list[int]) -> NoReturn:
    """The forked worker: run `step` on `ids`, write the marshalled outcome
    and leave through os._exit, so that nothing of the caller's stack, no
    finally or atexit handler, runs here."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            outcome = ("ok", step(ids))
        except Exception as exc:
            outcome = ("error", error_line(exc))
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


def _unpack(payload: bytes, status: int, ids: list[str]):
    where = f"the worker for documents {ids[0]} to {ids[-1]}"
    if os.WIFSIGNALED(status):
        raise WorkerError(f"{where} was killed by signal {os.WTERMSIG(status)}")
    try:
        kind, value = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        raise WorkerError(
            f"{where} ended with exit status {os.waitstatus_to_exitcode(status)}"
            " and no whole result"
        ) from None
    if kind == "error":
        raise WorkerError(value)
    return value
