"""Iterative annotation-round management.

The annotation process loops: sample documents from the unannotated pool,
assign a share of them to both annotator groups, measure agreement on the
shared documents, and stop once every task's agreement has stayed above its
threshold for a whole window of rounds.  The k-fold splitter supports the
downstream evaluation experiments.

All randomness comes from a self-contained splitmix-style 64-bit generator
driving a Fisher-Yates shuffle (exact algorithm in docs/FORMATS.md), so a
given seed produces the same sample, assignment, or fold manifest in any
implementation, not just this one.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from itertools import chain, filterfalse
from pathlib import Path
from typing import BinaryIO

from .errors import ClincorpError, InputError, ParseError, parse_json, read_text_file
from .numfmt import in_unit_interval
from .record import Record

try:
    import fcntl
except ImportError:  # Windows: state files are not locked (docs/FORMATS.md)
    fcntl = None

GROUP_A = "AG1"
GROUP_B = "AG2"

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 sequence: a 64-bit counter-based generator."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def seeded_shuffle(items: list, seed: int) -> list:
    """Fisher-Yates shuffle of a copy, driven by SplitMix64(seed)."""
    out = list(items)
    rng = SplitMix64(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# ----------------------------------------------------------------- rounds ---

class RoundState(Record):
    """Progress of the iterative annotation process.

    `pool` lists the documents not drawn yet, in the order `round new` was
    given them, or is None in a state loaded without its pool (see
    load_state)."""

    __slots__ = ("round_index", "pool", "assignments", "iaa_history", "_pin")
    # Where the pool is kept is not part of the state: equality leaves it out.
    _fields = ("round_index", "pool", "assignments", "iaa_history")
    __hash__ = None

    def __init__(
        self,
        round_index: int = 1,
        pool: list[str] | None = None,
        assignments: dict[str, list[str]] | None = None,
        iaa_history: dict[str, list[float]] | None = None,
    ):
        self.round_index = round_index
        self.pool = [] if pool is None else pool
        self.assignments = {} if assignments is None else assignments
        self.iaa_history = {} if iaa_history is None else iaa_history
        self._pin: tuple | None = None  # (state file, pin) if read from one; see save_state

    def to_json(self, indent: int | None = None) -> str:
        """The state as JSON with its pool inline, as `round new` prints it
        and as state files held it before the pool file: sorted keys and a
        final newline, compact, or with `indent` for people to read.
        InputError if from_json would refuse or change it."""
        data = {key: getattr(self, key) for key in self._fields}
        problem = _state_problem(data)
        if problem is not None:
            raise InputError(f"cannot write the round state: {problem}")
        return _dumps(data, indent)

    @classmethod
    def from_json(cls, content: str, *, path: str | None = None) -> "RoundState":
        """The state a state file holds.  If the file pins a pool file, the
        state's pool is None: load_state reads it."""
        data = parse_json(content, path)
        problem = _state_problem(data)
        if problem is not None:
            raise ParseError(problem, path=path)
        data["iaa_history"] = {k: list(map(float, v)) for k, v in data["iaa_history"].items()}
        state = cls(**data)
        if type(state.pool) is dict:
            state._pin, state.pool = (path, state.pool), None
        return state


def _dumps(data, indent: int | None = None) -> str:
    # The C encoder writes the compact form, the slower pure-Python one any indent.
    return json.dumps(
        data, ensure_ascii=False, indent=indent, sort_keys=True,
        separators=(",", ":") if indent is None else None,
    ) + "\n"


def _state_problem(data) -> str | None:
    """Why `data`, read from a state file or to be written to one, is not a
    state that reads back unchanged, or None.  Its `pool` is the pin of its
    pool file or, as `round new` prints it and as state files held it before
    the pool file, the list itself.  Types are exact, as json.loads gives
    them: a tuple would read back as a list, an integer key as a string."""
    keys = sorted(RoundState._fields)
    if not isinstance(data, dict) or sorted(data) != keys:
        return f"state file must hold exactly the keys {keys}"
    round_index, pool = data["round_index"], data["pool"]
    if type(round_index) is not int or round_index < 1:
        return "round_index must be an integer >= 1"
    if type(pool) is dict:
        if sorted(pool) != ["count", "crc32"] or set(map(type, pool.values())) != {int} or not (
            0 <= min(pool.values()) and max(pool.values()) < 1 << 32
        ):
            return ('pool must pin the pool file as {"count": N, "crc32": H}, '
                    "unsigned 32-bit integers")
    else:
        if type(pool) is not list or not set(map(type, pool)) <= {str}:
            return "pool must be a list of strings"
        repeat = first_repeat(pool)
        if repeat is not None:
            return f"pool repeats document id {repeat!r}"
    for key, what, item_types, item_ok in (
        ("assignments", "lists of strings", {str}, None),
        # A number in [0, 1] is finite: NaN and the infinities fail the test.
        ("iaa_history", "lists of finite numbers in [0, 1]", {int, float}, in_unit_interval),
    ):
        names = data[key]
        if not (
            isinstance(names, dict) and set(map(type, names)) <= {str}
            and set(map(type, names.values())) <= {list}
            and set(map(type, chain.from_iterable(names.values()))) <= item_types
            and (item_ok is None or all(map(item_ok, chain.from_iterable(names.values()))))
        ):
            return f"{key} must map names to {what}"
    for task in data["iaa_history"]:
        if not is_task_name(task):
            return f"iaa_history task {task!r} must {TASK_NAME}"
    if type(pool) is list:
        # An assigned document was drawn from the pool.
        assigned = next(filter(data["assignments"].__contains__, pool), None)
        if assigned is not None:
            return f"pool holds assigned document id {assigned!r}"
    return None


# What `round status` needs of a task name to print it as one table cell.
TASK_NAME = "be a non-empty name without a tab or line break"


def is_task_name(name: str) -> bool:
    return "\t" not in name and name.splitlines() == [name]


def first_repeat(ids: list[str]) -> str | None:
    """The first id in `ids` equal to an earlier one, or None."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for doc_id in ids:
            if doc_id in seen:
                return doc_id
            seen.add(doc_id)
    return None


def lock_state(path: str | Path) -> BinaryIO:
    """Open the state file at `path` and hold an exclusive advisory lock on
    it until the returned file is closed, so that a command which loads the
    state, changes it and saves it runs whole before the next one loads it.

    save_state renames a new file over `path`, which leaves a waiting lock
    on the file it replaced: a lock taken on a file no longer at `path` is
    dropped and taken again on the one that is.  Without fcntl the file is
    opened but not locked."""
    while True:
        f = open(path, "rb")
        if fcntl is None:
            return f
        try:
            fcntl.flock(f, fcntl.LOCK_EX)
            held, current = os.fstat(f.fileno()), os.stat(path)
        except BaseException:
            f.close()
            raise
        if (held.st_dev, held.st_ino) == (current.st_dev, current.st_ino):
            return f
        f.close()


def load_state(path: str | Path, *, pool: bool = True) -> RoundState:
    """The state saved at `path`.  If the state file pins a pool file, the
    pool is that file's ids, checked against the pin, less the assigned ones;
    without `pool`, the file is not opened and the pool is None.  A state
    file from before the pool file holds its pool itself."""
    state = RoundState.from_json(read_text_file(path), path=str(path))
    if pool and state._pin is not None:
        import zlib

        pin = state._pin[1]
        pool_path = _pool_path(path, pin)
        text = read_text_file(pool_path)
        ids = parse_json(text, pool_path)
        if (
            type(ids) is not list or not set(map(type, ids)) <= {str}
            or first_repeat(ids) is not None
            or pin != {"count": len(ids), "crc32": zlib.crc32(text.encode("utf-8"))}
        ):
            raise ParseError(
                "pool file is not the list of distinct ids its state file pins: it was "
                "edited, or replaced after the state file was written", path=pool_path)
        # Only older pool files hold assigned ids (docs/FORMATS.md).
        state.pool = list(filterfalse(state.assignments.__contains__, ids))
    return state


def _pool_path(path: str | Path, pin: dict) -> str:
    """The pool file `pin` names for the state file at `path`: `<path>.<crc32>.pool`,
    or where only `<path>.pool` exists, that file, as state files pinned it before."""
    named, legacy = f"{path}.{pin['crc32']:08x}.pool", f"{path}.pool"
    return legacy if not os.path.exists(named) and os.path.exists(legacy) else named


def save_state(state: RoundState, path: str | Path) -> None:
    """Write the state to the state file at `path`.

    A loaded pool goes first to `<path>.<crc32>.pool`, named by its bytes'
    CRC-32, so no file a state pins is written over; then the state file,
    which pins it by id count and CRC-32, is renamed into place; then the
    pool file the old state file pinned is removed.  A crash at any step
    leaves the old state or the new one whole.  A state loaded without its
    pool (None) keeps its pin, and saves only to the path it came from.

    Nothing is written for a state that would read back changed.  Each file
    is written to a temporary file named with the process id, so two writers
    never rename each other's, then renamed over its path; a failed write
    removes it and raises an OSError naming `path`.  No fsync: this guards
    against a crash of the process, not of the machine."""
    data = {key: getattr(state, key) for key in RoundState._fields}
    if state.pool is None and state._pin is not None and state._pin[0] == str(path):
        data["pool"] = state._pin[1]
    problem = _state_problem(data)
    if problem is not None:
        raise InputError(f"cannot write the round state: {problem}")
    stale = pool_path = None
    try:
        if state.pool is not None:
            import zlib

            with suppress(OSError, ClincorpError):  # else there is no old pool file
                old = RoundState.from_json(read_text_file(path))._pin
                stale = old and _pool_path(path, old[1])
            text = _dumps(state.pool)
            data["pool"] = {"count": len(state.pool), "crc32": zlib.crc32(text.encode("utf-8"))}
            pool_path = f"{path}.{data['pool']['crc32']:08x}.pool"
            _replace(pool_path, text)
        _replace(path, _dumps(data))
    except OSError as exc:
        # The temporary file's name is not one the user gave.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    if stale not in (None, pool_path):
        with suppress(OSError):  # no state pins it now
            os.remove(stale)


def _replace(path: str | Path, text: str) -> None:
    """Write `text` to a temporary file and rename it over `path`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        Path(tmp).write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def sample_round(
    state: RoundState, n: int, seed: int
) -> tuple[RoundState, list[str]]:
    """Draw n documents from the pool without replacement.

    Returns a new state (the input is untouched) with the drawn documents
    removed and the round counter advanced, plus the sample itself.
    """
    if n < 0 or n > len(state.pool):
        raise InputError(
            f"cannot sample {n} documents from a pool of {len(state.pool)}"
        )
    shuffled = seeded_shuffle(state.pool, seed)
    sampled = shuffled[:n]
    drawn = set(sampled)
    new_state = RoundState(
        round_index=state.round_index + 1,
        pool=[d for d in state.pool if d not in drawn],
        assignments=dict(state.assignments),
        iaa_history={k: list(v) for k, v in state.iaa_history.items()},
    )
    return new_state, sampled


def assign_duplicates(
    docs: list[str], fraction: float, seed: int
) -> dict[str, list[str]]:
    """Assign documents to the two annotator groups.

    ceil(fraction * n) shuffled documents go to both groups so their overlap
    can be scored; the remainder alternates between the groups.  The small
    epsilon keeps fractions like 1/3 from rounding up through float error.
    """
    if not in_unit_interval(fraction):
        raise InputError(f"duplicate fraction must be in [0, 1], got {fraction}")
    shuffled = seeded_shuffle(docs, seed)
    n_shared = math.ceil(fraction * len(docs) - 1e-9)
    assignments: dict[str, list[str]] = {}
    for doc in shuffled[:n_shared]:
        assignments[doc] = [GROUP_A, GROUP_B]
    for i, doc in enumerate(shuffled[n_shared:]):
        assignments[doc] = [GROUP_A if i % 2 == 0 else GROUP_B]
    return assignments


class ConvergencePolicy(Record):
    """Stop rule: the last `window` agreement values must all reach the
    task's threshold."""

    __slots__ = ("window", "tau", "default_tau")

    def __init__(
        self, window: int = 3, tau: dict[str, float] | None = None,
        default_tau: float = 0.9,
    ):
        self.window = window
        self.tau = {} if tau is None else tau
        self.default_tau = default_tau

    def threshold(self, task: str) -> float:
        return self.tau.get(task, self.default_tau)


def check_convergence(
    history: list[float], policy: ConvergencePolicy, task: str
) -> bool:
    if len(history) < policy.window:
        return False
    t = policy.threshold(task)
    return all(v >= t for v in history[-policy.window:])


# ------------------------------------------------------------------ folds ---

class FoldManifest(Record):
    __slots__ = ("k", "seed", "folds")
    __hash__ = None

    def __init__(self, k: int, seed: int, folds: list[list[str]]):
        self.k = k
        self.seed = seed
        self.folds = folds

    def to_json(self) -> str:
        return json.dumps(
            {"k": self.k, "seed": self.seed, "folds": self.folds},
            ensure_ascii=False, indent=2,
        ) + "\n"


def kfold(doc_ids: list[str], k: int, seed: int) -> FoldManifest:
    """Deterministic k-fold split: seeded shuffle, then round-robin deal, so
    fold sizes differ by at most one."""
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    if len(doc_ids) < k:
        raise InputError(f"cannot make {k} folds from {len(doc_ids)} documents")
    shuffled = seeded_shuffle(doc_ids, seed)
    return FoldManifest(k=k, seed=seed, folds=[shuffled[i::k] for i in range(k)])
