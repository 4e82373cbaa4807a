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
from itertools import chain, filterfalse
from pathlib import Path
from typing import BinaryIO

from .errors import InputError, ParseError, read_text_file
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

    __slots__ = ("round_index", "pool", "assignments", "iaa_history", "_pool_file")
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
        # (path, pin, ids) of the pool file the state was loaded from or
        # saved with, ids None if the file was not read; see save_state.
        self._pool_file: tuple | None = None

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
        data = _loads(content, path)
        problem = _state_problem(data)
        if problem is not None:
            raise ParseError(problem, path=path)
        data["iaa_history"] = {k: list(map(float, v)) for k, v in data["iaa_history"].items()}
        state = cls(**data)
        if type(state.pool) is dict:
            state._pool_file, state.pool = (None, state.pool, None), None
        return state


def _loads(content: str, path: str | None):
    try:
        return json.loads(content)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None


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
        # The pool file's ids less the assigned ones are the pool.
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
    pool is the ids in `<path>.pool`, checked against the pin, less the
    assigned ones; without `pool`, that file is not opened and the pool is
    None.  A state file from before the pool file holds its pool itself."""
    state = RoundState.from_json(read_text_file(path), path=str(path))
    if state._pool_file is not None:
        pool_path, pin = f"{path}.pool", state._pool_file[1]
        ids = _read_pool(pool_path, pin) if pool else None
        state._pool_file = (pool_path, pin, ids)
        if ids is not None:
            state.pool = list(filterfalse(state.assignments.__contains__, ids))
    return state


def _read_pool(path: str, pin: dict) -> list[str]:
    """The ids in the pool file at `path`, which must be the file `pin`
    describes."""
    import zlib

    text = read_text_file(path)
    ids = _loads(text, path)
    if (
        type(ids) is not list or not set(map(type, ids)) <= {str}
        or first_repeat(ids) is not None
        or pin != {"count": len(ids), "crc32": zlib.crc32(text.encode("utf-8"))}
    ):
        raise ParseError(
            "pool file is not the list of distinct ids its state file pins: it was "
            "edited, or replaced after the state file was written", path=path)
    return ids


def save_state(state: RoundState, path: str | Path) -> None:
    """Write the state to the state file at `path`, which pins the pool
    file `<path>.pool` by its id count and CRC-32.

    The pool file is written first, holding the state's pool, unless it
    holds it already: when the state was loaded from `path` or saved to it,
    and its pool is still that file's ids less the assigned ones.  So
    `record-iaa`, and `sample`, which assigns every drawn document, write the
    state file alone.  A state loaded without its pool (None) saves only to
    the path it came from.

    Nothing is written for a state that would read back changed.  Each file
    is written next to its path and renamed over it, so a failed write
    leaves the old file whole.  The temporary file's name holds the process
    id, so two writers never rename each other's half-written file, and it
    is removed when the write or the rename fails.  No fsync: this guards
    against a crash of the process, not of the machine."""
    pool_path = f"{path}.pool"
    data = {key: getattr(state, key) for key in RoundState._fields}
    where, pin, ids = state._pool_file or (None, None, None)
    if state.pool is None and where == pool_path:
        data["pool"] = pin  # loaded without its pool, which stays as it is
    problem = _state_problem(data)
    if problem is not None:
        raise InputError(f"cannot write the round state: {problem}")
    if data["pool"] is not pin and (where != pool_path or ids is None or state.pool != list(
        filterfalse(state.assignments.__contains__, ids)
    )):
        import zlib

        text = _dumps(state.pool)
        pin = {"count": len(state.pool), "crc32": zlib.crc32(text.encode("utf-8"))}
        ids = list(state.pool)
        _replace(pool_path, text)
    _replace(path, _dumps({**data, "pool": pin}))
    state._pool_file = pool_path, pin, ids


def _replace(path: str | Path, text: str) -> None:
    """Write `text` to a temporary file and rename it over `path`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        Path(tmp).write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def sample_round(
    state: RoundState, n: int, seed: int
) -> tuple[RoundState, list[str]]:
    """Draw n documents from the pool without replacement.

    Returns a new state (the input is untouched) with the drawn documents
    removed and the round counter advanced, plus the sample itself.  The
    new state keeps the input's pool file, so once every drawn document is
    assigned, save_state leaves that file as it is; else it writes it anew.
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
    new_state._pool_file = state._pool_file
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
