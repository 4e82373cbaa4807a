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
from pathlib import Path

from .errors import InputError, ParseError, read_text_file
from .numfmt import is_finite_number
from .record import Record

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
    """Progress of the iterative annotation process."""

    __slots__ = ("round_index", "pool", "assignments", "iaa_history")
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

    def to_json(self, indent: int | None = None) -> str:
        """The state as JSON with sorted keys and a final newline: compact,
        as the state file holds it, or with `indent`, for people to read.
        The compact form is the C encoder's; any indent falls back to the
        slower pure-Python one."""
        return json.dumps(
            {
                "round_index": self.round_index,
                "pool": self.pool,
                "assignments": self.assignments,
                "iaa_history": self.iaa_history,
            },
            ensure_ascii=False, indent=indent, sort_keys=True, allow_nan=False,
            separators=(",", ":") if indent is None else None,
        ) + "\n"

    @classmethod
    def from_json(cls, content: str, *, path: str | None = None) -> "RoundState":
        try:
            data = json.loads(content)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
        required = {"round_index", "pool", "assignments", "iaa_history"}
        if not isinstance(data, dict) or set(data) != required:
            raise ParseError(
                f"state file must hold exactly the keys {sorted(required)}", path=path
            )
        round_index = data["round_index"]
        if type(round_index) is not int or round_index < 1:
            raise ParseError("round_index must be an integer >= 1", path=path)
        if not _is_list_of(data["pool"], _is_str):
            raise ParseError("pool must be a list of strings", path=path)
        seen: set[str] = set()
        for doc_id in data["pool"]:
            if doc_id in seen:
                raise ParseError(f"pool repeats document id {doc_id!r}", path=path)
            seen.add(doc_id)
        for key, what, item_ok in (
            ("assignments", "lists of strings", _is_str),
            ("iaa_history", "lists of finite numbers in [0, 1]", _is_unit),
        ):
            if not isinstance(data[key], dict) or not all(
                _is_list_of(v, item_ok) for v in data[key].values()
            ):
                raise ParseError(f"{key} must map names to {what}", path=path)
        for task in data["iaa_history"]:
            if not is_task_name(task):
                raise ParseError(f"iaa_history task {task!r} must {TASK_NAME}", path=path)
        return cls(
            round_index=round_index,
            pool=data["pool"],
            assignments=data["assignments"],
            iaa_history={k: list(map(float, v)) for k, v in data["iaa_history"].items()},
        )


# What `round status` needs of a task name to print it as one table cell.
TASK_NAME = "be a non-empty name without a tab or line break"


def is_task_name(name: str) -> bool:
    return "\t" not in name and name.splitlines() == [name]


def _is_list_of(value, item_ok) -> bool:
    return isinstance(value, list) and all(item_ok(x) for x in value)


def _is_str(x) -> bool:
    return isinstance(x, str)


def _is_unit(x) -> bool:
    """A finite JSON number in [0, 1], the range of an agreement value."""
    return is_finite_number(x) and 0 <= x <= 1


def load_state(path: str | Path) -> RoundState:
    return RoundState.from_json(read_text_file(path), path=str(path))


def save_state(state: RoundState, path: str | Path) -> None:
    """Write the state next to `path` and rename it over `path`, so a failed
    write leaves the old file whole.  No fsync: this guards against a crash
    of the process, not of the machine."""
    tmp = f"{path}.tmp"
    Path(tmp).write_text(state.to_json(), encoding="utf-8")
    os.replace(tmp, path)


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
    if not 0.0 <= fraction <= 1.0:
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
