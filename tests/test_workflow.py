"""Deterministic RNG, sampling rounds, convergence and folds."""
import json
import math
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from clincorp.errors import InputError, ParseError
from clincorp.workflow import (
    ConvergencePolicy,
    RoundState,
    SplitMix64,
    assign_duplicates,
    check_convergence,
    first_repeat,
    kfold,
    load_state,
    sample_round,
    save_state,
    seeded_shuffle,
)

# First outputs of the splitmix64 sequence for seed 0, a widely published
# cross-implementation fixture.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_splitmix64_known_answers():
    rng = SplitMix64(0)
    assert tuple(rng.next() for _ in range(3)) == SPLITMIX64_SEED0
    rng2 = SplitMix64(1 << 70)  # seeds reduce modulo 2**64
    assert rng2.next() == SplitMix64(0).next()
    assert all(0 <= SplitMix64(s).next() < (1 << 64) for s in range(50))


def test_seeded_shuffle_deterministic_permutation():
    items = [f"d{i}" for i in range(40)]
    once = seeded_shuffle(items, 7)
    again = seeded_shuffle(items, 7)
    other = seeded_shuffle(items, 8)
    assert once == again
    assert sorted(once) == sorted(items)
    assert once != other  # overwhelmingly likely for 40 items
    assert items == [f"d{i}" for i in range(40)]  # input untouched
    assert seeded_shuffle([], 1) == []
    assert seeded_shuffle(["x"], 1) == ["x"]


def test_sample_round_draws_without_replacement():
    state = RoundState(round_index=1, pool=[f"d{i}" for i in range(10)])
    new_state, sampled = sample_round(state, 4, seed=3)
    assert len(sampled) == 4
    assert new_state.round_index == 2
    assert len(new_state.pool) == 6
    assert set(sampled) | set(new_state.pool) == set(state.pool)
    assert not set(sampled) & set(new_state.pool)
    # Remaining pool keeps the original order of the survivors.
    assert new_state.pool == [d for d in state.pool if d not in set(sampled)]
    assert state.round_index == 1  # input state untouched
    with pytest.raises(InputError):
        sample_round(state, 11, seed=0)


def test_assign_duplicates_shares_then_alternates():
    docs = [f"d{i}" for i in range(9)]
    assignments = assign_duplicates(docs, 1 / 3, seed=5)
    assert set(assignments) == set(docs)
    shared = [d for d, g in assignments.items() if len(g) == 2]
    assert len(shared) == 3  # ceil((1/3) * 9) = 3, no float drift
    singles = [g[0] for d, g in assignments.items() if len(g) == 1]
    assert singles.count("AG1") == 3
    assert singles.count("AG2") == 3
    assert assign_duplicates(docs, 1 / 3, seed=5) == assignments
    with pytest.raises(InputError):
        assign_duplicates(docs, 1.5, seed=0)


def test_assign_duplicates_boundaries():
    docs = ["a", "b", "c", "d"]
    all_shared = assign_duplicates(docs, 1.0, seed=1)
    assert all(g == ["AG1", "AG2"] for g in all_shared.values())
    none_shared = assign_duplicates(docs, 0.0, seed=1)
    assert all(len(g) == 1 for g in none_shared.values())
    assert len(assign_duplicates([], 0.5, seed=1)) == 0


def test_convergence_window_rule():
    policy = ConvergencePolicy(window=3, tau={"entity": 0.9}, default_tau=0.85)
    assert check_convergence([0.91, 0.92, 0.95], policy, "entity")
    assert not check_convergence([0.92, 0.95], policy, "entity")  # short
    assert not check_convergence([0.89, 0.95, 0.95], policy, "entity")
    # Only the trailing window matters.
    assert check_convergence([0.2, 0.91, 0.92, 0.95], policy, "entity")
    # Unknown tasks use the default threshold.
    assert check_convergence([0.86, 0.86, 0.86], policy, "chunk")
    assert not check_convergence([0.86, 0.86, 0.86], policy, "entity")


def test_round_state_json_roundtrip(tmp_path):
    state = RoundState(
        round_index=3,
        pool=["d3", "d1"],
        assignments={"d2": ["AG1", "AG2"]},
        iaa_history={"entity": [0.8, 0.9]},
    )
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded = load_state(path)
    assert loaded == state
    keys = set(json.loads(path.read_text(encoding="utf-8")))
    assert keys == {"round_index", "pool", "assignments", "iaa_history"}


def test_state_file_is_compact_and_the_indented_form_still_loads(tmp_path):
    data = {
        "assignments": {"d2": ["AG1", "AG2"]}, "iaa_history": {"entity": [0.8]},
        "pool": ["d3", "病历1"], "round_index": 3,
    }
    compact = json.dumps(data, ensure_ascii=False, separators=(",", ":")) + "\n"
    indented = json.dumps(data, ensure_ascii=False, indent=2) + "\n"
    path = tmp_path / "state.json"
    path.write_text(indented, encoding="utf-8")  # as earlier versions wrote it
    state = load_state(path)
    assert state == RoundState(3, ["d3", "病历1"], {"d2": ["AG1", "AG2"]}, {"entity": [0.8]})
    save_state(state, path)
    # The pool moves to the pool file named by its CRC-32; the state file pins it.
    pool_bytes = '["d3","病历1"]\n'.encode("utf-8")
    assert _pool_files(tmp_path) == [(_pool_name(pool_bytes), pool_bytes)]
    pin = {"count": 2, "crc32": zlib.crc32(pool_bytes)}
    assert path.read_text(encoding="utf-8") == json.dumps(
        {**data, "pool": pin}, ensure_ascii=False, separators=(",", ":")) + "\n"
    assert load_state(path) == state
    # The inline form is what `round new` prints.
    assert state.to_json() == compact
    assert state.to_json(indent=2) == indented


@pytest.mark.parametrize(
    "content",
    [
        "{]",
        '{"round_index": 1, "pool": []}',  # missing keys
        json.dumps({
            "round_index": 0, "pool": [], "assignments": {}, "iaa_history": {},
        }),  # round_index below 1
        json.dumps({
            "round_index": 1, "pool": [], "assignments": {},
            "iaa_history": {}, "extra": 1,
        }),
    ],
)
def test_round_state_rejects_malformed(tmp_path, content):
    path = tmp_path / "state.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError):
        load_state(path)


VALID_STATE = {"round_index": 1, "pool": ["d1"], "assignments": {}, "iaa_history": {}}


@pytest.mark.parametrize(
    "field, value",
    [
        ("round_index", True),
        ("round_index", 1.0),
        ("round_index", "1"),
        ("pool", 5),
        ("pool", "d1"),
        ("pool", ["d1", 2]),
        ("assignments", []),
        ("assignments", {"d1": "AG1"}),
        ("assignments", {"d1": ["AG1", None]}),
        ("iaa_history", []),
        ("iaa_history", {"seg": 0.9}),
        ("iaa_history", {"seg": ["x"]}),
        ("iaa_history", {"seg": [True]}),
        ("iaa_history", {"seg": [0.9, None]}),
        ("iaa_history", {"seg": [10 ** 400]}),
        ("pool", {"count": 1}),
        ("pool", {"count": 1, "crc32": 0, "ids": 1}),
        ("pool", {"count": True, "crc32": 0}),
        ("pool", {"count": 1, "crc32": -1}),
        ("pool", {"count": 1, "crc32": 1 << 32}),
        ("pool", {"count": 1, "crc32": "0"}),
    ],
)
def test_round_state_checks_field_types(tmp_path, field, value):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**VALID_STATE, field: value}), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_state(path)
    assert err.value.path == str(path)
    assert str(err.value).startswith(f"{path}: {field} must ")


def test_round_state_rejects_a_repeated_pool_id(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({**VALID_STATE, "pool": ["a", "b", "a"]}), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_state(path)
    assert str(err.value) == f"{path}: pool repeats document id 'a'"


def test_round_state_rejects_an_assigned_pool_id(tmp_path):
    # The pool is the pool file's ids less the assigned ones, so an assigned
    # id in a state file from before the pool file would not read back.
    path = tmp_path / "state.json"
    data = {**VALID_STATE, "pool": ["d1", "d2"], "assignments": {"d2": ["AG1"]}}
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_state(path)
    assert str(err.value) == f"{path}: pool holds assigned document id 'd2'"


def _files(directory):
    return sorted((p.name, p.read_bytes(), p.stat().st_ino) for p in directory.iterdir())


def _pool_name(pool_bytes: bytes, state: str = "state.json") -> str:
    return f"{state}.{zlib.crc32(pool_bytes):08x}.pool"


def _pool_files(directory):
    return sorted((p.name, p.read_bytes()) for p in directory.glob("*.pool"))


def _pool_bytes(pool: list[str]) -> bytes:
    return (json.dumps(pool, ensure_ascii=False, separators=(",", ":")) + "\n").encode("utf-8")


def test_save_state_names_the_pool_file_by_its_pool(tmp_path):
    path = tmp_path / "state.json"
    save_state(RoundState(pool=["d1", "d2", "d3"]), path)
    first = _pool_bytes(["d1", "d2", "d3"])
    assert _pool_files(tmp_path) == [(_pool_name(first), first)]
    # A sample writes the pool that is left to its own file, renames the
    # state file into place and then removes the file the old one pinned.
    state, sampled = sample_round(load_state(path), 2, seed=1)
    state.assignments.update((d, ["AG1"]) for d in sampled)
    save_state(state, path)
    left = _pool_bytes(state.pool)
    assert _pool_files(tmp_path) == [(_pool_name(left), left)]
    assert load_state(path) == state and len(state.pool) == 1
    # A record-iaa-style save of a state loaded without its pool writes the
    # state file alone.
    before = [f for f in _files(tmp_path) if f[0] != "state.json"]
    unread = load_state(path, pool=False)
    unread.iaa_history["seg"] = [0.5]
    save_state(unread, path)
    assert [f for f in _files(tmp_path) if f[0] != "state.json"] == before
    assert load_state(path).iaa_history == {"seg": [0.5]}
    # Any pool, the same one too, reads back from the one file named by it.
    for change in (lambda s: None, lambda s: s.pool.reverse(),
                   lambda s: s.assignments.clear(), lambda s: s.pool.pop()):
        state = load_state(path)
        change(state)
        save_state(state, path)
        assert load_state(path) == state
        pool_bytes = _pool_bytes(state.pool)
        assert _pool_files(tmp_path) == [(_pool_name(pool_bytes), pool_bytes)]
    assert load_state(path).pool == []
    # A state loaded without its pool, given one.
    state = load_state(path, pool=False)
    state.pool = ["d9"]
    save_state(state, path)
    assert load_state(path).pool == ["d9"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "state.json", _pool_name(_pool_bytes(["d9"]))]


def test_a_pool_file_is_read_less_the_assigned_ids(tmp_path):
    # An older version pins `<state>.pool`, which holds assigned ids, and a
    # file of the same bytes is named by their CRC-32: this version left it
    # before the older one rewrote the state.
    path = tmp_path / "state.json"
    pool_bytes = _pool_bytes(["d0", "d1", "d2"])
    for name in ("state.json.pool", _pool_name(pool_bytes)):
        (tmp_path / name).write_bytes(pool_bytes)
    pin = {"count": 3, "crc32": zlib.crc32(pool_bytes)}
    path.write_text(json.dumps({**VALID_STATE, "pool": pin, "assignments": {"d1": ["AG1"]}}),
                    encoding="utf-8")
    assert load_state(path).pool == ["d0", "d2"]


def test_save_state_writes_a_sample_whose_drawn_ids_are_not_assigned(tmp_path):
    path = tmp_path / "state.json"
    save_state(RoundState(pool=["d1", "d2", "d3"]), path)
    state, sampled = sample_round(load_state(path), 2, seed=1)
    save_state(state, path)
    # The drawn ids are in neither the pool nor the assignments: the pool
    # file holds the pool that is left.
    assert load_state(path) == state and state.assignments == {}
    assert [json.loads(b) for _, b in _pool_files(tmp_path)] == [state.pool]


def test_save_state_to_another_path_writes_its_pool_file(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_state(RoundState(pool=["d1", "d2", "d3"], assignments={"d0": ["AG1"]}), first)
    firsts = _pool_files(tmp_path)
    # b.json first pins a pool file of its own: the save replaces both, and
    # leaves a.json's pool file alone.
    save_state(RoundState(pool=["x"]), second)
    save_state(load_state(first), second)
    assert load_state(second) == load_state(first)
    pool_bytes = _pool_bytes(["d1", "d2", "d3"])
    assert _pool_files(tmp_path) == [
        *firsts, (_pool_name(pool_bytes, "b.json"), pool_bytes)]
    state, sampled = sample_round(load_state(second), 3, seed=2)
    assert sorted(sampled) == ["d1", "d2", "d3"]
    # A state loaded without its pool has none to write elsewhere.
    before = _files(tmp_path)
    with pytest.raises(InputError) as err:
        save_state(load_state(first, pool=False), tmp_path / "c.json")
    assert str(err.value) == "cannot write the round state: pool must be a list of strings"
    assert _files(tmp_path) == before


@pytest.mark.parametrize("ids, repeat", [
    ([], None), (["d1", "d2"], None), (["d1", "d2", "d1"], "d1"),
    (["d1", "d2", "d2", "d1"], "d2"),
])
def test_first_repeat_names_the_first_id_seen_before(ids, repeat):
    assert first_repeat(ids) == repeat


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_round_state_rejects_non_finite_history(tmp_path, token):
    path = tmp_path / "state.json"
    path.write_text(
        json.dumps({**VALID_STATE, "iaa_history": {"seg": [0.5]}}).replace("0.5", token),
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match="iaa_history must map names to lists of finite"):
        load_state(path)


@pytest.mark.parametrize("value", [7, -3, 1.0001, -1e-9])
def test_round_state_rejects_history_outside_unit_range(tmp_path, value):
    path = tmp_path / "state.json"
    path.write_text(
        json.dumps({**VALID_STATE, "iaa_history": {"seg": [0.5, value]}}), encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        load_state(path)
    assert err.value.path == str(path)
    assert str(err.value) == (
        f"{path}: iaa_history must map names to lists of finite numbers in [0, 1]"
    )


def test_round_state_accepts_integer_history(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(
        json.dumps({**VALID_STATE, "iaa_history": {"seg": [1, 0.5]}}), encoding="utf-8"
    )
    assert load_state(path).iaa_history == {"seg": [1.0, 0.5]}


def test_save_state_refuses_non_finite_values(tmp_path):
    path = tmp_path / "state.json"
    with pytest.raises(InputError):
        save_state(RoundState(pool=["d1"], iaa_history={"seg": [math.nan]}), path)
    assert not path.exists()


def test_save_state_failing_midway_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    old = RoundState(pool=["d1", "d2"], iaa_history={"seg": [0.5]})
    save_state(old, path)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    real_write_text = Path.write_text

    def write_half_then_fail(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    loaded, unread = load_state(path), load_state(path, pool=False)
    loaded.iaa_history["seg"].append(0.75)
    unread.iaa_history["seg"].append(0.75)
    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    # A state with its pool writes the pool file first, one without it the
    # state file alone.  The error names the state file, not the temporary one.
    for state in (loaded, unread, RoundState(round_index=2, pool=["d2"])):
        with pytest.raises(OSError) as err:
            save_state(state, path)
        assert str(err.value) == f"[Errno 28] No space left on device: '{path}'"
    monkeypatch.undo()
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
    assert load_state(path) == old
    save_state(RoundState(round_index=2, pool=["d2"]), path)
    assert load_state(path) == RoundState(round_index=2, pool=["d2"])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "state.json", _pool_name(_pool_bytes(["d2"]))]


def test_save_state_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    save_state(RoundState(pool=["d1"]), path)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    renamed = []

    def fail_replace(src, dst):
        renamed.append(Path(src).name)
        raise OSError(18, "Invalid cross-device link")

    # A state without its pool renames the state file alone, one with it the
    # pool file first.
    for state, tmp in ((load_state(path, pool=False), "state.json"),
                       (RoundState(pool=["d2"]), _pool_name(_pool_bytes(["d2"])))):
        state.round_index = 2
        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError):
            save_state(state, path)
        monkeypatch.undo()
        assert renamed.pop() == f"{tmp}.{os.getpid()}.tmp" and not renamed
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


SRC = Path(__file__).resolve().parent.parent / "src"
RECORDER = """
import sys
from clincorp.cli import main
state, value, n = sys.argv[1:]
argv = ["round", "record-iaa", "--state", state, "--task", "seg", "--value", value]
sys.exit(max(main(argv) for _ in range(int(n))))
"""
SAMPLER = """
import contextlib, io, json, sys
from clincorp.cli import main
state, n = sys.argv[1:]
sampled = []
for seed in range(int(n)):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["round", "sample", "--state", state, "--n", "5", "--seed", str(seed)])
    if code:
        sys.exit(code)
    sampled += json.loads(out.getvalue())["sampled"]
print(json.dumps(sampled))
"""


def test_concurrent_record_iaa_loses_no_update(tmp_path):
    # Three processes each record N values on one state file at once, while
    # a fourth samples M rounds.  Each command loads, changes and saves;
    # without the state lock a process that loads between another's load
    # and save drops that one's update.
    path = tmp_path / "state.json"
    pool = [f"d{i:03}" for i in range(300)]
    save_state(RoundState(pool=pool), path)
    n, m = 60, 20
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    values = ("0.25", "0.5", "0.75")
    procs = [
        subprocess.Popen([sys.executable, "-c", RECORDER, str(path), value, str(n)],
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
        for value in values
    ]
    procs.append(subprocess.Popen([sys.executable, "-c", SAMPLER, str(path), str(m)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env))
    try:
        outputs = [proc.communicate(timeout=30) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)
    assert [proc.returncode for proc in procs] == [0, 0, 0, 0], [err for _, err in outputs]
    state = load_state(path)
    history = state.iaa_history["seg"]
    assert len(history) == 3 * n
    assert sorted(history) == sorted(float(v) for v in values for _ in range(n))
    sampled = json.loads(outputs[-1][0])
    assert len(set(sampled)) == 5 * m
    assert state.round_index == 1 + m
    assert sorted(state.assignments) == sorted(sampled)
    assert state.pool == [d for d in pool if d not in set(sampled)]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "state.json", _pool_name(_pool_bytes(state.pool))]


def test_kfold_sizes_and_partition():
    ids = [f"d{i:03}" for i in range(992)]
    manifest = kfold(ids, 10, seed=7)
    sizes = sorted(len(f) for f in manifest.folds)
    assert sizes == [99] * 8 + [100] * 2
    combined = [d for fold in manifest.folds for d in fold]
    assert sorted(combined) == sorted(ids)
    assert kfold(ids, 10, seed=7).folds == manifest.folds
    assert kfold(ids, 10, seed=8).folds != manifest.folds
    with pytest.raises(InputError):
        kfold(ids, 1, seed=0)
    with pytest.raises(InputError):
        kfold(["a", "b"], 3, seed=0)


def test_kfold_fold_sizes_differ_by_at_most_one():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 200)
        k = rng.randint(2, n)
        manifest = kfold([str(i) for i in range(n)], k, seed=rng.randint(0, 999))
        sizes = [len(f) for f in manifest.folds]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert math.ceil(n / k) == max(sizes)
