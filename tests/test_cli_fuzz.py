"""The exit contract on every path: exit 0, 1 or 2, never a traceback, and
nothing on stdout when the command fails with exit 2.

The sweep runs each subcommand in a fresh interpreter, where a library
module a handler forgot to import would surface as a NameError; the
hypothesis test drives cli.main in this process with arbitrary argv,
config-file and state-file contents."""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clincorp.cli import main
from clincorp import LAYERS
from helpers import random_document, write_bundle

SRC = Path(__file__).resolve().parent.parent / "src"
# What the installed `clincorp` script runs.
ENTRY_POINT = "import sys; from clincorp.cli import main; sys.exit(main(sys.argv[1:]))"

LEXICON = "血常规\t0\t1\t1\t0\t血液常规检查\t-\n血液常规检查\t1\t1\t0\t0\t-\t-\n"
STATE = {"round_index": 1, "pool": ["d1", "d2", "d3", "d4"], "assignments": {},
         "iaa_history": {"seg": [0.95, 0.97, 0.99], "entity": [0.5]}}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Two small corpora and one file of each kind a command reads."""
    root = tmp_path_factory.mktemp("cli")
    for name, seed in (("a", 1), ("b", 2)):
        rng = random.Random(seed)
        for i in range(3):
            write_bundle(root / name, random_document(rng, f"doc{i}"),
                         subdir=("discharge_summary", "progress_note")[i % 2])
    (root / "lexicon.tsv").write_text(LEXICON, encoding="utf-8")
    (root / "binary").write_bytes(b"\xff\xfe\x00(")
    (root / "empty").mkdir()
    ann = next((root / "a").rglob("*.ann"))
    return {"A": str(root / "a"), "B": str(root / "b"), "ANN": str(ann),
            "LEXICON": str(root / "lexicon.tsv"), "BINARY": str(root / "binary"),
            "EMPTY": str(root / "empty"), "MISSING": str(root / "missing"),
            "STATE": str(root / "state.json"), "CONFIG": str(root / "config.json")}


def _sweep_commands() -> list[list[str]]:
    cmds = [["round", "new", "--state", "STATE", "--pool-from", "A"],
            ["round", "sample", "--state", "STATE", "--n", "2", "--seed", "5"],
            ["round", "record-iaa", "--state", "STATE", "--task", "seg", "--value", "0.9"],
            ["round", "status", "--state", "STATE"]]
    for cmd in ("iaa", "score"):
        for layer in LAYERS:
            cmds.append([cmd, "--layer", layer, "--details", "--unlabeled",
                         "--exclude-root", "--keep-punct", "A", "B"])
    for report in ("pos", "syn", "entity", "relation", "length"):
        for fmt in ("tsv", "json"):
            cmds.append(["stats", "--report", report, "--format", fmt, "A"])
    cmds += [["expand", "ANN"], ["seg-advise", "--lexicon", "LEXICON", "血常规"],
             ["kfold", "--k", "2", "--seed", "7", "A"], ["validate", "A"]]
    return cmds


def test_every_subcommand_runs_in_a_fresh_process(paths):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for cmd in _sweep_commands():
        argv = [paths.get(arg, arg) for arg in cmd]
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY_POINT, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode in (0, 1), (cmd, proc.stderr)
        assert "Traceback" not in proc.stderr, cmd


# ------------------------------------------------------------------- fuzz ---

PATH_NAMES = ("A", "B", "ANN", "LEXICON", "BINARY", "EMPTY", "MISSING", "STATE")
NUMBERS = st.sampled_from(["0", "1", "-1", "0.5", "2", "1e400", "-0", "nan", "inf",
                           "x", "", "10000000000000000000000"])
VALUES = NUMBERS | st.sampled_from(PATH_NAMES) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["span", "group", "one2one", "tsv", "json"]),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["seg", "entity"]) | st.text(max_size=3),
                      inner, max_size=2),
    max_leaves=4,
)
CONFIG_KEYS = ("policy", "mode", "beta", "labeled", "include_root", "ignore_punct",
               "format", "duplicate_fraction", "window", "tau", "default_tau")


# Every key a config file may hold, each at its built-in default.
FULL_CONFIG = {"policy": "span_type", "mode": "one2one", "beta": 1.0, "labeled": True,
               "include_root": True, "ignore_punct": True, "format": "tsv",
               "duplicate_fraction": 1 / 3, "window": 3, "tau": {}, "default_tau": 0.9}


def test_config_keys_cover_every_option():
    from clincorp import cli

    assert set(CONFIG_KEYS) == set(cli._OPTIONS) | {"tau"} == set(FULL_CONFIG)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_config_with_every_known_key_runs_every_subcommand(paths, tmp_path):
    # Each run of the sweep starts with `round new`, so both runs see the
    # same round states.
    cfg = tmp_path / "full.json"
    cfg.write_text(json.dumps(FULL_CONFIG), encoding="utf-8")
    commands = [[paths.get(arg, arg) for arg in cmd] for cmd in _sweep_commands()]
    plain = [_run(argv) for argv in commands]
    assert all(code in (0, 1) for code, _, _ in plain)
    assert [_run(["--config", str(cfg), *argv]) for argv in commands] == plain


@pytest.mark.parametrize("key", ["windw", "defualt_tau", "Tau", "", "policy "])
def test_a_mistyped_config_key_stops_every_subcommand(paths, tmp_path, key):
    # The config is read before any corpus or state file: the state file
    # keeps its bytes, and no command writes a file.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FULL_CONFIG, key: 10}), encoding="utf-8")
    state = tmp_path / "state.json"
    state.write_text(json.dumps(STATE), encoding="utf-8")
    before = state.read_bytes()
    message = (f"error: config key {key!r} is unknown; the known keys are "
               f"{', '.join(sorted(CONFIG_KEYS))}\n")
    for cmd in _sweep_commands():
        argv = [str(state) if arg == "STATE" else paths.get(arg, arg) for arg in cmd]
        assert _run(["--config", str(cfg), *argv]) == (2, "", message), cmd
        assert state.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "state.json"]


def _flags(*names: str, max_size: int = 3):
    """Some of the given flags, each followed by a value."""
    return st.lists(
        st.tuples(st.sampled_from(names), VALUES).map(list), max_size=max_size
    ).map(lambda pairs: [tok for pair in pairs for tok in pair])


# Each round action's flags: those it requires, each given a number, and
# its others.
ROUND_FLAGS = {
    "new": ((), ("--pool-from", "--pool")),
    "sample": (("--n", "--seed"), ("--duplicate-fraction",)),
    "record-iaa": (("--task", "--value"), ()),
    "status": ((), ("--window", "--tau")),
}


def _round_argv(action: str):
    """`round ACTION` with its own flags and, at times, one flag of another
    action, which argparse refuses."""
    required, optional = ROUND_FLAGS[action]
    others = [flag for other, flags in ROUND_FLAGS.items() if other != action
              for flag in (*flags[0], *flags[1])]
    return st.tuples(
        st.just(["round", action, "--state", "STATE"]),
        *(NUMBERS.map(lambda value, flag=flag: [flag, value]) for flag in required),
        _flags(*optional) if optional else st.just([]), _flags(*others, max_size=1),
    )


SWITCHES = st.lists(st.sampled_from(
    ["--details", "--unlabeled", "--exclude-root", "--keep-punct"]), max_size=2)
DIRS = st.sampled_from(["A", "B", "EMPTY", "MISSING", "ANN"])

ARGVS = st.one_of(
    st.tuples(st.just(["validate"]), DIRS.map(lambda d: [d])),
    st.tuples(
        st.sampled_from([["iaa"], ["score"]]),
        st.sampled_from(list(LAYERS) + ["bogus"]).map(lambda x: ["--layer", x]),
        _flags("--policy", "--mode", "--beta"), SWITCHES,
        st.lists(DIRS, min_size=2, max_size=2),
    ),
    st.tuples(st.just(["expand"]), st.sampled_from(PATH_NAMES).map(lambda p: [p])),
    st.tuples(
        st.just(["stats", "--report"]),
        st.sampled_from(["pos", "syn", "entity", "relation", "length"]).map(lambda r: [r]),
        _flags("--doc-type", "--format"), DIRS.map(lambda d: [d]),
    ),
    st.tuples(st.just(["kfold"]), _flags("--k", "--seed"), DIRS.map(lambda d: [d])),
    *map(_round_argv, ROUND_FLAGS),
    st.tuples(st.just(["seg-advise", "--lexicon"]),
              st.sampled_from(PATH_NAMES).map(lambda p: [p]),
              st.sampled_from(["血常规", "血液常规检查", "不存在", ""]).map(lambda t: [t])),
    st.lists(VALUES, max_size=4).map(lambda xs: (xs,)),
).map(lambda parts: [tok for part in parts for tok in part])

CONFIGS = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from((*CONFIG_KEYS, "windw", "Tau", "")), JSON_VALUES,
                    max_size=3)
    .map(lambda d: json.dumps(d).encode("utf-8")),
    JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")),
    st.binary(max_size=8),
)
STATES = st.one_of(
    st.just(json.dumps(STATE).encode("utf-8")),
    st.fixed_dictionaries({k: JSON_VALUES for k in STATE})
    .map(lambda d: json.dumps(d).encode("utf-8")),
    st.binary(max_size=8),
)


def _each_round_action(test):
    """`test` run first on the sweep's round commands, so that every round
    handler is reached whatever the draws."""
    for argv in _sweep_commands()[:4]:
        test = example(argv=argv, config=None, state=json.dumps(STATE).encode("utf-8"))(test)
    return test


@settings(max_examples=300, deadline=None)
@_each_round_action
@given(argv=ARGVS, config=CONFIGS, state=STATES)
def test_cli_keeps_the_exit_contract(paths, argv, config, state):
    Path(paths["STATE"]).write_bytes(state)
    argv = [paths.get(arg, arg) for arg in argv]
    if config is not None:
        Path(paths["CONFIG"]).write_bytes(config)
        argv = ["--config", paths["CONFIG"], *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
