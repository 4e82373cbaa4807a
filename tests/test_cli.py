"""End-to-end command-line behavior: outputs, exit codes, configuration."""
import hashlib
import json
import os
import random
import re
import shutil
import zlib

import pytest

from clincorp.annio import parse_ptb, serialize_ptb
from clincorp.cli import main
from clincorp.workflow import RoundState, load_state
from helpers import random_document, write_bundle


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv("CLINCORP_CONFIG", raising=False)


def make_corpus(tmp_path, name: str, seed: int, n_docs: int = 3):
    rng = random.Random(seed)
    root = tmp_path / name
    for i in range(n_docs):
        write_bundle(root, random_document(rng, f"doc{i}"))
    return root


def test_validate_clean_corpus(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=1)
    assert main(["validate", str(root)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 finding(s)" in captured.err


def test_validate_reports_findings_and_exits_1(tmp_path, capsys):
    root = tmp_path / "c"
    root.mkdir()
    (root / "d.txt").write_text("发热咳嗽", encoding="utf-8")
    (root / "d.ann").write_text("T1\tdisease 0 2\t发热\n", encoding="utf-8")
    assert main(["validate", str(root)]) == 1
    captured = capsys.readouterr()
    assert "assertion-missing" in captured.out
    assert "1 finding(s)" in captured.err


# One bundle per rule that the layer parsers enforce and validate does not
# check again: (case, layer files over the text "发热咳嗽", the refused file,
# its line or None for a whole-file error).
_TOK = "0\t2\t发热\tNN\n2\t4\t咳嗽\tNN\n"
_PTB = "(IP (NN 发热) (NN 咳嗽))\n"
PARSER_RULES = [
    ("token-unknown-pos", {"tok": "0\t2\t发热\tXX\n"}, "tok", 1),
    ("token-overlap", {"tok": "0\t3\t发热咳\tNN\n2\t4\t咳嗽\tNN\n"}, "tok", 2),
    ("sentence-order", {"tok": "2\t4\t咳嗽\tNN\n\n0\t2\t发热\tNN\n"}, "tok", 3),
    ("token-negative-start", {"tok": "-1\t2\t发热\tNN\n"}, "tok", 1),
    ("token-empty-span", {"tok": "0\t0\t发\tNN\n"}, "tok", 1),
    ("chunk-empty-span", {"tok": _TOK, "chk": "1\t1\tNP\n"}, "chk", 1),
    ("tree-layer-count-mismatch", {"tok": _TOK, "ptb": _PTB * 2}, "ptb", None),
    ("tree-unknown-pos", {"tok": _TOK, "ptb": "(IP (XX 发热) (NN 咳嗽))\n"}, "ptb", 1),
    ("tree-unknown-label", {"tok": _TOK, "ptb": "(QQ (NN 发热) (NN 咳嗽))\n"}, "ptb", 1),
]


@pytest.mark.parametrize(
    "files, bad, line", [case[1:] for case in PARSER_RULES],
    ids=[case[0] for case in PARSER_RULES],
)
def test_validate_leaves_parser_rules_to_the_parsers(tmp_path, capsys, files, bad, line):
    root = tmp_path / "c"
    root.mkdir()
    (root / "d.txt").write_text("发热咳嗽", encoding="utf-8")
    for ext, content in files.items():
        (root / f"d.{ext}").write_text(content, encoding="utf-8")
    assert main(["validate", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where = f"{root / f'd.{bad}'}:" + (" " if line is None else f"line {line}: ")
    assert captured.err.startswith(f"error: {where}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_validate_checks_entity_spans_against_an_empty_text(tmp_path, capsys):
    root = tmp_path / "c"
    root.mkdir()
    (root / "d.txt").write_text("", encoding="utf-8")
    (root / "d.ann").write_text("T1\ttest 0 2\txx\n", encoding="utf-8")
    assert main(["validate", str(root)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "d: entity: span-out-of-range [T1]: entity span [0, 2) exceeds text of length 0\n"
    )
    assert "1 finding(s)" in captured.err


def test_validate_missing_directory_exits_2(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flags_exit_2(capsys):
    assert main(["iaa", "--bogus"]) == 2
    assert main(["frobnicate"]) == 2


def test_iaa_identical_dirs_perfect_agreement(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=2)
    code = main([
        "iaa", "--layer", "entity", "--policy", "span_type_assertion",
        str(root), str(root),
    ])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["f"] == 1.0
    assert report["vacuous"] is False
    assert report["count_a"] == report["count_b"] == report["agreed"]


def test_iaa_output_format_fixed(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=3, n_docs=1)
    main(["iaa", "--layer", "seg", str(root), str(root)])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "{"
    assert lines[4].startswith('  "precision": 1.000')
    assert '"f": 1.000' in out
    assert out.endswith("}\n")
    assert list(json.loads(out)) == [
        "agreed", "count_a", "count_b", "precision", "recall", "f", "vacuous",
    ]


def test_iaa_deterministic_bytes(tmp_path, capsys):
    a = make_corpus(tmp_path, "a", seed=4)
    b = make_corpus(tmp_path, "b", seed=5)
    main(["iaa", "--layer", "relation", str(a), str(b)])
    first = capsys.readouterr().out
    main(["iaa", "--layer", "relation", str(a), str(b)])
    assert capsys.readouterr().out == first


def test_iaa_details_table_on_stderr(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=6, n_docs=2)
    main(["iaa", "--layer", "pos", "--details", str(root), str(root)])
    captured = capsys.readouterr()
    assert captured.err.startswith("doc_id\t")
    assert "macro\t" in captured.err
    json.loads(captured.out)  # report itself still clean JSON


def test_iaa_all_layers_run(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=7)
    for layer in ("seg", "pos", "chunk", "tree", "entity", "relation"):
        assert main(["iaa", "--layer", layer, str(root), str(root)]) == 0
        assert json.loads(capsys.readouterr().out)["f"] == 1.0


def test_iaa_exclusions_exit_1(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for root, tree in ((a, "(IP (NN 发) (NN 热))"), (b, "(IP (NN 发热))")):
        root.mkdir()
        (root / "d.txt").write_text("发热", encoding="utf-8")
        (root / "d.ptb").write_text(tree + "\n", encoding="utf-8")
    code = main(["iaa", "--layer", "tree", str(a), str(b)])
    captured = capsys.readouterr()
    assert code == 1
    assert "excluded" in captured.err
    assert json.loads(captured.out)["vacuous"] is True


LAYER_EXTENSION = {
    "seg": "tok", "pos": "tok", "chunk": "chk", "tree": "ptb",
    "entity": "ann", "relation": "ann",
}


def test_iaa_refuses_a_layer_file_missing_on_both_sides(tmp_path, capsys):
    a, b = tmp_path / "A", tmp_path / "B"
    for root in (a, b):
        root.mkdir()
        (root / "d.txt").write_text("发热", encoding="utf-8")
    for cmd in ("iaa", "score"):
        for layer, ext in LAYER_EXTENSION.items():
            assert main([cmd, "--layer", layer, str(a), str(b)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: no .{ext} file under {a} or {b}\n"


def test_iaa_empty_layer_files_agree_vacuously(tmp_path, capsys):
    # Header-only files, on one side or on both: present but empty.
    a, b = tmp_path / "A", tmp_path / "B"
    for root in (a, b):
        root.mkdir()
        (root / "d.txt").write_text("发热", encoding="utf-8")
    for ext in sorted(set(LAYER_EXTENSION.values())):
        (a / f"d.{ext}").write_text("# empty\n", encoding="utf-8")
    for layer in LAYER_EXTENSION:
        for left, right in ((a, b), (b, a), (a, a)):
            assert main(["iaa", "--layer", layer, str(left), str(right)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["vacuous"] is True and report["f"] == 1.0


def test_iaa_tree_and_ptb_round_trip_survive_a_deep_tree(tmp_path, capsys):
    depth = 3000
    line = "(IP " * (depth - 1) + "(NN 热)" + ")" * (depth - 1)
    root = tmp_path / "deep"
    root.mkdir()
    (root / "d.txt").write_text("热", encoding="utf-8")
    (root / "d.tok").write_text("0\t1\t热\tNN\n", encoding="utf-8")
    (root / "d.ptb").write_text(line + "\n", encoding="utf-8")
    assert main(["validate", str(root)]) == 0
    for extra in ([], ["--exclude-root"], ["--unlabeled"]):
        assert main(["iaa", "--layer", "tree", *extra, str(root), str(root)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        report = json.loads(captured.out)
        assert report["f"] == 1.0 and report["vacuous"] is False
        assert report["count_a"] == (depth - 2 if extra == ["--exclude-root"] else depth - 1)
    text = serialize_ptb(parse_ptb((root / "d.ptb").read_text(encoding="utf-8")))
    assert text.splitlines()[1] == line
    assert serialize_ptb(parse_ptb(text)) == text


def test_iaa_rejects_bad_beta(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=14, n_docs=1)
    for beta in ("0", "-2", "nan", "inf"):
        for cmd in ("iaa", "score"):
            argv = [cmd, "--layer", "seg", "--beta", beta, str(root), str(root)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --beta must be")
            assert "Traceback" not in captured.err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": "x"}), encoding="utf-8")
    argv = ["--config", str(cfg), "iaa", "--layer", "seg", str(root), str(root)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: config key 'beta' must be")


def test_iaa_rejects_directory_without_bundles(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=15, n_docs=1)
    empty = tmp_path / "empty"
    empty.mkdir()
    for cmd in ("iaa", "score"):
        for a, b in ((empty, root), (root, empty), (empty, empty)):
            assert main([cmd, "--layer", "entity", str(a), str(b)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: no document bundles under {empty}\n"


def test_score_roles_gold_recall(tmp_path, capsys):
    gold = tmp_path / "gold"
    pred = tmp_path / "pred"
    for root, ann in (
        (gold, "T1\tsymptom 0 2\t发热\nA1\tpresent T1\n"
               "T2\tsymptom 2 4\t咳嗽\nA2\tpresent T2\n"),
        (pred, "T1\tsymptom 0 2\t发热\nA1\tpresent T1\n"),
    ):
        root.mkdir()
        (root / "d.txt").write_text("发热咳嗽", encoding="utf-8")
        (root / "d.ann").write_text(ann, encoding="utf-8")
    main(["score", "--layer", "entity", str(gold), str(pred)])
    report = json.loads(capsys.readouterr().out)
    assert report["recall"] == 0.5  # half of gold found
    assert report["precision"] == 1.0


def test_expand_emits_renumbered_relations(tmp_path, capsys):
    ann = tmp_path / "d.ann"
    ann.write_text(
        "T1\tsymptom 0 1\t甲\nA1\tpresent T1\n"
        "T2\tsymptom 1 2\t乙\nA2\tpresent T2\n"
        "T3\tdisease 2 3\t丙\nA3\tpresent T3\n"
        "G1\tsymptom T1 T2\n"
        "R1\tSID Arg1:G1 Arg2:T3\n",
        encoding="utf-8",
    )
    assert main(["expand", str(ann)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1:] == [
        "R1\tSID Arg1:T1 Arg2:T3",
        "R2\tSID Arg1:T2 Arg2:T3",
    ]


def test_stats_pos_published_row(tmp_path, capsys):
    root = tmp_path / "corpus"
    root.mkdir()
    # 47,424 tokens, 14,782 of them NN: the published share is 31.17%.
    lines = []
    offset = 0
    for i in range(47424):
        pos = "NN" if i < 14782 else "PU"
        lines.append(f"{offset}\t{offset + 1}\t字\t{pos}")
        offset += 1
        if i % 20 == 19:
            lines.append("")
    (root / "d.txt").write_text("字" * 47424, encoding="utf-8")
    (root / "d.tok").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["stats", "--report", "pos", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "label\tcount\tpct"
    assert "NN\t14782\t31.17" in out


def test_stats_length_and_json_formats(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=8)
    assert main(["stats", "--report", "length", str(root)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tokens\t")
    assert "avg_tokens_per_sentence\t" in out
    assert main(["stats", "--report", "length", "--format", "json", str(root)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"tokens", "sentences", "avg_tokens_per_sentence"}
    assert main(["stats", "--report", "entity", "--format", "json", str(root)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(set(r) == {"label", "count", "pct_within", "pct_all"} for r in rows)


def test_stats_doc_type_filter(tmp_path, capsys):
    rng = random.Random(9)
    root = tmp_path / "mixed"
    write_bundle(root, random_document(rng, "a"), subdir="discharge_summary")
    write_bundle(root, random_document(rng, "b"), subdir="progress_note")
    assert main([
        "stats", "--report", "length", "--doc-type", "discharge_summary", str(root),
    ]) == 0
    capsys.readouterr()
    assert main(["stats", "--report", "length", "--doc-type", "letter", str(root)]) == 2


@pytest.mark.parametrize("report, ext", [
    ("pos", "tok"), ("syn", "ptb"), ("length", "tok"), ("entity", "ann"),
    ("relation", "ann"),
])
def test_stats_refuses_a_report_without_its_layer_file(tmp_path, capsys, report, ext):
    # Only .txt files, then the report's layer file only under the type that
    # --doc-type does not select: no selected bundle has the file to read.
    root = tmp_path / "corpus"
    for subdir in ("discharge_summary", "progress_note"):
        (root / subdir).mkdir(parents=True)
        (root / subdir / "d.txt").write_text("发热", encoding="utf-8")
    for argv in ([], ["--doc-type", "discharge_summary"]):
        assert main(["stats", "--report", report, *argv, str(root)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no .{ext} file under {root}\n"
        (root / "progress_note" / f"d.{ext}").write_text("", encoding="utf-8")


def test_kfold_manifest(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=10, n_docs=7)
    assert main(["kfold", "--k", "3", "--seed", "42", str(root)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["k"] == 3 and manifest["seed"] == 42
    sizes = sorted(len(f) for f in manifest["folds"])
    assert sizes == [2, 2, 3]


@pytest.mark.parametrize("k", ["0", "1"])
def test_kfold_checks_k(tmp_path, capsys, k):
    root = make_corpus(tmp_path, "a", seed=10, n_docs=3)
    assert main(["kfold", "--k", k, "--seed", "1", str(root)]) == 2
    assert capsys.readouterr() == ("", f"error: --k must be an integer >= 2, got {k}\n")


def test_round_lifecycle(tmp_path, capsys):
    state = tmp_path / "state.json"
    docs = [f"d{i}" for i in range(6)]
    assert main(["round", "new", "--state", str(state), "--pool", *docs]) == 0
    capsys.readouterr()

    assert main([
        "round", "sample", "--state", str(state), "--n", "3", "--seed", "1",
        "--duplicate-fraction", "0.34",
    ]) == 0
    sample_out = json.loads(capsys.readouterr().out)
    assert sample_out["round_index"] == 2
    assert len(sample_out["sampled"]) == 3
    shared = [d for d, g in sample_out["assignments"].items() if len(g) == 2]
    assert len(shared) == 2  # ceil(0.34 * 3)

    # Unconverged: only two recorded values for a window of three.
    for value in ("0.97", "0.98"):
        assert main([
            "round", "record-iaa", "--state", str(state),
            "--task", "entity", "--value", value,
        ]) == 0
        capsys.readouterr()
    assert main(["round", "status", "--state", str(state), "--tau", "0.96"]) == 1
    capsys.readouterr()

    assert main([
        "round", "record-iaa", "--state", str(state),
        "--task", "entity", "--value", "0.99",
    ]) == 0
    capsys.readouterr()
    assert main(["round", "status", "--state", str(state), "--tau", "0.96"]) == 0
    status = capsys.readouterr().out
    assert status.splitlines()[0] == "task\trounds\tthreshold\tconverged"
    assert "entity\t3\t0.960\ttrue" in status

    state_data = json.loads(state.read_text(encoding="utf-8"))
    assert state_data["round_index"] == 2
    assert state_data["pool"]["count"] == 6  # the pool file `round new` wrote
    assert state_data["iaa_history"]["entity"] == [0.97, 0.98, 0.99]
    pool = load_state(state).pool
    assert sorted(pool + sample_out["sampled"]) == docs


def test_round_status_empty_history_unconverged(tmp_path, capsys):
    state = tmp_path / "state.json"
    main(["round", "new", "--state", str(state), "--pool", "d1"])
    capsys.readouterr()
    assert main(["round", "status", "--state", str(state)]) == 1
    assert "no agreement history" in capsys.readouterr().err


def test_round_refuses_a_repeated_pool_id(tmp_path, capsys):
    for i, pool in enumerate((["a", "a", "b"], ["d1", "d2", "d1"])):
        state = tmp_path / f"state{i}.json"
        assert main(["round", "new", "--state", str(state), "--pool", *pool]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --pool repeats document id {pool[0]!r}\n"
        assert not state.exists()
        # A state file written by hand is refused the same way before sampling.
        content = json.dumps(
            {"round_index": 1, "pool": pool, "assignments": {}, "iaa_history": {}}
        )
        state.write_text(content, encoding="utf-8")
        assert main(["round", "sample", "--state", str(state), "--n", "2", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {state}: pool repeats document id {pool[0]!r}\n"
        assert state.read_text(encoding="utf-8") == content


@pytest.mark.parametrize("pool", [["x", "y"], []])
def test_round_new_refuses_pool_from_with_pool(tmp_path, capsys, pool):
    corpus = make_corpus(tmp_path, "c", seed=1)
    state = tmp_path / "state.json"
    argv = ["round", "new", "--state", str(state), "--pool-from", str(corpus), "--pool"]
    assert main([*argv, *pool]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: round new takes --pool-from or --pool, not both\n"
    assert not state.exists()


def test_agreement_flag_choices_match_the_tagsets():
    from clincorp import cli
    from clincorp.tagsets import LAYERS, MatchPolicy, RelationMode

    assert cli._LAYERS == LAYERS
    assert list(cli._POLICIES) == sorted(p.value for p in MatchPolicy)
    assert sorted(cli._MODES.values()) == sorted(m.name for m in RelationMode)


def test_help_shows_every_option_default(capsys):
    # argparse %-formats help text only when it prints it.
    from clincorp import cli

    shown = ""
    for cmd in ([], ["validate"], ["iaa"], ["score"], ["expand"], ["stats"],
                ["kfold"], ["round"], ["seg-advise"]):
        assert main([*cmd, "--help"]) == 0
        shown += " ".join(capsys.readouterr().out.split()) + "\n"
    for key, (flag, default, _) in cli._OPTIONS.items():
        assert f"{flag} " in shown, key
        assert f"(config {key}, default {json.dumps(default)})" in shown, key


def test_round_rejects_bad_state_file(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text('{"round_index": 1}', encoding="utf-8")
    assert main(["round", "status", "--state", str(state)]) == 2


def _round_with_history(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["round", "new", "--state", str(state), "--pool", "d1", "d2"]) == 0
    argv = ["round", "record-iaa", "--state", str(state), "--task", "seg", "--value", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    return state


def _assert_round_rejects(state, capsys, cfg_data, argv, message):
    cfg = state.parent / "cfg.json"
    cfg.write_text(json.dumps(cfg_data), encoding="utf-8")
    before = state.read_bytes()
    assert main(["--config", str(cfg), "round", *argv, "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert state.read_bytes() == before


@pytest.mark.parametrize("value", ["x", True, 0, -1, 2.0, None])
def test_round_status_checks_window(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"window": value}, ["status"],
        f"config key 'window' must be an integer >= 1, got {value!r}",
    )


def test_round_status_checks_window_flag(tmp_path, capsys):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"window": 2}, ["status", "--window", "0"],
        "--window must be an integer >= 1, got 0",
    )


@pytest.mark.parametrize(
    "value", ["x", "0.5", False, None, [0.5], pytest.param(10 ** 400, id="huge")]
)
def test_round_sample_checks_duplicate_fraction(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"duplicate_fraction": value}, ["sample", "--n", "1", "--seed", "1"],
        f"config key 'duplicate_fraction' must be a finite number, got {value!r}",
    )
    _assert_round_rejects(
        state, capsys, {}, ["sample", "--n", "1", "--seed", "1", "--duplicate-fraction=nan"],
        "--duplicate-fraction must be a finite number, got nan",
    )
    _assert_round_rejects(
        state, capsys, {"duplicate_fraction": 5}, ["sample", "--n", "1", "--seed", "1"],
        "config key 'duplicate_fraction' must be in [0, 1], got 5",
    )
    _assert_round_rejects(
        state, capsys, {"duplicate_fraction": 0.5},
        ["sample", "--n", "1", "--seed", "1", "--duplicate-fraction", "2"],
        "--duplicate-fraction must be in [0, 1], got 2.0",
    )


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("pool_left", [2, 0])
def test_round_sample_refuses_a_vacuous_round(tmp_path, capsys, n, pool_left):
    state = _round_with_history(tmp_path, capsys)
    if pool_left == 0:
        assert main(["round", "sample", "--state", str(state), "--n", "2", "--seed", "1"]) == 0
        capsys.readouterr()
    _assert_round_rejects(
        state, capsys, {}, ["sample", "--n", n, "--seed", "1"],
        f"--n must be an integer >= 1, got {n}",
    )


@pytest.mark.parametrize("value", ["x", True, None, {"seg": 0.9}])
def test_round_status_checks_default_tau(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"default_tau": value}, ["status"],
        f"config key 'default_tau' must be a finite number, got {value!r}",
    )
    _assert_round_rejects(
        state, capsys, {}, ["status", "--tau=inf"],
        "--tau must be a finite number, got inf",
    )


@pytest.mark.parametrize("value", ["x", True, None, [0.9]])
def test_round_status_checks_tau_values(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"tau": {"entity": 0.9, "seg": value}}, ["status"],
        f"config key 'tau' must map 'seg' to a finite number, got {value!r}",
    )


@pytest.mark.parametrize("value", [5, "x", [0.9], None])
def test_round_status_checks_tau_map(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"tau": value}, ["status"],
        f"config key 'tau' must map task names to thresholds, got {value!r}",
    )


@pytest.mark.parametrize("value", [-1, 1.5, -0.001])
def test_round_status_checks_default_tau_range(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"default_tau": value}, ["status"],
        f"config key 'default_tau' must be in [0, 1], got {value!r}",
    )


@pytest.mark.parametrize("value", ["-1", "1.5"])
def test_round_status_checks_tau_flag_range(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"default_tau": 0.5}, ["status", f"--tau={value}"],
        f"--tau must be in [0, 1], got {float(value)!r}",
    )


@pytest.mark.parametrize("value", [-1, 1.01, 7])
def test_round_status_checks_tau_value_range(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {"tau": {"entity": 0.9, "seg": value}}, ["status"],
        f"config key 'tau' must map 'seg' to a number in [0, 1], got {value!r}",
    )


@pytest.mark.parametrize("value", ["7", "-3", "1.0001"])
def test_record_iaa_checks_value_range(tmp_path, capsys, value):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {}, ["record-iaa", "--task", "seg", f"--value={value}"],
        f"--value must be in [0, 1], got {float(value)!r}",
    )


@pytest.mark.parametrize("task", ["", "a\tb", "a\nb", "a\r", "a\u2028b"])
def test_record_iaa_checks_task_name(tmp_path, capsys, task):
    state = _round_with_history(tmp_path, capsys)
    _assert_round_rejects(
        state, capsys, {}, ["record-iaa", f"--task={task}", "--value=0.5"],
        f"--task must be a non-empty name without a tab or line break, got {task!r}",
    )


def test_round_status_accepts_numeric_config(tmp_path, capsys):
    state = _round_with_history(tmp_path, capsys)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"window": 1, "default_tau": 1, "tau": {"seg": 0.5}}), encoding="utf-8"
    )
    assert main(["--config", str(cfg), "round", "status", "--state", str(state)]) == 0
    assert capsys.readouterr().out == (
        "task\trounds\tthreshold\tconverged\nseg\t1\t0.500\ttrue\n"
    )


def test_stats_rejects_unknown_config_format(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=19, n_docs=1)
    cfg = tmp_path / "cfg.json"
    for value in ("xml", 1):
        cfg.write_text(json.dumps({"format": value}), encoding="utf-8")
        for report in ("pos", "length"):
            assert main(["--config", str(cfg), "stats", "--report", report, str(root)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: config key 'format' must be one of json, tsv, got {value!r}\n"
            )
    cfg.write_text(json.dumps({"format": "json"}), encoding="utf-8")
    assert main(["--config", str(cfg), "stats", "--report", "length", str(root)]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {
        "tokens", "sentences", "avg_tokens_per_sentence",
    }


def test_seg_advise(tmp_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text(
        "血常规\t0\t1\t1\t0\t血液常规检查\t-\n"
        "血液常规检查\t1\t1\t0\t0\t-\t-\n",
        encoding="utf-8",
    )
    assert main(["seg-advise", "--lexicon", str(lex), "血常规"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "血常规\tR2\texpand to 血液常规检查\n"
        "血液常规检查\tR1\tkeep whole\n"
    )
    assert main(["seg-advise", "--lexicon", str(lex), "不存在"]) == 2


def test_config_file_supplies_defaults(tmp_path, capsys, monkeypatch):
    root = make_corpus(tmp_path, "a", seed=11, n_docs=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 2.0, "policy": "span"}), encoding="utf-8")
    main(["--config", str(cfg), "iaa", "--layer", "entity", str(root), str(root)])
    with_config = json.loads(capsys.readouterr().out)
    assert with_config["f"] == 1.0

    monkeypatch.setenv("CLINCORP_CONFIG", str(cfg))
    main(["iaa", "--layer", "entity", str(root), str(root)])
    via_env = json.loads(capsys.readouterr().out)
    assert via_env == with_config

    # Flags override the file.
    assert main([
        "--config", str(cfg), "iaa", "--layer", "entity", "--beta", "1.0",
        str(root), str(root),
    ]) == 0


def test_config_rejects_malformed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert main(["--config", str(cfg), "kfold", "--k", "2", "--seed", "1", "x"]) == 2


def _pinned_pair(tmp_path):
    """Corpus A: four documents under both doc-type directories.  Corpus B:
    A's first two documents unchanged, a different doc2, no doc3."""
    rng = random.Random(12)
    docs = [random_document(rng, f"doc{i}") for i in range(4)]
    subdirs = ["discharge_summary", "progress_note"] * 2
    for doc, sub in zip(docs, subdirs):
        write_bundle(tmp_path / "a", doc, subdir=sub)
    for doc, sub in zip(docs[:2], subdirs):
        write_bundle(tmp_path / "b", doc, subdir=sub)
    other = random_document(random.Random(13), "doc2")
    write_bundle(tmp_path / "b", other, subdir=subdirs[2])
    return tmp_path / "a", tmp_path / "b"


def _seeded_copy(a, dest):
    """A copy of corpus A whose first tree leaf has a surface the token layer
    does not have (tree-token-mismatch) and whose first chunk in one document
    has a label outside the tagset (unknown-label)."""
    shutil.copytree(a, dest)
    ptb = dest / "discharge_summary" / "doc0.ptb"
    ptb.write_text(
        re.sub(r"\((\S+) ([^\s()]+)\)", r"(\1 \2错)", ptb.read_text(encoding="utf-8"), count=1),
        encoding="utf-8",
    )
    chk = dest / "progress_note" / "doc1.chk"
    chk.write_text(
        re.sub(r"(?m)^(\d+\t\d+\t)\S+$", r"\1XX", chk.read_text(encoding="utf-8"), count=1),
        encoding="utf-8",
    )
    return dest


# sha256 of (stdout, stderr) for each rendered report on _pinned_pair, and of
# validate on A and on its _seeded_copy.
_PINNED_OUTPUT = {
    ("stats", "pos", "tsv"):
        "f1e052c3de4f769264ea0f42ccfd4c89f16098b6bc54fbc1ba56e9ad81bc61e4",
    ("stats", "pos", "json"):
        "01d711530fd2b4fb6fcbd92410410e68d31353487acba2fb51cac370322f768a",
    ("stats", "syn", "tsv"):
        "8692e3c47943d316ed4f29321855e2249596778c1316c08490900f6e57d46871",
    ("stats", "syn", "json"):
        "f4c5098e79028fedbb594746b9b07fd966874fdd14c6887aa3fe213aea8f79fb",
    ("stats", "entity", "tsv"):
        "334dcbaa643b6aa84906b1e61df5f617e64e28b691d327b851b7f2d8d0d144a4",
    ("stats", "entity", "json"):
        "6367e00e2499575cae05876eed963274140de6676660f050fafa9c036b5e8964",
    ("stats", "relation", "tsv"):
        "f99eda78a52c2eb06155403f2477461fc46d39fbdd02b8d07ff9dec1dcd67be8",
    ("stats", "relation", "json"):
        "689cfda2e2451ef799544a3efee7d0c7ebeb0d8870503100a176e4ebb40dcc39",
    ("stats", "length", "tsv"):
        "971f2a414cbb370028faa690cf54e16bac60e27c2acf73787e9dc51b62b0203a",
    ("stats", "length", "json"):
        "d03f9ea325a6f57d94a9d9824e63d69929a9e42229e65338311d1219faabed93",
    ("iaa", "entity", "--details"):
        "09ff2fb82fb602a82e1dba9bd23daad5e433a3431ecba81924cf54c3f8cce12d",
    ("iaa", "relation", "--beta=2"):
        "dec0a36051523dd042e66c552dc19d3c657ed84a3b9e81e9d55ccc64857694ea",
    ("validate", "a", ""):
        "243db68863cc06585d32e0835169b2af14e0debf4714c38f9941f7b50df8694d",
    ("validate", "seeded", ""):
        "f4d3b74632ad896092bab19572126702ec1ebceaacd15e7e114216fc2a140278",
}


def test_rendered_reports_are_pinned(tmp_path, capsys):
    a, b = _pinned_pair(tmp_path)
    seeded = _seeded_copy(a, tmp_path / "seeded")
    for key, digest in _PINNED_OUTPUT.items():
        cmd, arg, opt = key
        expected_exit = 0
        if cmd == "stats":
            argv = ["stats", "--report", arg, "--format", opt, str(a)]
        elif cmd == "validate":
            argv = ["validate", str(seeded if arg == "seeded" else a)]
            expected_exit = 1 if arg == "seeded" else 0
        else:
            argv = ["iaa", "--layer", arg, opt, str(a), str(b)]
        assert main(argv) == expected_exit
        out, err = capsys.readouterr()
        got = hashlib.sha256(f"{out}\0{err}".encode("utf-8")).hexdigest()
        assert got == digest, f"{key} changed:\n{out}{err}"


def test_only_validate_reads_the_text(tmp_path, capsys):
    # No score or table uses the text, so a .txt file that is not UTF-8
    # changes nothing but validate.
    a, b = _pinned_pair(tmp_path)
    runs = [
        [cmd, "--layer", layer, str(a), str(b)]
        for cmd in ("iaa", "score") for layer in ("seg", "tree", "entity")
    ] + [["stats", "--report", report, str(a)] for report in ("pos", "syn", "entity", "length")]

    def outcomes():
        return [(main(argv), capsys.readouterr()) for argv in runs]

    intact = outcomes()
    for txt in [*a.rglob("*.txt"), *b.rglob("*.txt")]:
        txt.write_bytes(b"\xe5\x8f\n\xff\xfe")
    assert outcomes() == intact
    assert main(["validate", str(a)]) == 2
    out, err = capsys.readouterr()
    first = a / "discharge_summary" / "doc0.txt"
    assert out == ""
    assert err == f"error: {first}:line 1: invalid UTF-8 at byte offset 0\n"


def test_config_rejects_unknown_policy_and_mode(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=16, n_docs=1)
    cfg = tmp_path / "cfg.json"
    for key, value, allowed in (
        ("policy", "nope", "span, span_type, span_type_assertion"),
        ("policy", ["span"], "span, span_type, span_type_assertion"),
        ("mode", "nope", "group, one2one"),
        ("mode", 1, "group, one2one"),
    ):
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        for cmd in ("iaa", "score"):
            argv = ["--config", str(cfg), cmd, "--layer", "relation", str(root), str(root)]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: config key {key!r} must be one of {allowed}, got {value!r}\n"
            )


@pytest.mark.parametrize("key", ["labeled", "include_root", "ignore_punct"])
@pytest.mark.parametrize("value", ["no", 0, 1, None, "false"])
def test_config_switches_must_be_json_booleans(tmp_path, capsys, key, value):
    root = make_corpus(tmp_path, "a", seed=16, n_docs=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    for cmd in ("iaa", "score"):
        argv = ["--config", str(cfg), cmd, "--layer", "tree", str(root), str(root)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config key {key!r} must be true or false, got {value!r}\n"
    cfg.write_text(json.dumps({key: False}), encoding="utf-8")
    assert main(["--config", str(cfg), "iaa", "--layer", "tree", str(root), str(root)]) == 0


@pytest.mark.parametrize("value", [True, False])
def test_config_beta_must_not_be_a_boolean(tmp_path, capsys, value):
    root = make_corpus(tmp_path, "a", seed=16, n_docs=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": value}), encoding="utf-8")
    argv = ["--config", str(cfg), "iaa", "--layer", "entity", str(root), str(root)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: config key 'beta' must be a finite number greater than 0, got {value!r}\n"
    )


@pytest.mark.parametrize("value", ["2", "1.0", "inf"])
def test_config_beta_must_not_be_a_string(tmp_path, capsys, value):
    root = make_corpus(tmp_path, "a", seed=16, n_docs=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": value}), encoding="utf-8")
    argv = ["--config", str(cfg), "iaa", "--layer", "entity", str(root), str(root)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: config key 'beta' must be a finite number greater than 0, got {value!r}\n"
    )
    cfg.write_text(json.dumps({"beta": 2}), encoding="utf-8")
    assert main(argv) == 0


def test_record_iaa_rejects_non_finite_value(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["round", "new", "--state", str(state), "--pool", "d1"]) == 0
    before = state.read_bytes()
    capsys.readouterr()
    for value in ("nan", "inf", "-inf"):
        argv = ["round", "record-iaa", "--state", str(state), "--task", "seg",
                f"--value={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --value must be a finite number, got {float(value)!r}\n"
        assert state.read_bytes() == before


def test_record_iaa_ignores_a_directory_at_the_shared_temp_name(tmp_path, capsys):
    # The state is written to a temporary name that holds the process id, so
    # what sits at <path>.tmp, such as another writer's file, is never used.
    state = tmp_path / "state.json"
    assert main(["round", "new", "--state", str(state), "--pool", "d1"]) == 0
    (tmp_path / "state.json.tmp").mkdir()
    capsys.readouterr()
    argv = ["round", "record-iaa", "--state", str(state), "--task", "seg", "--value", "0.5"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(state.read_text(encoding="utf-8"))["iaa_history"] == {"seg": [0.5]}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "state.json", "state.json.pool", "state.json.tmp"]


# A state file as versions before the pool file wrote it, and what those
# versions print for it (and do to it).
OLD_STATE = {"round_index": 2, "pool": ["d1", "d2", "d3", "d4", "d5", "病历6"],
             "assignments": {"d0": ["AG1"]}, "iaa_history": {"seg": [0.5]}}
OLD_STATE_PRINTS = (
    (["status"], 1, "task\trounds\tthreshold\tconverged\nseg\t1\t0.900\tfalse\n"),
    (["record-iaa", "--task", "seg", "--value", "0.75"], 0,
     '{"task": "seg", "history": [0.5, 0.75]}\n'),
    (["sample", "--n", "2", "--seed", "7"], 0, json.dumps(
        {"assignments": {"d2": ["AG1", "AG2"], "病历6": ["AG1"]}, "round_index": 3,
         "sampled": ["d2", "病历6"]}, ensure_ascii=False, indent=2) + "\n"),
    (["sample", "--n", "2", "--seed", "8"], 0, json.dumps(
        {"assignments": {"d1": ["AG1"], "d3": ["AG1", "AG2"]}, "round_index": 4,
         "sampled": ["d1", "d3"]}, ensure_ascii=False, indent=2) + "\n"),
)


def _round(state, argv, capsys):
    code = main(["round", *argv, "--state", str(state)])
    return code, *capsys.readouterr()


def test_round_reads_a_state_file_from_before_the_pool_file(tmp_path, capsys):
    state = tmp_path / "state.json"
    pool_file = tmp_path / "state.json.pool"
    old = json.dumps(OLD_STATE, ensure_ascii=False, indent=2) + "\n"
    for argv, code, out in OLD_STATE_PRINTS[:3]:
        state.write_text(old, encoding="utf-8")
        pool_file.unlink(missing_ok=True)
        assert _round(state, argv, capsys) == (code, out, "")
    # The first save writes the pool file from the state's pool, after the
    # draw for a sample, and then the state file that pins it.
    assert json.loads(pool_file.read_text(encoding="utf-8")) == ["d1", "d3", "d4", "d5"]
    assert _round(state, OLD_STATE_PRINTS[3][0], capsys) == (0, OLD_STATE_PRINTS[3][2], "")
    assert load_state(state).pool == ["d4", "d5"]
    state.write_text(old, encoding="utf-8")
    assert _round(state, OLD_STATE_PRINTS[1][0], capsys)[0] == 0
    assert pool_file.read_text(encoding="utf-8") == '["d1","d2","d3","d4","d5","病历6"]\n'
    assert json.loads(state.read_text(encoding="utf-8"))["pool"]["count"] == 6
    assert load_state(state) == RoundState(
        2, ["d1", "d2", "d3", "d4", "d5", "病历6"], {"d0": ["AG1"]}, {"seg": [0.5, 0.75]})
    assert load_state(state, pool=False).pool is None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "state.json.pool"]


def test_round_commands_leave_the_pool_file_alone(tmp_path, capsys):
    state = tmp_path / "state.json"
    pool_file = tmp_path / "state.json.pool"
    assert _round(state, ["new", "--pool", "d1", "d2", "d3"], capsys)[0] == 0
    before = pool_file.read_bytes(), pool_file.stat().st_ino
    assert before[0] == b'["d1","d2","d3"]\n'
    for argv in (["sample", "--n", "1", "--seed", "1"],
                 ["record-iaa", "--task", "seg", "--value", "0.5"], ["status"]):
        assert _round(state, argv, capsys)[0] in (0, 1)
        assert (pool_file.read_bytes(), pool_file.stat().st_ino) == before


def test_record_iaa_and_status_do_not_read_the_pool_file(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert _round(state, ["new", "--pool", "d1", "d2"], capsys)[0] == 0
    (tmp_path / "state.json.pool").unlink()
    assert _round(state, ["record-iaa", "--task", "seg", "--value", "1"], capsys) == (
        0, '{"task": "seg", "history": [1.0]}\n', "")
    assert _round(state, ["status", "--window", "1"], capsys) == (
        0, "task\trounds\tthreshold\tconverged\nseg\t1\t0.900\ttrue\n", "")
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


NOT_PINNED = ("pool file is not the list of distinct ids its state file pins: it was "
              "edited, or replaced after the state file was written\n")


def _edit_pool_file(state, monkeypatch):
    pool_file = state.parent / "state.json.pool"
    pool_file.write_bytes(pool_file.read_bytes().replace(b'"d1","d2"', b'"d2","d1"'))
    return f"{pool_file}: {NOT_PINNED}"


def _remove_pool_file(state, monkeypatch):
    (state.parent / "state.json.pool").unlink()
    return f"[Errno 2] No such file or directory: '{state}.pool'"


def _half_run_round_new(state, monkeypatch):
    # The pool file is renamed into place, the state file's rename fails.
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst) == str(state):
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(["round", "new", "--state", str(state), "--pool", "x1", "x2"]) == 2
    monkeypatch.undo()
    return f"{state}.pool: {NOT_PINNED}"


def _miscount_pool_file(state, monkeypatch):
    data = json.loads(state.read_text(encoding="utf-8"))
    data["pool"]["count"] += 1
    state.write_text(json.dumps(data), encoding="utf-8")
    return f"{state}.pool: {NOT_PINNED}"


def _repeat_in_pool_file(state, monkeypatch):
    # A pool file that repeats an id, with a pin that matches it.
    pool_bytes = b'["d1","d2","d1"]\n'
    (state.parent / "state.json.pool").write_bytes(pool_bytes)
    data = json.loads(state.read_text(encoding="utf-8"))
    data["pool"] = {"count": 3, "crc32": zlib.crc32(pool_bytes)}
    state.write_text(json.dumps(data), encoding="utf-8")
    return f"{state}.pool: {NOT_PINNED}"


@pytest.mark.parametrize("spoil", [
    _edit_pool_file, _remove_pool_file, _half_run_round_new, _miscount_pool_file,
    _repeat_in_pool_file,
])
def test_round_sample_refuses_a_pool_file_its_state_does_not_pin(
    tmp_path, capsys, monkeypatch, spoil
):
    state = tmp_path / "state.json"
    assert _round(state, ["new", "--pool", "d1", "d2", "d3"], capsys)[0] == 0
    message = spoil(state, monkeypatch)
    capsys.readouterr()
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    code, out, err = _round(state, ["sample", "--n", "1", "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before
    # The commands that do not draw go on with the state as it is.
    assert _round(state, ["record-iaa", "--task", "seg", "--value", "1"], capsys)[0] == 0
    assert _round(state, ["status", "--window", "1"], capsys)[0] == 0


def test_round_rejects_mistyped_state_file(tmp_path, capsys):
    state = tmp_path / "state.json"
    for field, value in (("pool", 5), ("iaa_history", {"seg": ["x"]})):
        state.write_text(json.dumps({
            "round_index": 1, "pool": ["d1"], "assignments": {}, "iaa_history": {},
            field: value,
        }), encoding="utf-8")
        assert main(["round", "status", "--state", str(state)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {state}: {field} must ")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "history", [{"a\tb": [0.95], "": [0.9]}, {"seg": [0.9], "": [0.9]}, {"a\u2028b": [1]}],
)
def test_round_status_refuses_a_bad_task_name(tmp_path, capsys, history):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "round_index": 1, "pool": ["d1"], "assignments": {}, "iaa_history": history,
    }), encoding="utf-8")
    assert main(["round", "status", "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = next(task for task in history if task != "seg")
    assert captured.err == (
        f"error: {state}: iaa_history task {bad!r} must be a non-empty name "
        "without a tab or line break\n"
    )


@pytest.mark.parametrize("history", [[7, 7, 7], [0.95, -0.5, 0.99], [1.01]])
def test_round_status_refuses_history_outside_unit_range(tmp_path, capsys, history):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "round_index": 1, "pool": ["d1"], "assignments": {},
        "iaa_history": {"seg": history},
    }), encoding="utf-8")
    assert main(["round", "status", "--state", str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {state}: iaa_history must map names to lists of finite numbers in [0, 1]\n"
    )


def _break_tok(root, stem: str) -> str:
    """Make the second line of a bundle's token file unparseable; returns the
    error location the parser reports."""
    tok = root / f"{stem}.tok"
    lines = tok.read_text(encoding="utf-8").split("\n")
    lines[1] = "x\ty\tz"
    tok.write_text("\n".join(lines), encoding="utf-8")
    return f"{tok}:line 2: "


def test_agreement_skips_layers_it_does_not_use(tmp_path, capsys):
    a = make_corpus(tmp_path, "a", seed=17)
    b = make_corpus(tmp_path, "b", seed=18)
    clean = {}
    for layer in ("entity", "relation", "chunk", "tree"):
        assert main(["iaa", "--layer", layer, "--details", str(a), str(b)]) in (0, 1)
        clean[layer] = capsys.readouterr()
    where = _break_tok(b, "doc1")
    for layer in ("entity", "relation", "chunk", "tree"):
        code = main(["iaa", "--layer", layer, "--details", str(a), str(b)])
        assert code in (0, 1)
        assert capsys.readouterr() == clean[layer]
    assert main(["stats", "--report", "entity", str(b)]) == 0
    capsys.readouterr()
    for layer in ("seg", "pos"):
        assert main(["iaa", "--layer", layer, str(a), str(b)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {where}offsets must be integers")
    assert main(["stats", "--report", "length", str(b)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")


def test_validate_stops_at_first_malformed_bundle(tmp_path, capsys):
    root = make_corpus(tmp_path, "a", seed=19, n_docs=4)
    # doc0 has a finding, so stdout stays empty only because of the error.
    (root / "doc0.ann").write_text("T1\tdisease 0 1\tx\n", encoding="utf-8")
    (root / "doc0.txt").write_text("x", encoding="utf-8")
    for suffix in (".tok", ".ptb", ".chk"):
        (root / f"doc0{suffix}").unlink()
    assert main(["validate", str(root)]) == 1
    assert "assertion-missing" in capsys.readouterr().out
    where = _break_tok(root, "doc1")
    _break_tok(root, "doc3")
    assert main(["validate", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where}offsets must be integers\n"


def test_validate_reports_tree_token_leaf_mismatch(tmp_path, capsys):
    root = tmp_path / "c"
    root.mkdir()
    (root / "d.txt").write_text("发热", encoding="utf-8")
    (root / "d.tok").write_text("0\t2\t发热\tNN\n", encoding="utf-8")
    (root / "d.ptb").write_text("(IP (NN 发) (NN 热))\n", encoding="utf-8")
    assert main(["validate", str(root)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {root / 'd.ptb'}: sentence 0: tree has 2 leaves but the token "
        "layer has 1 tokens\n"
    )
