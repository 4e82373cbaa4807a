"""Import scope: the package root loads nothing eagerly, each command
loads only the library modules it runs, no command loads `dataclasses`,
`inspect` or `decimal`, and no module imports a name it does not use.  Each check runs in a fresh interpreter, since this test
process has imported everything already."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import clincorp

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules a command that does not score, parse layer files or compute
# statistics must not load.
NOT_FOR_ROUND = {"agreement", "annio", "parseval", "groups", "model", "stats",
                 "refdata", "validate", "segadvice", "tagsets", "fanout"}
# seg-advise reads one lexicon file and needs none of the corpus code.
NOT_FOR_SEG_ADVISE = NOT_FOR_ROUND - {"segadvice"}


# Standard modules whose import costs every command start-up time.
SLOW_STDLIB = {"dataclasses", "inspect", "decimal"}


def _loaded_after(code: str) -> set[str]:
    """The clincorp submodules in sys.modules after `code` runs in a fresh
    interpreter, plus those of SLOW_STDLIB it loaded."""
    script = code + (
        "\nimport sys, json"
        "\nprint(json.dumps(sorted(m.removeprefix('clincorp.') for m in sys.modules"
        f" if m.startswith('clincorp.') or m in {sorted(SLOW_STDLIB)!r})))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("CLINCORP_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded_by_command(*argv: str) -> set[str]:
    return _loaded_after(
        "import contextlib, io\n"
        "from clincorp import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "assert code in (0, 1), code\n"
    )


def test_import_package_loads_no_submodule():
    assert _loaded_after("import clincorp") == set()


def test_round_commands_skip_the_library(tmp_path):
    state = str(tmp_path / "state.json")
    assert _loaded_after("import clincorp.cli") & NOT_FOR_ROUND == set()
    assert _loaded_by_command("round", "new", "--state", state, "--pool", "d1", "d2") \
        & NOT_FOR_ROUND == set()
    for argv in (
        ("round", "record-iaa", "--state", state, "--task", "seg", "--value", "0.5"),
        ("round", "status", "--state", state),
        ("round", "sample", "--state", state, "--n", "1", "--seed", "3"),
    ):
        loaded = _loaded_by_command(*argv)
        assert "workflow" in loaded
        assert loaded & NOT_FOR_ROUND == set(), argv


def test_kfold_skips_scoring_and_statistics(tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.txt").write_text("x", encoding="utf-8")
    loaded = _loaded_by_command("kfold", "--k", "2", "--seed", "1", str(tmp_path))
    assert "corpusdir" in loaded
    assert loaded & NOT_FOR_ROUND == set()
    state = str(tmp_path / "state.json")
    loaded = _loaded_by_command("round", "new", "--state", state, "--pool-from", str(tmp_path))
    assert "corpusdir" in loaded
    assert loaded & NOT_FOR_ROUND == set()


def test_seg_advise_and_expand_load_only_what_they_run(tmp_path):
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("发热\t1\t1\t0\t0\t-\t-\n", encoding="utf-8")
    loaded = _loaded_by_command("seg-advise", "--lexicon", str(lexicon), "发热")
    assert "segadvice" in loaded
    assert loaded & NOT_FOR_SEG_ADVISE == set()
    ann = tmp_path / "a.ann"
    ann.write_text("T1\tsymptom 0 1\t发\n", encoding="utf-8")
    loaded = _loaded_by_command("expand", str(ann))
    assert {"annio", "groups"} <= loaded
    assert loaded & {"parseval", "agreement", "stats", "validate"} == set()


def test_stats_report_skips_the_reference_tables(tmp_path):
    (tmp_path / "a.txt").write_text("发热", encoding="utf-8")
    (tmp_path / "a.tok").write_text("0\t2\t发热\tNN\n", encoding="utf-8")
    loaded = _loaded_by_command("stats", "--report", "pos", str(tmp_path))
    assert "stats" in loaded
    assert "refdata" not in loaded


def test_round_loop_commands_skip_dataclasses_and_inspect(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a", "b"):
        (corpus / f"{name}.txt").write_text("发热", encoding="utf-8")
    ann = corpus / "a.ann"
    ann.write_text(
        "T1\tsymptom 0 1\t发\nT2\tsymptom 1 2\t热\nG1\tsymptom T1 T2\n",
        encoding="utf-8",
    )
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("发热\t1\t1\t0\t0\t-\t-\n", encoding="utf-8")
    state = str(tmp_path / "state.json")
    assert _loaded_after("import clincorp.cli") & SLOW_STDLIB == set()
    for argv in (
        ("round", "new", "--state", state, "--pool-from", str(corpus)),
        ("round", "sample", "--state", state, "--n", "1", "--seed", "3"),
        ("round", "record-iaa", "--state", state, "--task", "seg", "--value", "0.5"),
        ("round", "status", "--state", state),
        ("kfold", "--k", "2", "--seed", "1", str(corpus)),
        ("expand", str(ann)),
        ("seg-advise", "--lexicon", str(lexicon), "发热"),
    ):
        assert _loaded_by_command(*argv) & SLOW_STDLIB == set(), argv


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "clincorp").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", source, re.M), path.name


def _top_level_imports(tree: ast.Module):
    """(bound name, line) of each import at module level, including those
    under a module-level `if` or `try` such as `if TYPE_CHECKING:`."""
    body = list(tree.body)
    while body:
        node = body.pop(0)
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            body.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_import_is_used():
    for path in sorted((SRC / "clincorp").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [f"{path.name}:{line} {name}"
                  for name, line in _top_level_imports(tree) if name not in used]
        assert unused == []


def test_every_public_name_resolves_to_its_defining_module():
    names = clincorp.__all__
    assert len(names) == len(set(names)) == 85
    listed = dir(clincorp)
    for name in names:
        value = getattr(clincorp, name)
        module = importlib.import_module(f"clincorp.{clincorp._MODULE_OF[name]}")
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
        assert name in listed
    from clincorp import MatchPolicy
    from clincorp.agreement import MatchPolicy as policy_from_agreement
    assert MatchPolicy is policy_from_agreement


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        clincorp.no_such_name
    with pytest.raises(ImportError):
        from clincorp import no_such_name  # noqa: F401
    from clincorp import cli
    with pytest.raises(AttributeError):
        cli.no_such_name
