"""The benchmark's traced child still runs against the library: it patches
names in clincorp's modules, so removing or renaming one breaks it."""
import json
import random
import subprocess
import sys
from pathlib import Path

from helpers import random_document, write_bundle

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def _traced_span_names(tmp_path, *argv: str) -> set[str]:
    rng = random.Random(21)
    corpus = tmp_path / "corpus"
    for i in range(2):
        write_bundle(corpus, random_document(rng, f"doc{i}"))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result), "trace", "0",
         *(str(corpus) if arg == "CORPUS" else arg for arg in argv)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {span[0] for span in json.loads(result.read_text(encoding="utf-8"))["spans"]}


def test_traced_child_records_spans(tmp_path):
    names = _traced_span_names(tmp_path, "stats", "--report", "length", "CORPUS")
    assert {"annio.load_document", "stats"} <= names
    assert "annio.load_corpus" not in names


def test_entity_agreement_parses_only_the_entity_layer(tmp_path):
    names = _traced_span_names(tmp_path, "iaa", "--layer", "entity", "CORPUS", "CORPUS")
    assert {"agreement.corpus_agreement", "annio.load_document", "annio.parse_ann"} <= names
    assert not names & {"annio.parse_tok", "annio.parse_ptb", "annio.parse_chk"}


def test_tree_agreement_records_the_scoring_spans(tmp_path):
    # corpus_agreement reaches score_corpus through agreement's module
    # globals, where the tracer patches it.
    names = _traced_span_names(tmp_path, "iaa", "--layer", "tree", "CORPUS", "CORPUS")
    assert {"agreement.corpus_agreement", "parseval.score_corpus", "annio.parse_ptb"} <= names


def test_round_loop_commands_record_their_spans(tmp_path):
    corpus = tmp_path / "corpus"
    state = str(tmp_path / "state.json")
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("发热\t1\t1\t0\t0\t-\t-\n", encoding="utf-8")
    names = _traced_span_names(tmp_path, "round", "new", "--state", state, "--pool-from", "CORPUS")
    assert "workflow.save_state" in names
    names = _traced_span_names(tmp_path, "round", "sample", "--state", state, "--n", "1", "--seed", "3")
    assert {"workflow.load_state", "workflow.sample_round", "workflow.save_state"} <= names
    names = _traced_span_names(tmp_path, "kfold", "--k", "2", "--seed", "1", "CORPUS")
    assert "workflow.kfold" in names
    names = _traced_span_names(tmp_path, "seg-advise", "--lexicon", str(lexicon), "发热")
    assert "segadvice.load_lexicon" in names
    names = _traced_span_names(tmp_path, "expand", str(corpus / "doc0.ann"))
    assert {"groups.expand_all", "annio.parse_ann"} <= names
