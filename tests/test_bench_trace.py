"""The benchmark's traced child still runs against the library: it patches
names in clincorp's modules, so removing or renaming one breaks it."""
import json
import random
import subprocess
import sys
from pathlib import Path

from helpers import random_document, write_bundle

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def test_traced_child_records_spans(tmp_path):
    rng = random.Random(21)
    corpus = tmp_path / "corpus"
    for i in range(2):
        write_bundle(corpus, random_document(rng, f"doc{i}"))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result), "trace", "0",
         "stats", "--report", "length", str(corpus)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(result.read_text(encoding="utf-8"))["spans"]}
    assert {"annio.load_corpus", "stats"} <= names
