"""Make the sibling helpers module importable regardless of invocation dir,
and keep a CLINCORP_CONFIG set in the environment out of every test."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    """Unset CLINCORP_CONFIG, so that a test, and any process it starts
    with os.environ, reads only the config it names itself."""
    monkeypatch.delenv("CLINCORP_CONFIG", raising=False)
