"""Pinned answers: the CLI's output on a fixed list of small commands
matches the digests in ``tests/answers.json``.  After a change meant to move
an answer, rewrite the file with ``scripts/answers.py --update``."""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

from fiblie import verify

SCRIPT = Path(__file__).parents[1] / "scripts" / "answers.py"


def load_answers_script():
    spec = importlib.util.spec_from_file_location("answers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pinned_answers():
    answers = load_answers_script()
    seed = verify._DEFAULT_SEED
    start = time.perf_counter()
    found = answers.answers()
    elapsed = time.perf_counter() - start
    assert verify._DEFAULT_SEED == seed  # --seed holds for its own command only
    pinned = json.loads(answers.ANSWERS.read_text())
    assert [a["argv"] for a in found] == [p["argv"] for p in pinned]
    for got, want in zip(found, pinned):
        assert got == want, got["argv"]
    assert elapsed < 8.0
