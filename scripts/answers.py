#!/usr/bin/env python3
"""Pinned answers: digests of the CLI's output on a fixed list of small commands.

Each command runs in process through ``fiblie.cli.main``; its answer is the
sha256 of stdout, the sha256 of stderr and the exit code.  The records of
``verify --format json`` drop their ``seconds`` first, the one field that
changes from run to run.  The answers live in ``tests/answers.json``, which
``tests/test_answers.py`` checks.

    PYTHONPATH=src python3 scripts/answers.py            # compare; exit 1 on a difference
    PYTHONPATH=src python3 scripts/answers.py --update   # rewrite tests/answers.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fiblie import cli

ANSWERS = Path(__file__).resolve().parents[1] / "tests" / "answers.json"

SAMPLE = "[v1,v2,v3^3]+t0*t2*v7"

COMMANDS: tuple[tuple[str, ...], ...] = (
    ("hilbert",),
    ("hilbert", "--format", "json"),
    ("hilbert", "--kind", "restricted"),
    ("hilbert", "--method", "recursive", "--upto", "12"),
    ("euler", "--degree", "80"),
    ("envelope", "--degree", "40"),
    ("envelope", "--degree", "120", "--growth"),
    ("homology", "--max-total-degree", "20"),
    ("homology", "--max-total-degree", "20", "--format", "json"),
    ("homology", "--n", "2", "--max-total-degree", "24"),
    ("nil-scan", "--max", "9"),
    ("presentation", "--max-degree", "12"),
    ("basis", "--max-n", "8"),
    ("strip", "--max-n", "8"),
    ("eval", SAMPLE),
    ("eval", "[t0*v4, v5^2]"),
    ("bracket", SAMPLE, "[t0*v4, v5^2]"),
    ("bracket", "v1+v2+v3", "t0*v4"),
    *(
        ("verify", suite, "--format", "json", "--seed", str(seed))
        for seed in (1, 2, 20240)
        for suite in ("laws", "nil", "geometry")
    ),
    ("verify", "--format", "json", "--seed", "1"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def answer(argv: tuple[str, ...]) -> dict:
    """stdout and stderr digests and the exit code of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    if argv[0] == "verify":
        records = [{k: v for k, v in r.items() if k != "seconds"} for r in json.loads(stdout)]
        stdout = json.dumps(records, indent=2) + "\n"
    return {"stdout": _sha256(stdout), "stderr": _sha256(err.getvalue()), "exit": code}


def answers() -> list[dict]:
    return [{"argv": list(argv), **answer(argv)} for argv in COMMANDS]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help=f"rewrite {ANSWERS.name}")
    args = parser.parse_args()
    found = answers()
    if args.update:
        ANSWERS.write_text("[\n" + ",\n".join(map(json.dumps, found)) + "\n]\n")
        return 0
    pinned = json.loads(ANSWERS.read_text())
    differ = [a["argv"] for a, p in zip(found, pinned) if a != p]
    if len(found) != len(pinned):
        differ.append(f"{len(found)} commands against {len(pinned)} pinned")
    for argv in differ:
        print(f"differs: {argv}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
