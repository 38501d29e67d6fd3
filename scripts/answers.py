#!/usr/bin/env python3
"""Pinned answers: digests of the CLI's output on a fixed list of small commands.

Each command runs in process through ``fiblie.cli.main``; its answer is the
sha256 of stdout, the sha256 of stderr and the exit code.  The list ends
with every request the CLI refuses with exit code 2 in ``tests/test_cli.py``,
so the wording of each refusal is pinned too.  The records of
``verify --format json`` drop their ``seconds`` first, the one field that
changes from run to run.  The answers live in ``tests/answers.json``, which
``tests/test_answers.py`` checks.

``--check`` runs the large commands instead, about 40 s in all, against
``tests/answers_large.json``: the nil scan to m = 14, the nil index of
v1+...+v15, the homology table to total degree 36, the Euler product to
degree 800, the enveloping growth report to degree 2000 and the
presentation to degree 24.

    PYTHONPATH=src python3 scripts/answers.py            # compare; exit 1 on a difference
    PYTHONPATH=src python3 scripts/answers.py --update   # rewrite tests/answers.json
    PYTHONPATH=src python3 scripts/answers.py --check    # compare the large commands
    PYTHONPATH=src python3 scripts/answers.py --check --update
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
LARGE_ANSWERS = ANSWERS.with_name("answers_large.json")

SAMPLE = "[v1,v2,v3^3]+t0*t2*v7"

# requests the CLI refuses with exit code 2 and one "error: " line on stderr
# (``tests/test_cli.py`` also runs each in its own process)
REFUSALS: tuple[tuple[str, ...], ...] = (
    ("homology", "--max-total-degree", "3", "--n", "-1"),
    ("nil", "--element", "0"),
    ("nil", "--element", "t5*v2"),
    ("nil-scan", "--min", "0"),
    ("basis", "--max-n", "0"),
    ("presentation", "--max-degree", "0"),
    ("hilbert", "--upto", "-1"),
    ("envelope", "--growth", "--degree", "5"),
    ("euler", "--degree", "-1"),
    ("hilbert", "--degree", "-1"),
    ("envelope", "--degree", "-1"),
    ("hilbert", "--upto", "-3"),
    ("homology", "--max-total-degree", "-1"),
    ("presentation", "--max-degree", "40"),
    ("euler", "--degree", "100000"),
    ("euler", "--degree", "1000000000"),
    ("hilbert", "--degree", "1000000000"),
    ("envelope", "--growth", "--degree", "1000000000"),
    ("nil", "--element", "v1", "--monomial-limit", "0"),
    ("homology", "--max-total-degree", "2000000"),
    ("envelope", "--degree", "100000"),
    ("hilbert", "--degree", "800000"),
    ("presentation", "--max-degree", "25"),
    ("presentation", "--max-degree", "1000000000"),
    ("eval", "v" + "1" * 5000),
    ("eval", "v1^" + "1" * 5000),
    ("eval", "[v1," * 400 + "v2" + "]" * 400),
    ("eval", "t0*t0*v0"),
    ("figures", "--which", "2", "--max-n", "40"),
    ("figures", "--which", "3", "--max-n", "40"),
    ("basis", "--max-n", "40", "--format", "json"),
    ("strip", "--max-n", "40", "--format", "json"),
    ("figures", "--which", "1", "--max-n", "40"),
    ("figures", "--which", "1", "--max-n", "29"),
    ("figures", "--which", "1", "--max-n", "50000"),
    ("hilbert", "--degree", "317812"),
    ("hilbert", "--upto", "100000", "--degree", "1" + "0" * 1000),
    ("hilbert", "--kind", "restricted", "--degree", "400000"),
    ("euler", "--degree", "9" * 2500),
    ("envelope", "--degree", "9" * 2500),
    ("homology", "--max-total-degree", "9" * 2500),
    ("nil-scan", "--min", "120", "--max", "130"),
)

COMMANDS: tuple[tuple[str, ...], ...] = (
    ("hilbert",),
    ("hilbert", "--format", "json"),
    ("hilbert", "--kind", "restricted"),
    ("hilbert", "--upto", "12"),
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
    *REFUSALS,
)

LARGE: tuple[tuple[str, ...], ...] = (
    ("nil-scan", "--min", "1", "--max", "14"),
    ("nil", "--element", "+".join(f"v{i}" for i in range(1, 16))),
    ("homology", "--max-total-degree", "36"),
    ("euler", "--degree", "800"),
    ("envelope", "--growth", "--degree", "2000"),
    ("presentation", "--max-degree", "24"),
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


def answers(commands: tuple[tuple[str, ...], ...] = COMMANDS) -> list[dict]:
    return [{"argv": list(argv), **answer(argv)} for argv in commands]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true", help="rewrite the pinned file")
    parser.add_argument(
        "--check", action="store_true", help=f"run the large commands, pinned in {LARGE_ANSWERS.name}"
    )
    args = parser.parse_args()
    commands, path = (LARGE, LARGE_ANSWERS) if args.check else (COMMANDS, ANSWERS)
    found = answers(commands)
    if args.update:
        path.write_text("[\n" + ",\n".join(map(json.dumps, found)) + "\n]\n")
        return 0
    pinned = json.loads(path.read_text())
    differ = [a["argv"] for a, p in zip(found, pinned) if a != p]
    if len(found) != len(pinned):
        differ.append(f"{len(found)} commands against {len(pinned)} pinned")
    for argv in differ:
        print(f"differs: {argv}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
