"""Smoke tests for the exploration scripts: each runs on a small size and
prints its table header, and a refused size exits 2 like the CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiblie

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize(
    ("argv", "header"),
    [
        (
            ("growth_report.py", "--max-n", "8", "--envelope-degree", "30"),
            "n   gamma(lambda^n)/x^c   gamma(y_n)/y^c      (c = log_lambda 2)",
        ),
        (
            ("presentation_scan.py", "--max-degree", "6", "--shifts", "1"),
            "degree  free  quotient  algebra  eval-kernel  ideal",
        ),
    ],
)
def test_script_runs(argv, header):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        # folds W_1..W_29, past the monomial limit
        ("growth_report.py", "--max-n", "28"),
        # free Lie rows of 2^30 bits, past the monomial limit
        ("presentation_scan.py", "--max-degree", "30"),
        ("presentation_scan.py", "--max-degree", "0"),
        ("presentation_scan.py", "--shifts", "-1"),
    ],
    ids=["growth_report-max-n-28", "presentation_scan-max-degree-30",
         "presentation_scan-max-degree-0", "presentation_scan-shifts--1"],
)
def test_script_refusal_exits_2_without_traceback(argv):
    proc = run_script(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def run_script(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(fiblie.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
