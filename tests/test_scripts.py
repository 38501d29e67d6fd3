"""Smoke tests for the exploration scripts: each runs on a small size and
prints its table header, and a refused size exits 2 like the CLI."""

from __future__ import annotations

import json
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
        # walks to W_132, whose tail index 128 is past the index ceiling
        ("growth_report.py", "--max-n", "131"),
        # free_dims refuses tail rows past the monomial limit (degree 25 on)
        ("presentation_scan.py", "--max-degree", "30"),
        ("presentation_scan.py", "--max-degree", "0"),
        ("presentation_scan.py", "--shifts", "-1"),
    ],
    ids=["growth_report-max-n-131", "presentation_scan-max-degree-30",
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


def test_reach_stops_at_the_budget_and_at_the_cap(tmp_path):
    # homology: two tiny frontiers finish, and F = 60 is killed at the budget
    out = tmp_path / "reach.json"
    proc = run_script(
        ("reach.py", "--workload", "homology", "--budget", "2", "--sizes", "2,4,60",
         "--output", str(out))
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert [r["size"] for r in result["runs"]] == [2, 4, 60]
    assert [r["exit"] == 0 for r in result["runs"]] == [True, True, False]
    assert (result["reach"], result["stopped_at"], result["reason"]) == (4, 60, "time")
    assert 2 <= result["runs"][-1]["seconds"] < 10
    assert all(r["peak_rss_mib"] > 0 for r in result["runs"])
    assert result["cpu_count"] == os.cpu_count()
    assert proc.stdout.splitlines()[-1] == "reach 4; stopped: time"
    # presentation: degree 30 exits 2 at the monomial limit
    proc = run_script(
        ("reach.py", "--workload", "presentation", "--budget", "2", "--sizes", "3,30",
         "--output", str(out))
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert (result["reach"], result["stopped_at"], result["reason"]) == (3, 30, "monomial cap")
    assert result["runs"][-1]["exit"] == 2


def test_reach_passes_the_monomial_limit_to_the_nil_ladder_only(tmp_path):
    # v1+v2+v3 stays within 20 monomials; v1+...+v5 passes them and exits 2
    out = tmp_path / "reach.json"
    proc = run_script(
        ("reach.py", "--workload", "nil", "--budget", "20", "--sizes", "3,5",
         "--monomial-limit", "20", "--output", str(out))
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["monomial_limit"] == 20
    assert [r["argv"][-2:] for r in result["runs"]] == [["--monomial-limit", "20"]] * 2
    assert (result["reach"], result["stopped_at"], result["reason"]) == (3, 5, "monomial cap")
    # the other ladders' commands take no --monomial-limit
    proc = run_script(("reach.py", "--workload", "homology", "--monomial-limit", "20"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--monomial-limit applies to the nil ladder only" in proc.stderr
