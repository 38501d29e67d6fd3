#!/usr/bin/env python3
"""Reach of one workload: the largest instance a cold run finishes in a budget.

Runs one fresh ``python -m fiblie.cli`` child per size, sizes increasing,
against the package of the checkout this script lives in:

    nil           m in  nil --element "v1+...+vm"
    homology      F in  homology --max-total-degree F
    presentation  d in  presentation --max-degree d
    euler         d in  euler --degree d

For each size it records the wall time, the child's peak RSS (from
``os.wait4``) and the exit code.  It stops at the first size that does not
finish within the budget (the child is killed), that exits 2, or that fails
otherwise, and names the reason: time, the monomial cap, memory, a refusal
or an error.  A table goes to stdout; ``--output`` also writes the runs as
JSON with the CPU count and the Python version.  ``--monomial-limit N``
passes ``--monomial-limit N`` to every ``nil`` child and is recorded in the
JSON; the other ladders' commands take no such flag, so they refuse it.

    python3 scripts/reach.py --workload homology --budget 60 --output BENCH_reach.json
    python3 scripts/reach.py --workload nil --monomial-limit 4000000
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the default sizes of each workload, smallest first
LADDERS = {
    "nil": range(2, 41),
    "homology": range(10, 101, 2),
    "presentation": range(4, 61),
    "euler": range(100, 5001, 100),
}


def child_argv(workload: str, size: int, monomial_limit: int | None = None) -> list[str]:
    if workload == "nil":
        argv = ["nil", "--element", "+".join(f"v{i}" for i in range(1, size + 1))]
        return argv if monomial_limit is None else [*argv, "--monomial-limit", str(monomial_limit)]
    flag = {"homology": "--max-total-degree", "presentation": "--max-degree", "euler": "--degree"}
    return [workload, flag[workload], str(size)]


def run_child(argv: list[str], budget: float) -> dict:
    """One cold CLI run, killed once it passes the budget."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    killed = threading.Event()
    with tempfile.TemporaryFile() as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fiblie.cli", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=env,
        )

        def expire() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(budget, expire)
        timer.start()
        # wait4 reports this child's own peak RSS, which RUSAGE_CHILDREN
        # (the largest child so far) does not
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.monotonic() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        lines = err.read().decode(errors="replace").strip().splitlines()
    run = {
        "argv": argv,
        "seconds": round(seconds, 3),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
        "exit": proc.returncode,
    }
    last_line = lines[-1] if lines else ""
    if proc.returncode:
        run["stderr"] = last_line
    run["reason"] = stop_reason(proc.returncode, last_line, killed.is_set())
    return run


def stop_reason(code: int, last_line: str, killed: bool) -> str | None:
    """Why a run ends the ladder, or None when it finished in time."""
    if killed:
        return "time"
    if code == 0:
        return None
    if "MemoryError" in last_line or code == -signal.SIGKILL:
        return "memory"
    if code == 2:
        return "monomial cap" if "monomial limit" in last_line else "refused"
    return "error"


def reach(workload: str, budget: float, sizes: list[int], monomial_limit: int | None = None) -> dict:
    runs = []
    for size in sizes:
        run = {"size": size, **run_child(child_argv(workload, size, monomial_limit), budget)}
        runs.append(run)
        print(
            f"{size:>6}  {run['seconds']:8.2f} s  {run['peak_rss_mib']:7.1f} MiB  exit {run['exit']}",
            flush=True,
        )
        if run["reason"] is not None:
            break
    finished = [r["size"] for r in runs if r["reason"] is None]
    last = runs[-1] if runs else None
    return {
        "workload": workload,
        "budget_s": budget,
        "monomial_limit": monomial_limit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "reach": max(finished, default=None),
        "stopped_at": last["size"] if last and last["reason"] else None,
        "reason": last["reason"] if last and last["reason"] else "sizes exhausted",
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(LADDERS), required=True)
    parser.add_argument("--budget", type=float, default=60.0, help="seconds per run")
    parser.add_argument("--sizes", help="comma-separated sizes, in place of the default ladder")
    parser.add_argument("--output", help="write the runs as JSON to this file")
    parser.add_argument("--monomial-limit", type=int, help="passed to each child of the nil ladder")
    args = parser.parse_args(argv)
    if args.budget <= 0:
        parser.error("--budget must be > 0")
    if args.monomial_limit is not None and args.workload != "nil":
        parser.error(f"--monomial-limit applies to the nil ladder only, not {args.workload}")
    sizes = list(LADDERS[args.workload])
    if args.sizes:
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError:
            parser.error(f"--sizes takes comma-separated integers, got {args.sizes!r}")
    print(f"  size      wall       peak RSS      ({args.workload}, budget {args.budget:g} s)")
    result = reach(args.workload, args.budget, sizes, args.monomial_limit)
    print(f"reach {result['reach']}; stopped: {result['reason']}")
    if args.output:
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
