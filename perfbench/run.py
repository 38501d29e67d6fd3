"""fiblie benchmark: cold-process runs of one workload, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload nil --seed 1 --seconds 24 --trace 0

Workloads (perfbench/workloads.py): nil, homology, lattice, verify.

Every repetition starts a fresh interpreter (perfbench/worker.py):
homology's lru_caches and grading's level cache live as long as the
process, so a second call in one process would time cache hits.
Repetitions run one after another on one core (a closed loop with one
client, no threads) while the next one is expected to end within half a
repetition of --seconds.  Before
them, a warm-up start writes the bytecode caches and SETUP_PROBES starts
that only import fiblie add samples to setup_s.  Every answer is compared
with perfbench/references.json; a mismatch or a FibLieError fails that
repetition and makes the exit code 1.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of
solve_s and peak_rss_mib over the repetitions and of setup_s over every
start.  solve_s is in reference seconds: wall seconds times
REFERENCE_PROBE_S over the mean duration of worker's speed probe during
the same solve, so that the swings in speed of a shared machine cancel.
The wall-clock median is printed too.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics in wall seconds: self time and counts per wrapped
function, self time per fiblie module, and the tracing overhead (traced
minus untraced solve time).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of workloads.WORKLOADS; that module imports fiblie, so it is not imported here
WORKLOADS = ("nil", "homology", "lattice", "verify")
SETUP_PROBES = 5
BUDGET_S = 170.0  # every child is stopped before the run reaches this
# Timings are reported in seconds at the speed where worker's probe loop
# takes this long, about an idle core of a shared 2-core x86 VM (Python 3.11).
REFERENCE_PROBE_S = 0.0005


class Child:
    """Runs worker.py in a fresh interpreter against ROOT/src."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, workload: str, seed: int, trace_file: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
        if trace_file is not None:
            cmd.append(str(trace_file))
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(self.deadline - start, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}")
            out = json.loads(proc.stdout.splitlines()[-1])
        except (ValueError, IndexError) as exc:
            return {"error": f"{exc}: {proc.stderr.strip()[-800:]}"}
        if not Path(out["fiblie"]).resolve().is_relative_to(ROOT / "src"):
            return {"error": f"imported fiblie from {out['fiblie']}, not {ROOT / 'src'}"}
        out["setup_s"] = out["setup_end"] - start
        if out.get("probe_s"):
            speed = REFERENCE_PROBE_S / statistics.fmean(out["probe_s"])
            out["solve_s"] = out["solve_wall_s"] * speed
        return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 0


def check(workload: str, answer: dict, references: dict) -> list[str]:
    """Mismatches between an answer and the stored reference; empty if equal."""
    expected = references[workload]
    problems = []
    for key in sorted(set(expected) | set(answer)):
        got, want = answer.get(key), expected.get(key)
        if got != want:
            problems.append(
                f"{workload}.{key}: got {str(got)[:200]}, expected {str(want)[:200]}"
            )
    return problems


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    selfs = self_times(trace)
    counters = trace["counters"]
    out: dict[str, float] = dict(counters)
    for name, seconds in selfs.items():
        out[f"{name}.self_s"] = seconds
        layer = f"layer.{name.split('.')[0]}.self_s"
        out[layer] = out.get(layer, 0.0) + seconds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for op in ("square", "bracket"):
        out[f"core.{op}.yield"] = ratio(
            counters[f"core.{op}.out_monomials"], counters[f"core.{op}.pairs"]
        )
    out["gf2.Span.add.yield"] = ratio(
        counters["gf2.Span.add.enlarged"], counters["gf2.Span.add.calls"]
    )
    caches = trace["caches"]
    chain = caches["chain_basis"]
    out["homology.chain_basis.cache_hit_ratio"] = ratio(
        chain["hits"], chain["hits"] + chain["misses"]
    )
    out["homology.cache_entries"] = sum(c["currsize"] for c in caches.values())
    out["trace.spans"] = len(trace["parent"])
    out["trace.unattributed_share"] = ratio(out["layer.perfbench.self_s"], sum(selfs.values()))
    return out


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "fiblie" / "__init__.py").is_file():
        print(f"error: no fiblie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "references.json").read_text())["workloads"]
    child = Child(began + BUDGET_S)
    warm = child.run("setup", args.seed)
    if "error" in warm:
        print(f"error: fiblie does not import: {warm['error']}", file=sys.stderr)
        return 2
    setups = [child.run("setup", args.seed) for _ in range(SETUP_PROBES)]
    setups = [start for start in setups if "setup_s" in start]
    print(
        f"env: nproc={cpu_count()} python={warm['python']} numpy={warm['numpy']} "
        f"commit={git_commit()} workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )

    trace_dir = HERE / "out"
    modes = (False, True) if args.trace else (False,)
    reps: list[dict] = []
    failures: list[str] = []
    measuring = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        for traced in modes:
            trace_file = None
            if traced:
                trace_dir.mkdir(exist_ok=True)
                trace_file = trace_dir / f"trace-{args.workload}.json"
            rep = child.run(args.workload, args.seed, trace_file)
            rep["traced"] = traced
            if "setup_s" in rep:
                setups.append(rep)
            if "error" in rep:
                problems = [rep["error"]]
            else:
                problems = check(args.workload, rep["answer"], references)
            if problems:
                failures.append("; ".join(problems))
            else:
                if traced:
                    rep["layers"] = layer_metrics(json.loads(trace_file.read_text()))
                reps.append(rep)
        now = time.monotonic()
        longest = max(longest, now - round_start)
        # start another round while it is expected to end by --seconds, give
        # or take half a round, so that runs measure --seconds on average
        if now - measuring + longest / 2 > args.seconds or now + longest > began + BUDGET_S:
            break

    attempted = len(reps) + len(failures)
    for problem in failures:
        print(f"FAILED: {problem}")
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not plain or (args.trace and not traced):
        result = {"correct": False, "attempted": attempted, "failed": len(failures)}
        print(json.dumps({**result, "metrics": {}}))
        return 1

    values = {
        "solve_s": median_of(plain, "solve_s"),
        "setup_s": median_of(setups, "setup_s"),
        "peak_rss_mib": median_of(plain, "peak_rss_mib"),
    }
    print(
        f"{args.workload}: {len(plain)} untraced + {len(traced)} traced cold runs, "
        f"{len(setups)} starts; error_rate {len(failures) / attempted:.4g} ratio "
        f"({len(failures)} failed / {attempted} attempted)"
    )
    print(f"solve wall clock: {median_of(plain, 'solve_wall_s'):.4f} s (median)")
    print("solve_s per run: " + " ".join(f"{r['solve_s']:.4f}" for r in plain))
    print("solve wall s per run: " + " ".join(f"{r['solve_wall_s']:.4f}" for r in plain))
    if args.trace:
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            values[name] = statistics.median(layer[name] for layer in layers)
        for suite in plain[0]["stats"]["suite_seconds"]:
            values[f"verify.{suite}.seconds"] = statistics.median(
                r["stats"]["suite_seconds"][suite] for r in plain
            )
        values["trace.solve_s"] = median_of(traced, "solve_wall_s")
        values["trace.untraced_solve_s"] = median_of(plain, "solve_wall_s")
        values["trace.overhead_s"] = values["trace.solve_s"] - values["trace.untraced_solve_s"]
        print(
            f"tracing overhead: {values['trace.overhead_s']:.4f} s wall "
            f"(traced {values['trace.solve_s']:.4f} s - untraced "
            f"{values['trace.untraced_solve_s']:.4f} s); self times sum to the traced "
            f"root span, {values['trace.unattributed_share']:.2%} of it outside "
            f"wrapped fiblie functions"
        )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<48} {values[m['name']]:>16.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
