"""One cold-process repetition of a benchmark workload.

Usage: python3 perfbench/worker.py WORKLOAD SEED [TRACE_FILE]

Imports fiblie (numpy included), notes the monotonic time at which the
imports finished, runs the workload once and prints one JSON line with
that time, the solve wall seconds, the durations of the speed probes that
ran during the solve, the process's own peak RSS, the answer and the
stats.  WORKLOAD ``setup`` stops after the imports.  With TRACE_FILE the
workload runs under the span tracer instead of the speed probe, and the
tracer writes its spans there.  fiblie must be importable, e.g. with
PYTHONPATH=src.
"""

from __future__ import annotations

import array
import json
import platform
import resource
import signal
import sys
import time

PROBE_INTERVAL_S = 0.05
PROBE_STEPS = 1500
PROBE_CAPACITY = 8192  # over 400 s of probes


def _probe_loop() -> None:
    # ints only: tuples would count as container allocations and make the
    # garbage collector run at other moments than without the probe
    acc: set[int] = set()
    table: dict[int, int] = {}
    for i in range(PROBE_STEPS):
        key = (i * 2654435761) & 0x1FFF
        if key in acc:
            acc.remove(key)
        else:
            acc.add(key)
        table[i & 255] = table.get(i & 255, 0) + (i & -i).bit_length()


class SpeedProbe:
    """Times a fixed pure-Python loop every PROBE_INTERVAL_S of wall time.

    The loop runs in a SIGALRM handler, so the probes sample the machine's
    speed uniformly over the whole solve; their mean duration scales
    solve_s.  The loop does what fiblie's engines do (toggle keys in a set,
    update a dict, bit tricks on ints) without touching fiblie.
    """

    def __init__(self) -> None:
        # Preallocated C doubles: a Python float kept per probe would pin a
        # memory arena each and raise the workload's peak RSS by tens of MiB.
        self.starts = array.array("d", bytes(8 * PROBE_CAPACITY))
        self.seconds = array.array("d", bytes(8 * PROBE_CAPACITY))
        self.count = 0

    def _handler(self, signum, frame) -> None:
        if self.count == PROBE_CAPACITY:
            return
        start = time.perf_counter()
        _probe_loop()
        self.seconds[self.count] = time.perf_counter() - start
        self.starts[self.count] = start
        self.count += 1

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, 0.001, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def within(self, lo: float, hi: float) -> list[float]:
        """Durations of the probes that started in [lo, hi); a probe that
        starts before ``hi`` is read delays reading it, so it ends inside."""
        return [
            self.seconds[i] for i in range(self.count) if lo <= self.starts[i] < hi
        ]


def main(argv: list[str]) -> int:
    import fiblie
    from fiblie import (  # noqa: F401  every module a workload uses counts as set-up
        basis,
        gf2,
        grading,
        homology,
        nil,
        presentation,
        series,
        verify,
    )

    setup_end = time.monotonic()

    import numpy

    import spans
    import workloads

    workload, seed = argv[1], int(argv[2])
    trace_file = argv[3] if len(argv) > 3 else None
    out = {
        "setup_end": setup_end,
        "fiblie": fiblie.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if workload != "setup":
        solve = workloads.WORKLOADS[workload]
        tracer = spans.Tracer() if trace_file else None
        probe = SpeedProbe()
        try:
            if tracer is None:
                with probe:
                    start = time.perf_counter()
                    answer, stats = solve(seed)
                    end = time.perf_counter()
            else:
                start = time.perf_counter()
                with tracer.installed():
                    answer, stats = tracer.wrap("perfbench.workload", solve)(seed)
                end = time.perf_counter()
        except fiblie.FibLieError as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
        else:
            out["probe_s"] = probe.within(start, end)
            out["solve_wall_s"] = end - start - sum(out["probe_s"])
            out["answer"] = answer
            out["stats"] = {"suite_seconds": dict.fromkeys(verify.CRITERIA, 0.0), **stats}
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            caches = {
                name: getattr(homology, name).cache_info()._asdict()
                for name in spans.HOMOLOGY_CACHES
            }
            tracer.write(trace_file, {"caches": caches})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
