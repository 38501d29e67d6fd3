"""The benchmark's four workloads.

Each workload calls fiblie's public functions on fixed exact inputs and
returns ``(answer, stats)``: ``answer`` is plain JSON data compared
verbatim with ``references.json``; ``stats`` carries timings the program
reports itself (verify's per-suite seconds).  Sizes are chosen so that one
cold call takes 3 to 9 s on a 2-core machine, which leaves two to five
calls per 24-second run, and so that each workload is still dominated by
the same layer as at larger sizes.
"""

from __future__ import annotations

from fiblie import homology, nil, presentation, series, verify
from fiblie.grading import Multidegree

# nil: minimal index of v_n + ... + v_m for n = 1, 2 and m <= 8 (core.square)
NIL_N_RANGE, NIL_M_MAX = (1, 2), 8
# homology: dim H_{n,(a,b)} for a + b <= 20 (chain_basis, gf2.rank), and the
# Euler cross-check of every slice with a + b <= 11
HOMOLOGY_FRONTIER, EULER_FRONTIER = 20, 11
# lattice: E(L) * H(U(L)) = 1 through degree 120 (series), and the
# presentation quotient through degree 14 (gf2.Span, Lie polynomials)
EULER_INVERSE_BOUND, PRESENTATION_DEGREE = 120, 14


def solve_nil(seed: int) -> tuple[dict, dict]:
    rows = nil.conjecture_scan(NIL_N_RANGE, NIL_M_MAX)
    return {"rows": [[r.n, r.m, r.index, r.bound, r.peak_monomials] for r in rows]}, {}


def solve_homology(seed: int) -> tuple[dict, dict]:
    table = homology.homology_table(HOMOLOGY_FRONTIER)
    euler = series.euler_product(EULER_FRONTIER)
    mismatches = [
        [a, d - a]
        for d in range(EULER_FRONTIER + 1)
        for a in range(d + 1)
        if not homology.euler_crosscheck(Multidegree(a, d - a), euler)
    ]
    entries = sorted([n, a, b, dim] for (n, a, b), dim in table.entries.items())
    return {"entries": entries, "euler_mismatches": mismatches}, {}


def solve_lattice(seed: int) -> tuple[dict, dict]:
    inverse_ok = series.euler_inverse_check(EULER_INVERSE_BOUND)
    report = presentation.presentation_report(PRESENTATION_DEGREE)
    degrees = range(1, PRESENTATION_DEGREE + 1)
    return {
        "euler_inverse_ok": inverse_ok,
        "free": [report.free[d] for d in degrees],
        "quotient": [report.quotient[d] for d in degrees],
        "target": [report.target[d] for d in degrees],
    }, {}


def solve_verify(seed: int) -> tuple[dict, dict]:
    verify.set_seed(seed)
    results = verify.run_suites()
    suite_seconds = {key: r.seconds for key, r in zip(verify.CRITERIA, results)}
    return {"suites": [[r.name, r.ok] for r in results]}, {"suite_seconds": suite_seconds}


WORKLOADS = {
    "nil": solve_nil,
    "homology": solve_homology,
    "lattice": solve_lattice,
    "verify": solve_verify,
}

