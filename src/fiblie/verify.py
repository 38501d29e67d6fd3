"""Named verification suites: one check per acceptance criterion, shared by
the CLI ``verify`` subcommand and the acceptance test module.  A check takes
the seed of the randomized suites and returns ``(ok, detail)``.

``run_suites`` runs the suites in forked worker processes, one per usable
CPU, and times each suite in its worker.  A forked worker starts as a copy
of the caller, with fiblie imported and ``LIMITS`` in force; forking is safe
because the package starts no threads.  One suite, one usable CPU, or a
platform without fork (Windows) runs the suites in the calling process.

Every check is exact unless stated otherwise; the only floating-point
gates are the bounds with an irrational constant (the growth sandwich, the
second witness) and the two growth diagnostics, which report rather than
assert.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import xor
from typing import Callable, Iterable

from . import basis as basis_mod
from . import homology as homology_mod
from . import nil as nil_mod
from . import presentation as pres_mod
from . import series as series_mod
from .core import (
    Element,
    InputError,
    Monomial,
    ZERO,
    bracket,
    bracket_each,
    element,
    format_monomial,
    power_2k,
    square,
    v,
)
from .grading import (
    GoldenInt,
    LAMBDA,
    LAMBDA_FLOAT,
    LOG_LAMBDA_2,
    WeightTable,
    count_weights_at_most,
    fib,
    gr,
    lambda_power,
    level_multidegree_counts,
    level_rectangle_violations,
    level_strip_violations,
    local_nilpotency_bound,
    sign_split,
    weight,
    weight_growth_levels,
)

_DEFAULT_SEED = 20240

# C of the second witness sequence, g(y_n) > (C / 4) y_n^(log_lambda 2)
WITNESS_C = 13 / 2 ** (1 + math.log(LAMBDA_FLOAT**2 + 1, LAMBDA_FLOAT))  # ~ 1.0197


def set_seed(seed: int) -> None:
    """Seed ``run_suites`` gives the randomized suites when it is given none."""
    global _DEFAULT_SEED
    _DEFAULT_SEED = seed


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0
    diagnostic: bool = False


def _monomials_upto(n: int, kind: basis_mod.Kind = "lie") -> list[Monomial]:
    """The basis monomials of levels 1..n in one list."""
    return [m for level in basis_mod.enumerate_W_upto(n, kind) for m in level]


# --- criterion 1: basis counts ------------------------------------------------


def criterion_basis_counts(seed: int) -> tuple[bool, str]:
    # gr's set-bit walk over each monomial against the subset-sum fold
    for n in range(3, 15):
        walked = Counter(gr(m) for m in basis_mod.enumerate_W(n))
        if walked != level_multidegree_counts(n):
            return False, f"multidegrees of W_{n} disagree with the fold"
    # the monomial W~_n adds to W_n is the square v_{n-2}^2 = t_{n-3} v_n
    for n in range(3, 25):
        sq = basis_mod.enumerate_W(n, "restricted").square
        if square(v(n - 2)) != Element({sq}):
            return False, f"v_{n - 2}^2 is not t_{n - 3} v_{n}, the square of W~_{n}"
    return True, "gr = subset-sum fold on W_n to n = 14; v_{n-2}^2 = t_{n-3} v_n to n = 24"


# --- criterion 2: recursive construction --------------------------------------


def criterion_recursive_basis(seed: int) -> tuple[bool, str]:
    for n in range(3, 21):
        built = basis_mod.build_W_recursive(n)
        # 2^w distinct tails below 2^w are all of W_{n+1}'s tails
        w = basis_mod.tail_width(n + 1)
        if len(built) != 1 << w or max(built) >> w:
            return False, f"mismatch constructing W_{n + 1}"
    return True, "[v_{n-1},W_n] + [v_{n-2},W_n] = W_{n+1} for n = 3..20"


# --- criterion 3: relations ---------------------------------------------------


def criterion_relations(seed: int) -> tuple[bool, str]:
    if not pres_mod.relation_shifts_check(10):
        return False, "a relation or shift failed to vanish"
    return True, "three relations, v_1^4, and all shifts through k = 10 vanish"


# --- criterion 4: Lie laws ----------------------------------------------------


def criterion_lie_laws(seed: int) -> tuple[bool, str]:
    # The laws hold on the span of the basis monomials of W~_1..W~_8.  All
    # but the square are multilinear, so the table of monomial brackets
    # decides them; the square is read off that table through polarisation.
    pool = _monomials_upto(8, "restricted")
    size = len(pool)
    table = [[frozenset(part) for part in bracket_each(m, pool)] for m in pool]
    for i, row in enumerate(table):
        if row[i]:
            return False, f"[m, m] != 0 for m = {format_monomial(pool[i])}"
        for j in range(i):
            if row[j] != table[j][i]:
                a, b = format_monomial(pool[i]), format_monomial(pool[j])
                return False, f"[a, b] != [b, a] for a = {a}, b = {b}"
    squares = [square(Element((m,))) for m in pool]
    upper = [table[i][j] for i, j in combinations(range(size), 2)]
    # [x, m_c] for each c, for every monomial x of a table entry or a square
    outputs = set().union(*upper, *squares)
    rows = {x: [frozenset(part) for part in bracket_each(x, pool)] for x in outputs}
    zero = [frozenset()] * size

    def with_pool(e: frozenset[Monomial]) -> list[frozenset[Monomial]]:
        """[e, m_c] for each c, summed from the rows of e's monomials."""
        parts = [rows[x] for x in e]
        if len(parts) == 1:
            return parts[0]
        return [reduce(xor, col) for col in zip(*parts)] if parts else zero

    # nested[i][j][c] = [[m_i, m_j], m_c]; a zero entry shares the zero row
    nested = [[zero] * size for _ in range(size)]
    for (i, j), entry in zip(combinations(range(size), 2), upper):
        if entry:
            nested[i][j] = nested[j][i] = with_pool(entry)
    # a triple with a repeated monomial follows from alternation and symmetry
    for i, j, c in combinations(range(size), 3):
        if nested[i][j][c] ^ nested[j][c][i] ^ nested[c][i][j]:
            a, b, d = (format_monomial(pool[k]) for k in (i, j, c))
            return False, f"Jacobi failed on {a}; {b}; {d}"
    for i, m in enumerate(pool):
        lhs = with_pool(squares[i])
        for j in range(size):
            if lhs[j] != nested[i][j][i]:
                a, b = format_monomial(m), format_monomial(pool[j])
                return False, f"[a^2, b] != [a, [a, b]] for a = {a}, b = {b}"
    for (i, j), entry in zip(combinations(range(size), 2), upper):
        if square(Element((pool[i], pool[j]))) != squares[i] ^ squares[j] ^ entry:
            a, b = format_monomial(pool[i]), format_monomial(pool[j])
            return False, f"(a + b)^2 != a^2 + b^2 + [a, b] for a = {a}, b = {b}"
    # the square is not multilinear: seeded sums of three monomials
    rng = random.Random(seed)
    trials = 10_000
    for _ in range(trials):
        i, j, c = rng.sample(range(size), 3)
        e = Element((pool[i], pool[j], pool[c]))
        expected = squares[i] ^ squares[j] ^ squares[c] ^ table[i][j] ^ table[i][c] ^ table[j][c]
        if square(e) != expected:
            return False, f"e^2 != sum of m^2 + sum of [m_i, m_j] for e = {e}"
    return True, (
        f"on the span of W~_1..W~_8 ({size} monomials): [m,m] = 0 and [a,b] = [b,a]"
        f" on {size * size} pairs, Jacobi on {math.comb(size, 3)} triples, [a^2,b] = [a,[a,b]]"
        f" on {size * size} pairs, (a+b)^2 = a^2+b^2+[a,b] on {len(upper)} pairs,"
        f" and e^2 on {trials} seeded 3-monomial elements"
    )


# --- criterion 5: nillity -----------------------------------------------------


def criterion_nillity(seed: int) -> tuple[bool, str]:
    checked = 0
    for size in (1, 2, 3):
        for combo in combinations(_monomials_upto(6), size):
            e = element(combo)
            if not e:
                continue
            lo, hi = e.pivot_range()
            if power_2k(e, hi - lo + 2) != ZERO:
                return False, f"e^(2^(m-n+2)) != 0 for {e}"
            checked += 1
    v1 = nil_mod.nil_index(v(1))
    if v1.index != 2:
        return False, f"nil index of v_1 is {v1.index}, expected exactly 2"
    # nil_index refuses an element still nonzero at its bound m - n + 2
    pool8 = _monomials_upto(8)
    rng = random.Random(seed + 5)
    for _ in range(500):
        e = element(rng.sample(pool8, rng.choice((2, 3))))
        if e:
            nil_mod.nil_index(e)
    return True, f"{checked} exhaustive + 500 random elements within bound"


# --- criterion 6: Hilbert recursion -------------------------------------------


def criterion_hilbert_recursion(seed: int) -> tuple[bool, str]:
    for n in range(2, 21):
        rec = series_mod.hilbert_recursive(n, 40)
        enum = series_mod.hilbert_enumerated(n, "lie", 40)
        if rec != enum:
            return False, f"recursion disagrees with enumeration at W_<= {n}"
    return True, "functional recursion = enumeration for n <= 20, D = 40"


# --- criterion 7: Euler inversion ---------------------------------------------


def criterion_euler_inversion(seed: int) -> tuple[bool, str]:
    bad = series_mod.euler_inverse_mismatch(40)
    if bad is not None:
        return False, f"E * H(U) differs from 1 first at {bad}"
    return True, "E(L) * H(U(L)) = 1 through total degree 40"


# --- criterion 8: growth ------------------------------------------------------


def criterion_growth(seed: int) -> tuple[bool, str]:
    # exact counts at lambda-power thresholds
    for n in range(3, 21):
        x = lambda_power(n)
        levels = weight_growth_levels(x)
        got = count_weights_at_most(levels, x)
        if got != 1 + (1 << (n - 2)):
            return False, f"gamma(lambda^{n}) = {got} != 1 + 2^{n - 2}"
    # sandwich at 1000 integer thresholds (from 2: below wt(v_1) = lambda
    # the weight growth function is still zero)
    table = WeightTable(weight_growth_levels(GoldenInt(1002, 0)))
    for t in range(2, 1002):
        got = table.count(GoldenInt(t, 0))
        low = t**LOG_LAMBDA_2 / 8
        high = 1 + t**LOG_LAMBDA_2 / 2
        if not low <= got <= high:
            return False, f"sandwich failed at threshold {t}: {got}"
    # s(F_n) = s(F_n + 1) = 2 under F_1 = F_2 = 1
    s_table = series_mod.hilbert_one_var(fib(20) + 1)
    for n in range(4, 21):
        if s_table[fib(n)] != 2 or s_table[fib(n) + 1] != 2:
            return (
                False,
                f"s(F_{n}), s(F_{n}+1) = {s_table[fib(n)]}, {s_table[fib(n) + 1]}",
            )
    # the two witness sequences of the no-limit argument: the first,
    # gamma(lambda^n) = 1 + 2^(n-2), is the lambda-power count above
    for n in range(7, 19):
        y = lambda_power(n) + lambda_power(n - 2)
        gy = count_weights_at_most(weight_growth_levels(y), y)
        expected_floor = 1 + (1 << (n - 2)) + (1 << (n - 3)) + (1 << (n - 5))
        if gy < expected_floor:
            return False, f"second witness count {gy} < {expected_floor} at n = {n}"
        if not gy > (WITNESS_C / 4) * float(y) ** LOG_LAMBDA_2:
            return False, f"second witness bound failed at n = {n}"
    return True, "lambda-power counts, 1000-threshold sandwich, s(F_n) = 2, witnesses"


# --- criterion 9: geometry ----------------------------------------------------


def criterion_geometry(seed: int) -> tuple[bool, str]:
    # strip and rectangles, exhaustive and exact through level 24
    for n in range(1, 25):
        if level_strip_violations(n, "restricted"):
            return False, f"strip violated within W~_{n}"
        if level_rectangle_violations(n):
            return False, f"rectangle violated within W_{n}"
        top = weight(Monomial(n, 0)).wt
        if (top - lambda_power(n)).sign() != 0:
            return False, f"upper rectangle bound not attained at level {n}"
        if n >= 4:
            full = (1 << (n - 3)) - 1
            bottom = weight(Monomial(n, full)).wt
            if (bottom - (lambda_power(n - 1) + LAMBDA)).sign() != 0:
                return False, f"lower rectangle bound not attained at level {n}"
    # plus/minus split closes under brackets (exhaustive through level 8)
    mons8 = _monomials_upto(8)
    plus, minus = sign_split(mons8)
    for side in (plus, minus):
        sign = weight(side[0]).swt.sign()
        for i, m1 in enumerate(side):
            rest = side[i + 1 :]
            for m2, res in zip(rest, bracket_each(m1, rest)):
                for m in res:
                    if weight(m).swt.sign() != sign:
                        return False, f"bracket left its side: [{m1}, {m2}]"
    # sampled positive-side subalgebras nilpotize within ceil(1/mu)
    pool_plus = [
        m
        for m in sign_split(_monomials_upto(8, "restricted"))[0]
        if (weight(m).swt * 6 - GoldenInt(1, 0)).sign() >= 0  # keeps N <= 6
    ]
    rng = random.Random(seed + 9)
    for _ in range(25):
        gens = [element([m]) for m in rng.sample(pool_plus, rng.choice((1, 2, 3)))]
        n_bound = local_nilpotency_bound([m for g in gens for m in g])
        layer = list(gens)
        depth = 1
        while layer and depth < n_bound:
            nxt = []
            for x in layer:
                for g in gens:
                    res = bracket(x, g)
                    if res:
                        nxt.append(res)
            layer = nxt
            depth += 1
        if layer and depth >= n_bound:
            return False, f"{n_bound}-fold bracket survived for {gens}"
    # the t_0 span is an abelian ideal: exhaustive pairs through level 8
    a_mons = [m for m in mons8 if m.tail & 1]
    for m1 in a_mons:
        swt = weight(m1).swt
        if not (swt.sign() < 0 and (swt + LAMBDA).sign() > 0):
            return False, f"A-monomial {m1} outside (-lambda, 0)"
        for m2, res in zip(a_mons, bracket_each(m1, a_mons)):
            if res:
                return False, f"A-monomials bracketed nonzero: {m1}, {m2}"
    # sampled A-pairs higher up
    a_pool_12 = [m for m in _monomials_upto(12) if m.tail & 1]
    for _ in range(200):
        m1, m2 = rng.sample(a_pool_12, 2)
        if next(bracket_each(m1, (m2,))):
            return False, f"A-monomials bracketed nonzero: {m1}, {m2}"
    return True, "strip/rectangles exact to level 24; split closed; A abelian"


# --- criterion 10: homology ---------------------------------------------------


def criterion_homology(seed: int) -> tuple[bool, str]:
    euler = series_mod.euler_product(10)
    first_h2: int | None = None
    h2_total = 0
    for d in range(11):
        for a in range(d + 1):
            b = d - a
            deg = homology_mod.Multidegree(a, b)
            for n in range(1, d + 1):
                if not homology_mod.dd_is_zero(n, deg):
                    return False, f"d.d != 0 at n={n}, degree=({a},{b})"
            h0 = homology_mod.homology_dim(0, deg)
            if h0 != (1 if (a, b) == (0, 0) else 0):
                return False, f"H_0({a},{b}) = {h0}"
            h1 = homology_mod.homology_dim(1, deg)
            expected_h1 = 1 if (a, b) in ((1, 0), (0, 1)) else 0
            if h1 != expected_h1:
                return False, f"H_1({a},{b}) = {h1}, expected {expected_h1}"
            if not homology_mod.euler_crosscheck(deg, euler):
                return False, f"Euler mismatch at ({a},{b})"
            h2 = homology_mod.homology_dim(2, deg)
            if first_h2 is None and h2 > 0:
                first_h2 = d
            h2_total += h2
    if first_h2 is None or first_h2 > 5:
        return False, f"no nonzero H_2 slice by total degree 5 (found: {first_h2})"
    return True, (
        "d.d = 0, H_0/H_1 exact, Euler matches for a+b <= 10; "
        f"first H_2 at degree {first_h2}; H_2 partial sums reach {h2_total}"
    )


# --- criterion 11: presentation -----------------------------------------------


def criterion_presentation(seed: int) -> tuple[bool, str]:
    report = pres_mod.presentation_report(7)
    if not report.matches_through(7):
        triples = {
            d: (report.free[d], report.quotient[d], report.target[d]) for d in range(1, 8)
        }
        return False, f"quotient dims differ from algebra dims: {triples}"
    return True, (
        "free/quotient/target dims agree through degree "
        f"7: {[report.quotient[d] for d in range(1, 8)]}"
    )


# --- criterion 12: diagnostics (no hard thresholds) ----------------------------


def criterion_diagnostics(seed: int) -> tuple[bool, str]:
    growth = series_mod.enveloping_growth_report(120)
    if not growth.witness_ok():
        return False, (
            f"PBW witness failed: gamma_U({growth.witness_degree}) = "
            f"{growth.witness_count} < {growth.witness_lower_bound}"
        )
    theta_emp = growth.theta_hat[-1][1] if growth.theta_hat else float("nan")
    table = homology_mod.homology_table(8)
    euler30 = series_mod.euler_product(30)
    para = homology_mod.paraboloid_report(
        {**euler30.coeffs, **{(a, b): d for (_, a, b), d in table.entries.items()}}
    )
    evals = series_mod.euler_eval_check(degree=400)
    lines = []
    for res in evals:
        if res.tail_ok:
            if not (res.positive_ok and res.upper_ok):
                return False, (
                    f"Euler evaluation at t={res.t}: value {res.truncation:.3e} "
                    f"violates (0, exp(-1/2/(1-t)) = {res.upper:.3e}]"
                )
            lines.append(f"t={float(res.t):.1f}: E={res.truncation:.3e} ok")
        else:
            lines.append(f"t={float(res.t):.1f}: tail bound too weak, skipped")
    fitted = "none" if para.fitted_exponent is None else f"{para.fitted_exponent:.3f}"
    return True, (
        f"theta_hat({growth.bound}) = {theta_emp:.3f} vs 0.5902; "
        f"envelope exponent fit = {fitted} (C fit {para.fitted_constant:.2f}); "
        + "; ".join(lines)
    )


# suite key -> (printed name, check, diagnostic flag)
CRITERIA: dict[str, tuple[str, Callable[[int], tuple[bool, str]], bool]] = {
    "basis": ("01-basis-counts", criterion_basis_counts, False),
    "recursion": ("02-recursive-basis", criterion_recursive_basis, False),
    "relations": ("03-relations", criterion_relations, False),
    "laws": ("04-lie-laws", criterion_lie_laws, False),
    "nil": ("05-nillity", criterion_nillity, False),
    "hilbert": ("06-hilbert-recursion", criterion_hilbert_recursion, False),
    "euler": ("07-euler-inversion", criterion_euler_inversion, False),
    "growth": ("08-growth", criterion_growth, False),
    "geometry": ("09-geometry", criterion_geometry, False),
    "homology": ("10-homology", criterion_homology, False),
    "presentation": ("11-presentation", criterion_presentation, False),
    "diagnostics": ("12-diagnostics", criterion_diagnostics, True),
}


def _run_job(job: tuple[str, int]) -> CheckResult:
    """Run one suite under the job's seed, timing its check; the caller's
    ``LIMITS`` are in force, in this process or in a forked worker."""
    name, seed = job
    label, check, diagnostic = CRITERIA[name]
    start = time.perf_counter()
    ok, detail = check(seed)
    return CheckResult(label, ok, detail, time.perf_counter() - start, diagnostic)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_suites(
    names: Iterable[str] | None = None, seed: int | None = None
) -> list[CheckResult]:
    """Run the named suites (all by default) and return their results in
    the order named.  ``seed`` feeds the randomized suites; by default it is
    the one ``set_seed`` set (20240 unless set).

    The suites run in ``min(usable CPUs, len(names))`` forked worker
    processes, which inherit the caller's ``LIMITS``, each timed in its
    worker; one suite, one usable CPU, or a platform without fork runs them
    in this process.  The ``FibLieError`` of the first failing suite reaches
    the caller with its type and message, as in this process, and no worker
    outlives the call.
    """
    selected = list(CRITERIA) if names is None else list(names)
    for name in selected:
        if name not in CRITERIA:
            raise InputError(f"unknown suite {name!r}; choose from {sorted(CRITERIA)}")
    seed = _DEFAULT_SEED if seed is None else seed
    jobs = [(name, seed) for name in selected]
    workers = min(_usable_cpus(), len(jobs))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_run_job(job) for job in jobs]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        # imap raises the error of the first failing suite in the order named
        return list(pool.imap(_run_job, jobs, chunksize=1))
