"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``fiblie verify``
for the same checks outside pytest).  All checks are exact except the
bounds with an irrational constant (growth sandwich and witness) and
criterion 12, which reports diagnostics without hard thresholds.
"""

from __future__ import annotations

import multiprocessing

import pytest

from fiblie import verify
from fiblie.core import LIMITS, Element, InputError, MonomialLimitError, bracket_monomials, v


def _run(name: str, limit: float | None = None) -> None:
    """Run one suite, print its line, and hold it to its runtime target."""
    result = verify.run_suites([name])[0]
    status = "PASS" if result.ok else "FAIL"
    print(f"\n{status} {result.name} ({result.seconds:.2f}s): {result.detail}")
    assert result.ok, f"{result.name}: {result.detail}"
    if limit is not None:
        assert result.seconds < limit, f"runtime target missed: {result.seconds:.2f}s"


def test_criterion_01_basis_counts():
    """gr of each monomial of W_n against the subset-sum fold through level
    14, and the square v_{n-2}^2 = t_{n-3} v_n that W~_n adds through level
    24; runtime < 5 s."""
    _run("basis", limit=5.0)


def test_criterion_02_recursive_construction():
    """Bracket-built levels equal direct enumeration for n = 3..20; < 10 s."""
    _run("recursion", limit=10.0)


def test_criterion_03_relations():
    """Three relations plus v_1^4 vanish, with shifts through k = 10."""
    _run("relations")


def test_criterion_04_lie_laws():
    """On the span of W~_1..W~_8: alternation and symmetry on every monomial
    pair, Jacobi on every triple, [a^2, b] = [a, [a, b]] on every pair, the
    polarisation (a+b)^2 = a^2 + b^2 + [a, b] on every pair, and the squares
    of 10^4 seeded 3-monomial elements."""
    _run("laws")


# each law of criterion 04 fails on a kernel that breaks it; the patches
# replace the names verify imported, so they hold in whichever process runs
# the check


def _bracketed_pair() -> tuple:
    """The first ordered pair of the laws' pool with a nonzero bracket."""
    pool = verify._monomials_upto(8, "restricted")
    return next((a, b) for a in pool for b in pool if bracket_monomials(a, b))


def _patch_bracket(monkeypatch, corrupt) -> None:
    """Make verify's bracket_each give corrupt(m1, m2, part) for each part."""
    real = verify.bracket_each

    def patched(m1, others):
        others = list(others)
        for m2, part in zip(others, real(m1, others)):
            yield corrupt(m1, m2, part)

    monkeypatch.setattr(verify, "bracket_each", patched)


def _patch_square(monkeypatch, wrong) -> None:
    """Make verify's square add v_1 to e^2 wherever wrong(e) holds."""
    real = verify.square
    monkeypatch.setattr(verify, "square", lambda e: real(e) + v(1) if wrong(e) else real(e))


def test_lie_laws_catch_an_asymmetric_bracket(monkeypatch):
    a, b = _bracketed_pair()
    _patch_bracket(monkeypatch, lambda m1, m2, part: part[1:] if (m1, m2) == (a, b) else part)
    ok, detail = verify.criterion_lie_laws(1)
    assert not ok and detail.startswith("[a, b] != [b, a]")


def test_lie_laws_catch_a_symmetric_corruption_by_jacobi(monkeypatch):
    a, b = _bracketed_pair()
    _patch_bracket(monkeypatch, lambda m1, m2, part: part[1:] if {m1, m2} == {a, b} else part)
    ok, detail = verify.criterion_lie_laws(1)
    assert not ok and detail.startswith("Jacobi failed")


def test_lie_laws_catch_a_wrong_monomial_square(monkeypatch):
    target = Element({verify._monomials_upto(8, "restricted")[-1]})
    _patch_square(monkeypatch, lambda e: e == target)
    ok, detail = verify.criterion_lie_laws(1)
    assert not ok and detail.startswith("[a^2, b] != [a, [a, b]]")


def test_lie_laws_catch_a_wrong_square_of_three_monomials(monkeypatch):
    _patch_square(monkeypatch, lambda e: len(e) == 3)
    ok, detail = verify.criterion_lie_laws(1)
    assert not ok and detail.startswith("e^2 != ")


def test_criterion_05_nillity():
    """e^(2^(m-n+2)) = 0 exhaustively (<= 3 monomials, pivots <= 6) and,
    through nil_index's bound guard, on 500 random samples; v_1 attains
    index exactly 2."""
    _run("nil")


def test_criterion_06_hilbert_recursion():
    """Functional recursion equals enumeration, n <= 20, D = 40; < 30 s."""
    _run("hilbert", limit=30.0)


def test_criterion_07_euler_inversion():
    """Euler product times enveloping series is 1 through degree 40."""
    _run("euler")


def test_criterion_08_growth():
    """Weight-growth identities, sandwich bounds, s(F_n) = s(F_n+1) = 2,
    and the two no-limit witness sequences; < 5 s."""
    _run("growth", limit=5.0)


def test_witness_constant():
    # the C of criterion 08's second witness bound
    assert abs(verify.WITNESS_C - 1.0197) < 1e-3


def test_criterion_09_geometry():
    """Strip/rectangle bounds exact through level 24; split closed and
    locally nilpotent; abelian ideal exhaustive through length 8."""
    _run("geometry")


def test_criterion_10_homology():
    """d.d = 0, H_0/H_1 exact, Euler cross-check for a+b <= 10, first
    nonzero H_2 by degree 5, and the sum of dim H_2 there; < 2 min."""
    _run("homology", limit=120.0)


def test_criterion_11_presentation():
    """Quotient by the three relations matches algebra dims through 7."""
    _run("presentation")


def test_criterion_12_diagnostics():
    """Growth and envelope exponents reported against 0.5902; Euler values
    at t in {0.5, 0.6, 0.7} within the rigorous tail bound."""
    _run("diagnostics")


def test_unknown_suite_is_an_input_error():
    with pytest.raises(InputError, match="unknown suite 'nope'"):
        verify.run_suites(["nope"])


def _fields(results: list[verify.CheckResult]) -> list[tuple]:
    return [(r.name, r.ok, r.detail, r.diagnostic) for r in results]


def _check_workers_match_the_single_suite_runs(seed: int) -> None:
    names = ["relations", "nil", "hilbert", "euler", "presentation"]
    alone = [verify.run_suites([name], seed=seed)[0] for name in names]
    assert _fields(verify.run_suites(names, seed=seed)) == _fields(alone)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("seed", [1, 2])
def test_workers_match_the_single_suite_runs(seed):
    _check_workers_match_the_single_suite_runs(seed)


def test_without_fork_the_suites_run_in_process(monkeypatch):
    # a platform without fork, such as Windows, makes no pool
    contexts = []
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", lambda *args: contexts.append(args))
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    _check_workers_match_the_single_suite_runs(1)
    assert contexts == []


def test_workers_raise_the_in_process_error(monkeypatch):
    # a forked worker inherits the caller's limits and refuses as the caller
    # would; no fold outlives its call, so none is served past a lowered limit
    monkeypatch.setattr(LIMITS, "monomial_limit", 5)
    with pytest.raises(MonomialLimitError) as alone:
        verify.run_suites(["nil"])
    with pytest.raises(MonomialLimitError) as pooled:
        verify.run_suites(["relations", "nil"])
    message = "6 monomials in an intermediate element exceed the monomial limit 5"
    assert str(alone.value) == str(pooled.value) == message
    assert type(pooled.value) is MonomialLimitError
    # with two failing suites, the first named fails the run, as in process
    with pytest.raises(MonomialLimitError) as basis_first:
        verify.run_suites(["basis", "nil"])
    assert str(basis_first.value) == "8 possible multidegrees of W_6 exceed the monomial limit 5"
    with pytest.raises(MonomialLimitError) as nil_first:
        verify.run_suites(["nil", "basis"])
    assert str(nil_first.value) == message
    assert multiprocessing.active_children() == []
