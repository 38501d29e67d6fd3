"""Command-line surface: subcommands over every module, figure emitters,
and the one-shot verification suite.

All tabular output is deterministic (canonical monomial order); CSV is
the ground-truth format and JSON mirrors it with named fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import basis as basis_mod
from . import expr, figures, homology as homology_mod, nil as nil_mod
from . import presentation as pres_mod
from . import series as series_mod
from . import verify as verify_mod
from .core import FibLieError, bracket, format_element, format_ring_monomial
from .grading import gr, weight


def _emit_rows(header: list[str], rows: Iterable[list], fmt: str, out) -> None:
    """Write rows as CSV, each as soon as it is produced, or as one JSON document."""
    if fmt == "json":
        json.dump(
            {"rows": [dict(zip(header, row)) for row in rows]},
            out,
            indent=2,
            default=str,
        )
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _levels(args) -> list[basis_mod.BasisLevel]:
    """The levels 1..max_n of a row listing; JSON holds every row, CSV streams."""
    levels = basis_mod.enumerate_W_upto(args.max_n, args.kind)
    if args.format == "json":
        basis_mod.check_held(levels)
    return levels


def _cmd_basis(args) -> int:
    rows = (
        [level.n, format_ring_monomial(m.tail), m.pivot, basis_mod.colour(m)]
        for level in _levels(args)
        for m in level
    )
    _emit_rows(["length", "tail", "pivot", "colour"], rows, args.format, sys.stdout)
    return 0


def _cmd_eval(args) -> int:
    result = expr.eval_text(args.expression)
    if args.format == "json":
        json.dump({"element": format_element(result)}, sys.stdout)
        sys.stdout.write("\n")
    else:
        print(format_element(result))
    return 0


def _cmd_bracket(args) -> int:
    left = expr.eval_text(args.left)
    right = expr.eval_text(args.right)
    print(format_element(bracket(left, right)))
    return 0


def _cmd_nil(args) -> int:
    e = expr.eval_text(args.element)
    report = nil_mod.nil_index(e, limit=args.monomial_limit)
    payload = {
        "element": format_element(e),
        "min_pivot": report.min_pivot,
        "max_pivot": report.max_pivot,
        "index": report.index,
        "bound": report.bound,
        "peak_monomials": report.peak_monomials,
    }
    if args.format == "json":
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def _cmd_nil_scan(args) -> int:
    rows = [
        [r.n, r.m, r.index, r.bound, int(r.tight), r.peak_monomials]
        for r in nil_mod.conjecture_scan((args.min, args.max), args.max)
    ]
    _emit_rows(
        ["n", "m", "index", "bound", "tight", "peak_monomials"],
        rows,
        args.format,
        sys.stdout,
    )
    return 0


def _cmd_hilbert(args) -> int:
    if args.upto:
        h = series_mod.hilbert_enumerated(args.upto, args.kind, args.degree)
    else:
        h = series_mod.hilbert_lie(args.degree, args.kind)
    rows = [[a, b, c] for (a, b), c in h.items_sorted()]
    _emit_rows(["a", "b", "coefficient"], rows, args.format, sys.stdout)
    return 0


def _cmd_euler(args) -> int:
    e = series_mod.euler_product(args.degree)
    rows = [[a, b, c] for (a, b), c in e.items_sorted()]
    _emit_rows(["a", "b", "coefficient"], rows, args.format, sys.stdout)
    return 0


def _cmd_envelope(args) -> int:
    if args.growth:
        report = series_mod.enveloping_growth_report(args.degree)
        rows = [[n, f"{th:.4f}", f"{series_mod.THETA:.4f}"] for n, th in report.theta_hat]
        _emit_rows(["degree", "theta_hat", "theta_target"], rows, args.format, sys.stdout)
        return 0
    series_mod.check_triangle(args.degree, args.degree)  # E's triangle, before counting
    h = series_mod.e_operator(series_mod.hilbert_lie(args.degree))
    rows = [[a, b, c] for (a, b), c in h.items_sorted()]
    _emit_rows(["a", "b", "coefficient"], rows, args.format, sys.stdout)
    return 0


def _cmd_homology(args) -> int:
    frontier = args.max_total_degree
    table = homology_mod.homology_table(frontier, args.n)
    rows = [[n, a, b, d] for (n, a, b), d in sorted(table.entries.items())]
    _emit_rows(["n", "a", "b", "dim"], rows, args.format, sys.stdout)
    if args.n is not None:  # the Euler sum needs every n the table reads
        print("euler-crosscheck: skipped (--n)", file=sys.stderr)
        return 0
    euler = series_mod.euler_product(frontier)
    slices = ((a, d - a) for d in range(frontier + 1) for a in range(d + 1))
    ok = all(homology_mod.euler_crosscheck(degree, euler) for degree in slices)
    print(f"euler-crosscheck: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_presentation(args) -> int:
    report = pres_mod.presentation_report(args.max_degree)
    rows = [
        [d, report.free[d], report.quotient[d], report.target[d]]
        for d in range(1, args.max_degree + 1)
    ]
    _emit_rows(["degree", "free", "quotient", "target"], rows, args.format, sys.stdout)
    ok = report.matches_through(min(args.max_degree, 7))
    print(f"verdict: {'pass' if ok else 'FAIL'} (through degree {min(args.max_degree, 7)})",
          file=sys.stderr)
    return 0 if ok else 1


def _strip_row(m) -> list:
    a, b = gr(m)
    wv = weight(m)
    return [
        format_ring_monomial(m.tail),
        m.pivot,
        a,
        b,
        f"{float(wv.wt):.6f}",
        f"{float(wv.swt):.6f}",
        str(wv.wt),
        str(wv.swt),
        basis_mod.colour(m),
    ]


def _cmd_strip(args) -> int:
    rows = (_strip_row(m) for level in _levels(args) for m in level)
    _emit_rows(
        ["tail", "pivot", "a", "b", "wt", "swt", "wt_exact", "swt_exact", "colour"],
        rows,
        args.format,
        sys.stdout,
    )
    return 0


def _cmd_figures(args) -> int:
    outdir = Path(args.outdir)
    which = args.which
    if which == 1:
        files = figures.figure1(args.max_n, outdir)
    elif which == 2:
        files = figures.figure2(args.max_n, outdir)
    elif which == 3:
        files = figures.figure3(args.max_n, outdir)
    else:
        files = figures.figure4(args.degree, outdir)
    print(files.csv_path)
    print(files.svg_path)
    return 0


def _cmd_verify(args) -> int:
    names = list(verify_mod.CRITERIA) if args.suite == "all" else [args.suite]
    results = verify_mod.run_suites(names, args.seed)
    failed = sum(not res.ok for res in results)
    if args.format == "json":
        records = [
            {
                "suite": suite,
                "name": res.name,
                "ok": res.ok,
                "diagnostic": res.diagnostic,
                "seconds": res.seconds,
                "detail": res.detail,
            }
            for suite, res in zip(names, results)
        ]
        json.dump(records, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for res in results:
            status = "PASS" if res.ok else "FAIL"
            if res.diagnostic and res.ok:
                status = "PASS*"
            print(f"{status} {res.name} ({res.seconds:.2f}s): {res.detail}")
        print(f"{len(results) - failed}/{len(results)} suites passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiblie",
        description="Exact computations in the Fibonacci restricted Lie algebra (p = 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("basis", help="enumerate basis monomials")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--kind", choices=("lie", "restricted"), default="lie")
    add_format(p)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("eval", help="evaluate a Lie-word expression")
    p.add_argument("expression")
    add_format(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("bracket", help="bracket of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("nil", help="minimal nilpotency index of an element")
    p.add_argument("--element", required=True)
    p.add_argument("--monomial-limit", type=int, default=None)
    add_format(p)
    p.set_defaults(fn=_cmd_nil)

    p = sub.add_parser("nil-scan", help="index-vs-bound scan for v_n + ... + v_m")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, default=6)
    add_format(p)
    p.set_defaults(fn=_cmd_nil_scan)

    p = sub.add_parser("hilbert", help="two-variable Hilbert series coefficients")
    p.add_argument("--degree", type=int, default=40)
    p.add_argument("--upto", type=int, default=0, help="restrict to W_{<=n}")
    p.add_argument("--kind", choices=("lie", "restricted"), default="lie")
    add_format(p)
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("euler", help="Euler characteristic coefficients")
    p.add_argument("--degree", type=int, default=40)
    add_format(p)
    p.set_defaults(fn=_cmd_euler)

    p = sub.add_parser("envelope", help="enveloping-algebra series / growth report")
    p.add_argument("--degree", type=int, default=40)
    p.add_argument("--growth", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("homology", help="homology dimensions by multidegree")
    p.add_argument("--max-total-degree", type=int, default=10)
    p.add_argument("--n", type=int, default=None)
    add_format(p)
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("presentation", help="free/quotient/target dimension triples")
    p.add_argument("--max-degree", type=int, default=7)
    add_format(p)
    p.set_defaults(fn=_cmd_presentation)

    p = sub.add_parser("strip", help="strip coordinates for figure reproduction")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--kind", choices=("lie", "restricted"), default="lie")
    add_format(p)
    p.set_defaults(fn=_cmd_strip)

    p = sub.add_parser("figures", help="emit figure CSV + SVG files")
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--degree", type=int, default=30)
    p.add_argument("--outdir", default="figures")
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all", *verify_mod.CRITERIA))
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomized suites")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except FibLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so the flush at
        # interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
