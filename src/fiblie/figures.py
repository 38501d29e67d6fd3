"""CSV and SVG emitters for the four lattice/strip figures.

CSV is the ground-truth artifact; the SVG is a direct rendering of the
same rows and carries no extra data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import series
from .basis import check_held, enumerate_W, enumerate_W_upto
from .core import InputError, format_ring_monomial
from .grading import (
    LAMBDA_FLOAT,
    check_levels,
    gr,
    gr_pivot,
    level_multidegree_counts,
    weight,
    weight_coords_float,
)


@dataclass
class FigureFiles:
    csv_path: Path
    svg_path: Path


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _svg_scatter(
    path: Path,
    points: list[tuple[float, float, float, str]],
    lines: list[tuple[float, float, float, float, str]],
) -> None:
    """points: (x, y, radius, colour); lines: (x1, y1, x2, y2, colour)."""
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    scale = 720 / max(x1 - x0, y1 - y0)

    def sx(x: float) -> float:
        return (x - x0) * scale

    def sy(y: float) -> float:
        return 720 - (y - y0) * scale

    with path.open("w") as fh:  # one element per line, no trailing newline
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="720" '
            'viewBox="0 0 720 720">\n<rect width="720" height="720" fill="white"/>'
        )
        for lx1, ly1, lx2, ly2, colour in lines:
            fh.write(
                f'\n<line x1="{sx(lx1):.2f}" y1="{sy(ly1):.2f}" x2="{sx(lx2):.2f}" '
                f'y2="{sy(ly2):.2f}" stroke="{colour}" stroke-width="1"/>'
            )
        for x, y, r, colour in points:
            fh.write(
                f'\n<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="{max(r, 1.2):.2f}" '
                f'fill="{colour}" fill-opacity="0.75"/>'
            )
        fh.write("\n</svg>")


def _mix(green: int, count: int) -> str:
    frac = green / count if count else 0.0
    r = int(40 + 30 * (1 - frac))
    g = int(90 + 110 * frac)
    b = int(200 - 140 * frac)
    return f"rgb({r},{g},{b})"


def _strip_lines(amax: int) -> list[tuple[float, float, float, float, str]]:
    """The strip's two red border lines b = lambda a + c over 0 <= a <= amax."""
    return [
        (0.0, c, float(amax), LAMBDA_FLOAT * amax + c, "red")
        for c in (-(LAMBDA_FLOAT**3), LAMBDA_FLOAT**2)
    ]


def figure1(max_n: int, outdir: Path) -> FigureFiles:
    """Lattice points of W_{<=N} with counts (the Hilbert series of W_{<=N})
    and colour mix.  W_1 = v_1 is green, and for n >= 2 the green part of
    W_n (no t_{n-4}) has the tails of W_{n-1}, so it is W_{n-1}'s fold moved
    by Gr(v_n) - Gr(v_{n-1}); blue is the rest.  So one fold of each level
    gives its own cells and the green part of the next."""
    if max_n < 1:
        raise InputError("level index must be >= 1")
    counts: dict[tuple[int, int], int] = {}
    greens = {(1, 0): 1}
    for n in check_levels(range(1, max_n + 1)):
        (a0, b0), (a1, b1) = gr_pivot(n), gr_pivot(n + 1)
        for (a, b), c in level_multidegree_counts(n).items():
            counts[(a, b)] = counts.get((a, b), 0) + c
            if n < max_n:
                key = (a + a1 - a0, b + b1 - b0)
                greens[key] = greens.get(key, 0) + c
    cells = sorted(counts.items())
    pivots = {tuple(gr_pivot(n)) for n in range(1, max_n + 1)}  # red cells
    rows = (
        [a, b, c, g, c - g, int((a, b) in pivots), *weight_coords_float((a, b))]
        for (a, b), c in cells
        for g in [greens.get((a, b), 0)]
    )
    csv_path = outdir / "fig1.csv"
    _write_csv(csv_path, ["a", "b", "count", "green", "blue", "pivot", "wt", "swt"], rows)
    pts = [
        (float(a), float(b), 2.0 * math.sqrt(c),
         "red" if (a, b) in pivots else _mix(greens.get((a, b), 0), c))
        for (a, b), c in cells
    ]
    amax = cells[-1][0][0]  # the cells sort by a first
    svg_path = outdir / "fig1.svg"
    _svg_scatter(svg_path, pts, _strip_lines(amax))
    return FigureFiles(csv_path, svg_path)


def figure2(n: int, outdir: Path) -> FigureFiles:
    """W_N in its weight-coordinate rectangle."""
    level = enumerate_W(n)
    check_held([level])
    rows = []
    for m in level:
        a, b = gr(m)
        wv = weight(m)
        rows.append(
            [format_ring_monomial(m.tail), m.pivot, a, b, float(wv.wt), float(wv.swt)]
        )
    csv_path = outdir / "fig2.csv"
    _write_csv(csv_path, ["tail", "pivot", "a", "b", "xi", "eta"], rows)
    pts = [(r[4], r[5], 1.6, "rgb(40,90,200)") for r in rows]
    lo, hi = LAMBDA_FLOAT ** (n - 1), LAMBDA_FLOAT**n
    border = [
        (lo, -LAMBDA_FLOAT, hi, -LAMBDA_FLOAT, "red"),
        (lo, 1.0, hi, 1.0, "red"),
        (lo, -LAMBDA_FLOAT, lo, 1.0, "red"),
        (hi, -LAMBDA_FLOAT, hi, 1.0, "red"),
    ]
    svg_path = outdir / "fig2.svg"
    _svg_scatter(svg_path, pts, border)
    return FigureFiles(csv_path, svg_path)


def figure3(max_n: int, outdir: Path) -> FigureFiles:
    """All levels normalised into one rectangle (xi rescaled per level)."""
    levels = enumerate_W_upto(max_n)
    check_held(levels)
    rows = []
    for level in levels:
        n = level.n
        lo, hi = LAMBDA_FLOAT ** (n - 1), LAMBDA_FLOAT**n
        for m in level:
            wv = weight(m)
            u = (float(wv.wt) - lo) / (hi - lo)
            rows.append([n, format_ring_monomial(m.tail), m.pivot, u, float(wv.swt)])
    csv_path = outdir / "fig3.csv"
    _write_csv(csv_path, ["length", "tail", "pivot", "u", "eta"], rows)
    pts = [(r[3], r[4], 1.4, "rgb(40,90,200)") for r in rows]
    border = [
        (0.0, -LAMBDA_FLOAT, 1.0, -LAMBDA_FLOAT, "red"),
        (0.0, 1.0, 1.0, 1.0, "red"),
    ]
    svg_path = outdir / "fig3.svg"
    _svg_scatter(svg_path, pts, border)
    return FigureFiles(csv_path, svg_path)


def figure4(degree: int, outdir: Path) -> FigureFiles:
    """Euler-characteristic coefficients with sign colouring."""
    euler = series.euler_product(degree)
    rows = []
    for (a, b), c in euler.items_sorted():
        rows.append([a, b, c, 1 if c > 0 else -1])
    csv_path = outdir / "fig4.csv"
    _write_csv(csv_path, ["a", "b", "coefficient", "sign"], rows)
    pts = [
        (float(a), float(b), 1.5 * math.sqrt(abs(c)), "green" if c > 0 else "blue")
        for a, b, c, _ in rows
    ]
    amax = max((r[0] for r in rows), default=1)
    svg_path = outdir / "fig4.svg"
    _svg_scatter(svg_path, pts, _strip_lines(amax))
    return FigureFiles(csv_path, svg_path)
