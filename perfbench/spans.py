"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps fiblie's public functions from outside the package: it
rebinds each wrapped name in every ``fiblie`` module that holds it, so
``from .core import square`` in ``nil`` and the module-global call in
``core.power_2k`` both reach the wrapper.  Each call records one span
(parent, name, start, end, in perf_counter nanoseconds) and bumps the
counters its hook derives from the arguments and the result.  Spans stay in
memory until ``write`` dumps them; ``self_times`` turns them into per-name
self time: a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

Counters = dict[str, float]
Hook = Callable[[Counters, tuple, object], None]


def _tail_width(n: int) -> int:
    # basis.tail_width; run.py imports this module without fiblie on its path
    return max(n - 3, 0)


def _count_square(c: Counters, args: tuple, result) -> None:
    n = len(args[0])
    c["core.square.pairs"] += n * (n + 1) // 2  # monomial squares + pairwise brackets
    c["core.square.out_monomials"] += len(result)


def _count_bracket(c: Counters, args: tuple, result) -> None:
    c["core.bracket.pairs"] += len(args[0]) * len(args[1])
    c["core.bracket.out_monomials"] += len(result)


def _count_nil_index(c: Counters, args: tuple, result) -> None:
    c["nil.squarings"] += result.index
    c["nil.peak_monomials"] = max(c["nil.peak_monomials"], result.peak_monomials)


def _count_chain_basis(c: Counters, args: tuple, result) -> None:
    c["homology.max_slice_wedges"] = max(c["homology.max_slice_wedges"], len(result))


def _count_rank(c: Counters, args: tuple, result) -> None:
    c["gf2.rank.rows"] += len(args[0])
    c["gf2.rank.max_cols"] = max(c["gf2.rank.max_cols"], args[1])


def _count_span_add(c: Counters, args: tuple, result) -> None:
    c["gf2.Span.add.enlarged"] += bool(result)


def _count_euler_terms(c: Counters, args: tuple, result) -> None:
    c["series.euler_product.terms"] += len(result.coeffs)


def _count_weight_scan(c: Counters, args: tuple, result) -> None:
    c["grading.scanned_monomials"] += sum(1 << _tail_width(n) for n in args[0])


def _count_strip_scan(c: Counters, args: tuple, result) -> None:
    restricted = len(args) > 1 and args[1] == "restricted" and args[0] >= 3
    c["grading.scanned_monomials"] += (1 << _tail_width(args[0])) + restricted


def _count_rectangle_scan(c: Counters, args: tuple, result) -> None:
    c["grading.scanned_monomials"] += 1 << _tail_width(args[0])


def _count_enumerate(c: Counters, args: tuple, result) -> None:
    c["basis.enumerate_W.monomials"] += len(result)


# (module, attribute path, counter hook).  A dotted path names a method,
# patched on its class.  Helpers left out here are timed as part of the
# wrapped function that calls them.
WRAPPED: tuple[tuple[str, str, Hook | None], ...] = (
    ("core", "square", _count_square),
    ("core", "bracket", _count_bracket),
    ("core", "power_2k", None),
    ("nil", "nil_index", _count_nil_index),
    ("nil", "conjecture_scan", None),
    ("homology", "chain_basis", _count_chain_basis),
    ("homology", "differential", None),
    ("homology", "homology_dim", None),
    ("homology", "homology_table", None),
    ("homology", "euler_crosscheck", None),
    ("gf2", "rank", _count_rank),
    ("gf2", "Span.add", _count_span_add),
    ("series", "euler_product", _count_euler_terms),
    ("series", "e_operator", None),
    ("series", "hilbert_lie", None),
    ("series", "LatticeSeries.__mul__", None),
    ("series", "euler_inverse_check", None),
    ("presentation", "free_lie", None),
    ("presentation", "quotient_dims", None),
    ("presentation", "target_dims", None),
    ("presentation", "lie_bracket_poly", None),
    ("presentation", "presentation_report", None),
    ("grading", "count_weights_at_most", _count_weight_scan),
    ("grading", "level_strip_violations", _count_strip_scan),
    ("grading", "level_rectangle_violations", _count_rectangle_scan),
    ("basis", "build_W_recursive", None),
    ("basis", "enumerate_W", _count_enumerate),
    ("verify", "run_suites", None),
)

# every counter a hook touches, so that each reads 0 where its layer is unused
COUNTERS = (
    "core.square.pairs",
    "core.square.out_monomials",
    "core.bracket.pairs",
    "core.bracket.out_monomials",
    "nil.squarings",
    "nil.peak_monomials",
    "homology.max_slice_wedges",
    "gf2.rank.rows",
    "gf2.rank.max_cols",
    "gf2.Span.add.enlarged",
    "series.euler_product.terms",
    "grading.scanned_monomials",
    "basis.enumerate_W.monomials",
)

# the lru_cache'd functions of homology, read through cache_info() at the end
HOMOLOGY_CACHES = ("_pool", "chain_basis", "_bracket_pair", "differential")


class Tracer:
    """Spans in four parallel int64 columns; span id = row, in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array.array("q")
        self.name = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counters: Counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` recording one span per call under a name of its own."""
        key = len(self.names)
        self.names.append(name)
        counters = self.counters
        calls = f"{name}.calls"
        counters[calls] = 0
        stack, parent, names, start, end = (
            self._stack, self.parent, self.name, self.start, self.end
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(key)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                counters[calls] += 1
                if hook is not None:
                    hook(counters, args, result)
                return result
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry of WRAPPED for the duration of the block."""
        for mod_name, _, _ in WRAPPED:
            importlib.import_module(f"fiblie.{mod_name}")
        modules = [
            m for n, m in list(sys.modules.items()) if n == "fiblie" or n.startswith("fiblie.")
        ]
        undo: list[tuple[object, str, object]] = []
        try:
            for mod_name, path, hook in WRAPPED:
                mod = sys.modules[f"fiblie.{mod_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[attr]
                    label = f"{mod_name}.{cls_name}.{attr.strip('_')}"
                    undo.append((cls, attr, original))
                    setattr(cls, attr, self.wrap(label, original, hook))
                    continue
                original = getattr(mod, path)
                wrapper = self.wrap(f"{mod_name}.{path}", original, hook)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def write(self, path: str, extra: dict) -> None:
        """Dump spans (times relative to the first start) and counters."""
        origin = self.start[0] if self.start else 0
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "parent": self.parent.tolist(),
                    "name": self.name.tolist(),
                    "start": [t - origin for t in self.start],
                    "end": [t - origin for t in self.end],
                    "counters": self.counters,
                    **extra,
                },
                fh,
            )


def self_times(trace: dict) -> dict[str, float]:
    """Seconds of self time per span name.

    ``trace`` holds the columns ``write`` produces.  A span's self time is
    its duration minus the union of its children's intervals clipped to it,
    so the self times of a tree sum to the duration of its root.
    """
    parent, name, start, end = trace["parent"], trace["name"], trace["start"], trace["end"]
    children: dict[int, list[int]] = {}
    for sid, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(sid)
    totals = [0] * len(trace["names"])
    for sid in range(len(parent)):
        lo, hi = start[sid], end[sid]
        covered = 0
        cursor = lo
        for child in sorted(children.get(sid, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[child], cursor), min(end[child], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                cursor = c_hi
        totals[name[sid]] += hi - lo - covered
    return {n: totals[i] / 1e9 for i, n in enumerate(trace["names"])}
