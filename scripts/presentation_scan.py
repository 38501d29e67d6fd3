#!/usr/bin/env python3
"""Exploratory scan of the relation quotient beyond degree 7.

Compares, per total degree, the dimension of the free Lie algebra, the
quotient by the three defining relations (optionally with their shift
images), the true algebra dimension, and the kernel of the evaluation
map.  Degrees above 7 are conjecture territory: the output shows where
the shifted relations stop sufficing.
"""

from __future__ import annotations

import argparse
import sys

from fiblie import gf2, v
from fiblie.core import FibLieError
from fiblie.presentation import (
    evaluate,
    free_lie,
    quotient_dims,
    shifted_relation_trees,
    target_dims,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=9)
    parser.add_argument("--shifts", type=int, default=2)
    args = parser.parse_args()

    degree = args.max_degree
    fl = free_lie(degree)
    assign = {1: v(1), 2: v(2)}
    quotient = quotient_dims(shifted_relation_trees(args.shifts), degree)
    target = target_dims(degree)

    print(f"relations + shifts through tau^{args.shifts}")
    print("degree  free  quotient  algebra  eval-kernel  ideal")
    for d in range(1, degree + 1):
        words = fl.by_degree(d)
        images = [evaluate(fl.trees[w], assign) for w in words]
        support = sorted({m for e in images for m in e.monomials})
        idx = {m: i for i, m in enumerate(support)}
        rows = [sum(1 << idx[m] for m in e.monomials) for e in images]
        rank = gf2.rank(rows, max(len(support), 1))
        free_d = len(words)
        ideal_d = free_d - quotient[d]
        kernel_d = free_d - rank
        marker = "" if quotient[d] == target[d] else "   <- open"
        print(
            f"{d:6d}  {free_d:4d}  {quotient[d]:8d}  {target[d]:7d}  "
            f"{kernel_d:11d}  {ideal_d:5d}{marker}"
        )


if __name__ == "__main__":
    try:
        main()
    except FibLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
