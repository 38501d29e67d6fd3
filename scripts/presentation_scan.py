#!/usr/bin/env python3
"""Exploratory scan of the relation quotient beyond degree 7.

Compares, per total degree, the dimension of the free Lie algebra, the
quotient by the three defining relations (optionally with their shift
images), the true algebra dimension, and the kernel of the evaluation
map x_i -> v_i.  That map sends the free Lie algebra onto the algebra in
each degree, so its kernel has dimension free - algebra.  Degrees above 7
are conjecture territory: the output shows where the shifted relations
stop sufficing.
"""

from __future__ import annotations

import argparse
import sys

from fiblie.core import FibLieError
from fiblie.presentation import free_dims, quotient_dims, shifted_relation_trees, target_dims


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=9)
    parser.add_argument("--shifts", type=int, default=2)
    args = parser.parse_args()

    degree = args.max_degree
    free = free_dims(degree)
    quotient = quotient_dims(shifted_relation_trees(args.shifts), degree)
    target = target_dims(degree)

    print(f"relations + shifts through tau^{args.shifts}")
    print("degree  free  quotient  algebra  eval-kernel  ideal")
    for d in range(1, degree + 1):
        free_d = free[d]
        ideal_d = free_d - quotient[d]
        kernel_d = free_d - target[d]
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
