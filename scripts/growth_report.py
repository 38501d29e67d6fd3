#!/usr/bin/env python3
"""Growth oscillation report.

Prints the weight growth function against c * x^(log_lambda 2) along the
two witness sequences x_n = lambda^n and y_n = lambda^n + lambda^(n-2),
showing that the normalised ratio oscillates (no limit exists), plus the
empirical enveloping-algebra exponent against theta ~ 0.5902.
"""

from __future__ import annotations

import argparse
import sys

from fiblie.core import FibLieError
from fiblie.grading import (
    LOG_LAMBDA_2,
    count_weights_at_most,
    lambda_power,
    weight_growth_levels,
)
from fiblie.series import THETA, enveloping_growth_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=18)
    parser.add_argument("--envelope-degree", type=int, default=200)
    args = parser.parse_args()

    # lambda^(max_n + 1) needs the same levels as the largest threshold,
    # y_max_n: asking for them first refuses a scan too deep before any count
    weight_growth_levels(lambda_power(args.max_n + 1))
    print("n   gamma(lambda^n)/x^c   gamma(y_n)/y^c      (c = log_lambda 2)")
    for n in range(5, args.max_n + 1):
        x = lambda_power(n)
        gx = count_weights_at_most(weight_growth_levels(x), x)
        y = lambda_power(n) + lambda_power(n - 2)
        gy = count_weights_at_most(weight_growth_levels(y), y)
        rx = gx / float(x) ** LOG_LAMBDA_2
        ry = gy / float(y) ** LOG_LAMBDA_2
        print(f"{n:2d}  {rx:18.6f}   {ry:16.6f}")
    print()
    report = enveloping_growth_report(args.envelope_degree)
    print(f"enveloping growth: theta target {THETA:.4f}")
    for n, theta_hat in report.theta_hat:
        print(f"  degree {n:4d}: theta_hat = {theta_hat:.4f}")
    print(
        f"PBW witness: gamma_U({report.witness_degree}) = {report.witness_count} "
        f">= {report.witness_lower_bound}"
    )


if __name__ == "__main__":
    try:
        main()
    except FibLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
