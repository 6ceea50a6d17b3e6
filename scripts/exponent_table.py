#!/usr/bin/env python3
"""Solve the critical exponent over a grid of (k, n) pairs and print a table.

Example:
    python3 scripts/exponent_table.py --n 2,3,4 --k 2,3,4 --tol 1e-9
"""

import argparse
import time

from gcube.cli import nonnegative_int, tolerance
from gcube.solver import SolverConfig, check_problem, solve_exponent, trivial_bounds


def int_list(text):
    return sorted(int(v) for v in text.split(","))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int_list, default="2,3", help="comma-separated side lengths")
    ap.add_argument("--k", type=int_list, default="2,3,4", help="comma-separated box orders")
    ap.add_argument("--tol", type=tolerance, default=1e-9)
    ap.add_argument("--seed", type=nonnegative_int, default=0)
    args = ap.parse_args()

    cfg = SolverConfig(t_tolerance=args.tol, rng_seed=args.seed)
    grid = [(n, k) for n in args.n for k in args.k]
    # Every point passes the solver's input checks, such as a tolerance
    # below the float spacing of t, before the table starts.
    for n, k in grid:
        try:
            check_problem(n, k, cfg)
        except ValueError as exc:
            ap.error(str(exc))

    print(f"{'n':>3} {'k':>3} {'t':>16} {'p':>16} {'lower':>12} {'upper':>7} {'sec':>6}")
    for n, k in grid:
        t0 = time.time()
        pair = solve_exponent(n, k, cfg)
        lo, hi = trivial_bounds(n, k)
        print(
            f"{n:>3} {k:>3} {pair.t:>16.10f} {pair.p:>16.10g} "
            f"{lo:>12.6f} {hi:>7.2f} {time.time() - t0:>6.2f}"
        )


if __name__ == "__main__":
    main()
