"""Session-wide cache of exponent solves shared across test modules."""

import pytest

from gcube.solver import SolverConfig, solve_exponent

SOLVED = {}

# The (n, k) of the `large-k` and `large-n` bench workloads.
BENCH_POINTS = ([(n, k) for n in (2, 3) for k in (2, 3, 4, 6, 8, 12, 16)]
                + [(n, 2) for n in range(4, 9)])


def solve_cached(n, k):
    key = (n, k)
    if key not in SOLVED:
        SOLVED[key] = solve_exponent(n, k, SolverConfig())
    return SOLVED[key]


@pytest.fixture(scope="session")
def solved():
    return solve_cached
