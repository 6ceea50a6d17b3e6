"""Closed-form main terms, the leading coefficient table, and sweep reports
comparing solver output over an (n, k) grid against the large-k formula and
the trivial bounds.

The o(1) corrections are reported as gaps and never asserted to vanish;
only their monotone trend is checked at desk scale.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

from .entropy import binomial_entropies, binomial_entropy

# The solver's names, and the term table's, import numpy.  The sweep binds
# them as module globals on first use (PEP 562 for a read from outside), so
# that the closed forms, table1's and verify's, load neither.  A name
# already set, such as a stand-in put in from outside, is never overwritten.
_SOLVER_NAMES = {
    "SolverConfig": ".solver",
    "check_problem": ".solver",
    "solve_exponent": ".solver",
    "trivial_bounds": ".solver",
    "term_groups": ".terms",
    "term_matrix": ".terms",
}


def __getattr__(name):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    bind_solver_names()
    return globals()[name]


def bind_solver_names():
    for name, module in _SOLVER_NAMES.items():
        if name not in globals():
            globals()[name] = getattr(importlib.import_module(module, __package__), name)


def large_k_main_term(k: int, n: int) -> float:
    """Main term ((n-1) log2(2k) - log2((n-1)!)) / H_{n-1} of the critical
    exponent as k grows with n fixed."""
    if k < 2 or n < 2:
        raise ValueError("k >= 2 and n >= 2 required")
    return (
        (n - 1) * math.log2(2 * k) - math.log2(math.factorial(n - 1))
    ) / binomial_entropy(n - 1)


def leading_coefficient(n: int) -> float:
    """(n-1) / H_{n-1}, the slope of the critical exponent in log2 k."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return (n - 1) / binomial_entropy(n - 1)


def large_n_lower_main_term(k: int, n: int) -> float:
    """Main term k+1 - ((k+1) log2(k+1) - 2k) / (2 log2 n) of the lower
    bound as n grows with k fixed."""
    if k < 2 or n < 2:
        raise ValueError("k >= 2 and n >= 2 required")
    return k + 1 - ((k + 1) * math.log2(k + 1) - 2 * k) / (2 * math.log2(n))


@dataclass(frozen=True)
class AsymptoticReport:
    """One `gcube asym` row, field for field: t from the solver, its dual p,
    the large-k main term and t's gap to it, the large-n lower main term
    and the trivial bounds."""

    k: int
    n: int
    t_solver: float
    p: float
    t_formula: float
    gap: float
    lower13: float
    lower: float
    upper: float


def asymptotic_sweep(n_list, k_list, cfg: SolverConfig | None = None) -> list:
    """Solve each distinct (n, k) of the grid n_list x k_list in ascending
    (n, k) order, one after another, and tabulate the formula gaps and
    trivial bounds.  Every point passes `check_problem` before any solve,
    and each point's term table leaves the caches after its report."""
    bind_solver_names()
    cfg = cfg or SolverConfig()
    grid = [(n, k) for n in sorted(set(n_list)) for k in sorted(set(k_list))]
    for n, k in grid:
        check_problem(n, k, cfg)
    reports = []
    for n, k in grid:
        reports.append(report_for(solve_exponent(n, k, cfg)))
        term_matrix.cache_clear()
        term_groups.cache_clear()
    return reports


def report_for(pair) -> AsymptoticReport:
    bind_solver_names()
    formula = large_k_main_term(pair.k, pair.n)
    lower, upper = trivial_bounds(pair.n, pair.k)
    return AsymptoticReport(
        k=pair.k,
        n=pair.n,
        t_solver=pair.t,
        p=pair.p,
        t_formula=formula,
        gap=pair.t - formula,
        lower13=large_n_lower_main_term(pair.k, pair.n),
        lower=lower,
        upper=upper,
    )


def leading_coefficient_rows(n_max: int) -> list:
    """(n, (n-1)/H_{n-1}) rows for n = 2, ..., n_max."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return [(m + 1, m / h) for m, h in enumerate(binomial_entropies(n_max - 1), 1)]
