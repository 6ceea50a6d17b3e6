"""Closed-form main terms, the sharp real-line constant, the leading
coefficient table, and sweep reports comparing solver output against the
large-k formula.

The o(1) corrections are reported as gaps and never asserted to vanish;
only their monotone trend is checked at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .entropy import binomial_entropy
from .solver import SolverConfig, check_problem, solve_exponent


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


def eisner_tao_constant(k: int) -> tuple:
    """Sharp real-line constant C_k = 2^(k/2^k) / (k+1)^((k+1)/2^(k+1)).

    Returns (C_k, 2^k log2 C_k); the second form equals
    k - (k+1) log2(k+1) / 2 and is the one entering the lower bound."""
    if k < 2:
        raise ValueError("k must be >= 2")
    log2_c = (k - (k + 1) * math.log2(k + 1) / 2.0) / 2.0 ** k
    return (2.0 ** log2_c, 2.0 ** k * log2_c)


@dataclass(frozen=True)
class AsymptoticReport:
    k: int
    n: int
    t_solver: float
    t_formula: float
    gap: float
    large_n_lower: float
    upper_trivial: float


def asymptotic_sweep(n: int, k_list, cfg: SolverConfig | None = None) -> list:
    """Solve each distinct k in k_list at side n, in ascending order, and
    tabulate the formula gaps; the solves run one after another.  Every k
    passes `check_problem` before the first solve."""
    cfg = cfg or SolverConfig()
    ks = sorted(set(k_list))
    for k in ks:
        check_problem(n, k, cfg)
    return [report_for(solve_exponent(n, k, cfg)) for k in ks]


def report_for(pair) -> AsymptoticReport:
    formula = large_k_main_term(pair.k, pair.n)
    return AsymptoticReport(
        k=pair.k,
        n=pair.n,
        t_solver=pair.t,
        t_formula=formula,
        gap=pair.t - formula,
        large_n_lower=large_n_lower_main_term(pair.k, pair.n),
        upper_trivial=float(pair.k + 1),
    )


def leading_coefficient_rows(n_max: int) -> list:
    """(n, (n-1)/H_{n-1}) rows for n = 2, ..., n_max."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    return [(n, leading_coefficient(n)) for n in range(2, n_max + 1)]
