"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
from itertools import product

import numpy as np
import pytest

from conftest import SOLVED, solve_cached
from gcube.gowers import energy_E, energy_E_tilde, energy_P, gowers_norm_pow, \
    gowers_norm_recursive
from gcube.lattice import CubeSet, LatticeFunction, interval_set
from gcube.solver import trivial_bounds, witness_lower_bound
from gcube.terms import enumerate_tuple_classes, objective, term_groups
from gcube.entropy import (
    binomial_entropy,
    binomial_entropy_bounds,
    verify_entropy_corollary,
    verify_majorization_lemma,
)
from gcube.asymptotics import large_k_main_term, leading_coefficient
from gcube.verify import (
    check_gcs,
    check_objective_monotone,
    check_objective_symmetry,
    check_tensor,
    check_triangle,
    check_young,
)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_golden_exponents():
    assert solve_cached(2, 2).t == pytest.approx(2.5849625007, abs=1e-6)
    assert solve_cached(2, 3).t == pytest.approx(3.0, abs=1e-6)
    for k in range(2, 9):
        assert solve_cached(2, k).t == pytest.approx(math.log2(2 * k + 2), abs=1e-6)
    pair = solve_cached(3, 2)
    assert pair.t == pytest.approx(2.7207109973, abs=1e-6)
    assert pair.p == pytest.approx(1.4702039297, abs=1e-6)
    _report(1, "golden exponents for n=2 (k<=8) and (n, k)=(3, 2) within 1e-6")


def test_criterion_2_exact_counts():
    for d in (1, 2, 3):
        cube = CubeSet(d, 2, frozenset(product((0, 1), repeat=d)))
        for k in range(2, 7):
            assert energy_P(cube, k) == (2 * k + 2) ** d
    assert energy_P(interval_set(3), 2) == 19
    for k in range(2, 6):
        assert energy_E(interval_set(2), k) == math.comb(2 * k, k)
    for k in range(2, 9):
        assert energy_E_tilde(interval_set(2), k) == 2 ** k + 2
    _report(2, "exact box, sum, and common-difference counts")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(42)
    for trial in range(200):
        dim = rng.choice((1, 2))
        k = rng.choice((2, 3))
        pts = list(product(range(5), repeat=dim))
        supp = rng.sample(pts, rng.randint(1, min(6, len(pts))))
        f = LatticeFunction(
            dim,
            {p: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for p in supp},
        )
        a = gowers_norm_pow(f, k)
        b = gowers_norm_recursive(f, k)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a)), (trial, dim, k)
    for trial in range(100):
        dim = rng.choice((1, 2))
        k = rng.choice((2, 3))
        pts = list(product(range(5), repeat=dim))
        members = frozenset(rng.sample(pts, rng.randint(1, min(6, len(pts)))))
        A = CubeSet(dim, 5, members)
        assert abs(gowers_norm_pow(A.indicator(), k) - energy_P(A, k)) < 0.5
    _report(3, "recursive norm vs brute force (200 trials) and indicator norm "
               "vs box count (100 sets)")


def test_criterion_4_binary_inequality_grid():
    xs = np.linspace(0.0, 1.0, 10_000)
    for k in range(2, 11):
        t = math.log2(2 * k + 2)
        vals = xs ** t + (1.0 - xs) ** t + 2 * k * (xs * (1.0 - xs)) ** (t / 2.0)
        assert float(vals.max()) <= 1.0 + 1e-12
        mid = 2.0 * 0.5 ** t + 2 * k * 0.25 ** (t / 2.0)
        assert abs(mid - 1.0) <= 1e-12
    _report(4, "two-point inequality on 10^4-point grid for k = 2..10")


def test_criterion_5_term_group_audit():
    for k in (2, 3, 5):
        multiset = sorted(g.coefficient for g in term_groups(3, k))
        assert multiset == sorted([1, 1, 1, 2 * k, 2 * k, 2 * k, 2 * k * (k - 1)])
    for n in range(2, 8):
        assert enumerate_tuple_classes(n)[-1].size == 2 ** (n - 1)
    for n in range(2, 6):
        for k in range(2, 5):
            pk = energy_P(interval_set(n), k)
            for t in (1.9, 2.8):
                expect = pk * n ** (-t)
                got = objective(n, k, t, [1.0 / n] * n)
                assert abs(got - expect) <= 1e-12 * expect
    _report(5, "ternary coefficient multiset, largest class sizes, uniform identity")


def test_criterion_6_entropy_suite():
    assert binomial_entropy(1) == 1.0
    assert binomial_entropy(2) == 1.5
    prev = None
    for m in range(1, 1001):
        h = binomial_entropy(m)
        lo, hi = binomial_entropy_bounds(m)
        assert lo < h < hi, m
        if prev is not None:
            assert h / m < prev, m
        prev = h / m
    table = {2: 1.0, 3: 1.3333333333, 4: 1.6562889815,
             5: 1.9698232317, 6: 2.2745961522}
    for n, v in table.items():
        assert abs(leading_coefficient(n) - v) <= 1e-9
    rep = verify_majorization_lemma(4, 4)
    assert rep.passed, rep.failures[:3]
    for n in range(2, 9):
        sub = verify_entropy_corollary(n)
        assert sub.passed, sub.failures[:3]
    _report(6, "entropies, strict bounds and ratios to m=1000, coefficient table, "
               "exhaustive majorization and corollary checks")


def test_criterion_7_witness_bounds():
    assert witness_lower_bound(3, 2, [1 / 3] * 3) == pytest.approx(
        math.log(19) / math.log(3), abs=1e-9
    )
    checked = 0
    for (n, k), pair in sorted(SOLVED.items()):
        lo, hi = trivial_bounds(n, k)
        assert lo - 1e-6 <= pair.t <= hi + 1e-6, (n, k)
        assert witness_lower_bound(n, k, [1.0 / n] * n) <= pair.t + 1e-6, (n, k)
        binom = [math.comb(n - 1, j) / 2.0 ** (n - 1) for j in range(n)]
        if max(binom) < 1.0:
            assert witness_lower_bound(n, k, binom) <= pair.t + 1e-6, (n, k)
        checked += 1
    assert checked >= 8
    _report(7, f"uniform ternary witness at log3(19); witness and trivial bounds "
               f"sandwich all {checked} solved pairs")


def test_criterion_8_asymptotic_trend():
    gaps = []
    for k in (2, 3, 4, 6, 8, 12, 16):
        pair = solve_cached(3, k)
        gaps.append(abs(pair.t - ((4.0 / 3.0) * math.log2(k) + 2.0 / 3.0)))
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-6
    for k in range(2, 9):
        pair = solve_cached(2, k)
        gap = pair.t - large_k_main_term(k, 2)
        assert gap == pytest.approx(math.log2(1.0 + 1.0 / k), abs=1e-9)
    _report(8, "side-3 formula gap nonincreasing in k; side-2 gap equals "
               "log2(1+1/k) to 1e-9")


def test_criterion_9_property_suites():
    for check, name in (
        (check_gcs, "inner product bound"),
        (check_triangle, "triangle inequality"),
        (check_young, "convolution norm bound"),
        (check_tensor, "tensor multiplicativity"),
        (check_objective_monotone, "objective monotone in t"),
        (check_objective_symmetry, "objective reflection symmetry"),
    ):
        rep = check()
        assert rep.passed, (name, rep.failures[:3])
        assert rep.cases == 200, name
    _report(9, "six randomized property suites, 200 seeded trials each")
