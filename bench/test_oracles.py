"""Hand-checked values for the benchmark's oracles and span arithmetic.

    python3 -m pytest bench/test_oracles.py -q
"""

import math

import numpy as np

import oracles
from run import layer_values


def test_interval_box_count():
    # P_2({0,1,2}): 3 boxes with h = 0, 2 for each of the 4 h with
    # |h|_1 = 1, 1 for each of the 8 h with |h|_1 = 2.
    assert oracles.interval_box_count(3, 2) == 19
    assert oracles.box_count([(0,), (1,), (2,)], 1, 3, 2) == 19
    assert oracles.interval_box_count(2, 2) == 6


def test_box_count_of_products_multiplies():
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert oracles.box_count(square, 2, 2, 2) == 6 * 6
    assert oracles.box_count([(0,), (2,)], 1, 3, 2) == 6


def test_norm_power_of_two_points():
    # ||1_{0,1}||_{U^2}^4 = 6: two boxes with h = 0 and one for each of
    # the four h in {(+-1, 0), (0, +-1)}.
    assert oracles.norm_power([(0,), (1,)], [1, 1], 1, 2, 2) == 6.0
    # A unimodular phase on a single point has U^k power 1.
    assert math.isclose(oracles.norm_power([(3,)], [1j], 1, 4, 3), 1.0)


def test_energies_of_two_points():
    # r = (1, 2, 1) for both sums a + b and differences a - b of {0, 1}.
    assert oracles.energy_E([(0,), (1,)], 1, 2, 2) == 1 + 4 + 1
    assert oracles.energy_E_tilde([(0,), (1,)], 1, 2, 2) == 1 + 4 + 1
    assert oracles.energy_E_tilde([(0,), (1,)], 1, 2, 3) == 1 + 8 + 1


def test_objective_binary_value():
    # t(k, 2) = log2(2k + 2) with the maximizer at (1/2, 1/2).
    for k in (2, 5, 16):
        terms = oracles.objective_terms(2, k)
        t = math.log2(2 * k + 2)
        assert math.isclose(oracles.objective(terms, t, np.array([[0.5, 0.5]]))[0], 1.0)


def test_objective_ternary_closed_form():
    k, t = 3, 2.9
    x, y, z = 0.2, 0.5, 0.3
    closed = (x ** t + y ** t + z ** t
              + 2 * k * ((x * y) ** (t / 2) + (y * z) ** (t / 2) + (x * z) ** (t / 2))
              + 2 * k * (k - 1) * x ** (t / 4) * y ** (t / 2) * z ** (t / 4))
    terms = oracles.objective_terms(3, k)
    assert math.isclose(oracles.objective(terms, t, np.array([[x, y, z]]))[0], closed)
    assert terms[0].sum() == oracles.interval_box_count(3, k)


def test_suite_counts():
    counts = oracles.suite_check_counts()
    assert counts["majorization"] == 14_040
    assert counts["binary"] == 18


def test_layer_values_self_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["solver.solve_exponent", 1.0, 9.0, 0],
        ["solver.max_objective", 2.0, 4.0, 1],
        ["solver.max_objective", 5.0, 8.0, 1],
    ]
    v = layer_values({"spans": spans, "commands": [],
                      "distinct_args": {"entropy.pmf_signed_sum": 0}})
    assert v["solver.max_objective.calls"] == 2
    assert v["solver.max_objective.s"] == 5.0
    assert v["solver.max_objective.mean_ms"] == 2500.0
    assert v["solver.solve_exponent.self_s"] == 3.0
    assert v["cli.main.self_s"] == 2.0
    assert v["entropy.pmf_signed_sum.distinct_ratio"] == 0.0
