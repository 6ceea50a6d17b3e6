import math

import pytest

from conftest import solve_cached
from gcube.asymptotics import (
    asymptotic_sweep,
    eisner_tao_constant,
    large_k_main_term,
    large_n_lower_main_term,
    leading_coefficient,
    leading_coefficient_rows,
    report_for,
)
from gcube.entropy import binomial_entropy, binomial_entropy_bounds
from gcube.terms import term_groups, term_matrix

TABLE = {
    2: 1.0,
    3: 1.3333333333,
    4: 1.6562889815,
    5: 1.9698232317,
    6: 2.2745961522,
}


def test_large_k_main_term_values():
    assert large_k_main_term(3, 2) == pytest.approx(math.log2(6), rel=1e-12)
    for k in (2, 5, 9, 16):
        assert large_k_main_term(k, 3) == pytest.approx(
            (4.0 / 3.0) * math.log2(k) + 2.0 / 3.0, rel=1e-12
        )
    expect = (3 * math.log2(4) - math.log2(6)) / binomial_entropy(3)
    assert large_k_main_term(2, 4) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        large_k_main_term(1, 3)


def test_leading_coefficient_table():
    for n, v in TABLE.items():
        assert leading_coefficient(n) == pytest.approx(v, abs=1e-9)
    assert leading_coefficient(4) == pytest.approx(4 / (4 - math.log2(3)), rel=1e-12)
    assert leading_coefficient(6) == pytest.approx(16 / (14 - 3 * math.log2(5)), rel=1e-12)
    rows = leading_coefficient_rows(6)
    assert [n for n, _ in rows] == [2, 3, 4, 5, 6]


def test_large_n_lower_main_term():
    assert large_n_lower_main_term(3, 2) == pytest.approx(3.0, rel=1e-12)
    for n in (2, 4, 16):
        expect = 3 - (3 * math.log2(3) - 4) / (2 * math.log2(n))
        assert large_n_lower_main_term(2, n) == pytest.approx(expect, rel=1e-12)


def test_eisner_tao_constant():
    c, power_log = eisner_tao_constant(2)
    assert c == pytest.approx(2 ** 0.5 / 3 ** 0.375, rel=1e-12)
    assert power_log == pytest.approx(2 - 1.5 * math.log2(3), rel=1e-12)
    for k in range(2, 21):
        c, power_log = eisner_tao_constant(k)
        assert power_log == pytest.approx(
            k - (k + 1) * math.log2(k + 1) / 2.0, rel=1e-12
        )
        assert 0 < c < 1
    # approaches 1 from below, increasing once past the initial dip
    values = [eisner_tao_constant(k)[0] for k in range(3, 21)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.9999


def test_leading_coefficient_consistent_with_entropy_bounds():
    for n in range(2, 65):
        lo, hi = binomial_entropy_bounds(n - 1)
        coeff = leading_coefficient(n)
        assert (n - 1) / hi < coeff < (n - 1) / lo or n == 2
        if n == 2:
            assert (n - 1) / hi < coeff < (n - 1) / lo


def test_report_and_csv():
    pair = solve_cached(2, 2)
    rep = report_for(pair)
    assert rep.gap == pytest.approx(pair.t - math.log2(4), abs=1e-12)
    assert rep.upper == 3.0


# A sweep empties the term table caches after each point, so it ends
# holding no table.
def test_sweep_holds_no_table():
    reports = asymptotic_sweep([2, 3], [2])
    assert [(r.n, r.k) for r in reports] == [(2, 2), (3, 2)]
    assert term_groups.cache_info().currsize == 0
    assert term_matrix.cache_info().currsize == 0


def test_binary_gap_identity():
    for k in (2, 3, 4):
        pair = solve_cached(2, k)
        gap = pair.t - large_k_main_term(k, 2)
        assert gap == pytest.approx(math.log2(1 + 1 / k), abs=1e-9)


@pytest.mark.parametrize("call", [
    lambda: leading_coefficient(1),
    lambda: large_n_lower_main_term(2, 1),
    lambda: eisner_tao_constant(1),
    lambda: leading_coefficient_rows(1),
], ids=["leading_coefficient", "large_n_lower_main_term", "eisner_tao_constant",
        "leading_coefficient_rows"])
def test_input_checks(call):
    with pytest.raises(ValueError):
        call()
