import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np

import gcube.terms as terms_module
from gcube.gowers import energy_P
from gcube.lattice import interval_set
from gcube.terms import (
    _term_rows,
    enumerate_tuple_classes,
    objective,
    pmf_of_tuple,
    term_groups,
    term_matrix,
    ternary_objective_check,
)


def test_binary_class_contents():
    classes = enumerate_tuple_classes(2)
    assert len(classes) == 1
    assert set(classes[0]) == {(0, (1,)), (1, (-1,))}


def test_class_sizes():
    classes = enumerate_tuple_classes(3)
    assert len(classes[0]) == 6
    assert len(classes[1]) == 4
    assert len(enumerate_tuple_classes(4)[-1]) == 8
    for n in range(2, 8):
        assert len(enumerate_tuple_classes(n)[-1]) == 2 ** (n - 1)


def test_enumerated_tuples_satisfy_constraints():
    for n in range(2, 7):
        seen = set()
        for cls in enumerate_tuple_classes(n):
            for a, h in cls:
                assert (a, h) not in seen
                seen.add((a, h))
                assert all(v != 0 for v in h)
                assert sum(abs(v) for v in h) <= n - 1
                lo = a + sum(v for v in h if v < 0)
                hi = a + sum(v for v in h if v > 0)
                assert 0 <= lo and hi <= n - 1


def test_pmf_examples():
    assert pmf_of_tuple(3, 0, (1, 1)) == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert pmf_of_tuple(3, 1, (1, -1)) == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert pmf_of_tuple(2, 0, (1,)) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        pmf_of_tuple(3, 2, (1, 1))
    with pytest.raises(ValueError):
        pmf_of_tuple(3, 0, (0, 1))


def pmf_by_eps(n, a, h):
    # q_j = 2^{-l} |{eps : a + eps . h = j}|, counted over all 2^l eps.
    counts = Counter(a + sum(v for v, e in zip(h, eps) if e)
                     for eps in product((0, 1), repeat=len(h)))
    return tuple(Fraction(counts[j], 2 ** len(h)) for j in range(n))


def test_pmf_sums_exactly_one():
    for n in range(2, 6):
        for cls in enumerate_tuple_classes(n):
            for a, h in cls:
                q = pmf_of_tuple(n, a, h)
                assert sum(q) == 1
                assert q == pmf_by_eps(n, a, h)
    assert pmf_of_tuple(4, 2, ()) == (0, 0, 1, 0) == pmf_by_eps(4, 2, ())


def _q(n, b, counts):
    # The exact q vector of table row (b, counts): counts over their sum 2^l,
    # placed from b.
    return tuple(Fraction(x, sum(counts))
                 for x in (0,) * b + counts + (0,) * (n - b - len(counts)))


def test_term_groups_match_definition():
    for n in range(2, 8):
        diagonal = [(0, pmf_by_eps(n, a, ())) for a in range(n)]
        classes = enumerate(enumerate_tuple_classes(n), 1)
        tuples = [(l, pmf_by_eps(n, a, h)) for l, cls in classes for a, h in cls]
        for k in (2, 3, 4, 6, 8):
            merged = Counter()
            for l, q in diagonal + tuples:
                merged[q] += math.comb(k, l)
            expected = tuple((merged[q], q) for q in sorted(merged, reverse=True)
                             if merged[q])
            got = tuple((c, _q(n, b, counts))
                        for (b, counts), c in zip(*term_groups(n, k)))
            assert got == expected, (n, k)


# The walk's invariants past the definition test's n <= 7, at sizes that
# build in well under a second: no two rows share q and the rows are in
# descending lexicographic q order, each multiset m gives n - sum(m) rows,
# which the partition count of check_problem gives without the walk, and
# the rows depend on k only through min(k, n - 1).
@pytest.mark.parametrize("k", [2, 3, 4, 8, 64, 1023])
def test_walk_invariants(k):
    for n in range(2, 33 if k <= 4 else 25):
        rows = term_groups(n, k)[0]
        assert len(rows) == _term_rows(n, k), (n, k)
        dense = np.zeros((len(rows), n), dtype=np.int64)
        for i, (b, counts) in enumerate(rows):
            dense[i, b:b + len(counts)] = np.array(counts) * (2 ** (n - 1) // sum(counts))
        step = dense[:-1] - dense[1:]
        first = (step != 0).argmax(axis=1)
        assert (step[np.arange(len(step)), first] > 0).all(), (n, k)
        multisets = terms_module._magnitude_multisets(n - 1, min(k, n - 1), n - 1)
        assert len(rows) == sum(n - sum(m) for m in multisets), (n, k)
        if k >= n - 1:
            assert rows == term_groups(n, n - 1)[0], (n, k)


def test_coefficient_audit_ternary():
    for k in (2, 3, 5):
        multiset = sorted(term_groups(3, k)[1])
        assert multiset == sorted([1, 1, 1, 2 * k, 2 * k, 2 * k, 2 * k * (k - 1)])


def test_total_coefficient_matches_box_count():
    for n in range(2, 6):
        for k in range(2, 5):
            total = sum(term_groups(n, k)[1])
            assert total == energy_P(interval_set(n), k)


# term_matrix divides each row's integer counts by their sum 2^l; that
# division is exact, so Q and c are the floats of the exact q vectors entry
# by entry.
def test_term_matrix_matches_fraction_table():
    for n in range(2, 17):
        for k in (2, 5):
            rows, coefficients = term_groups(n, k)
            tm = term_matrix(n, k)
            Q = np.array([[float(x) for x in _q(n, b, counts)] for b, counts in rows])
            c = np.array([float(x) for x in coefficients])
            assert np.array_equal(tm.Q, Q), (n, k)
            assert np.array_equal(tm.c, c), (n, k)


# bench/tracer.py times term_groups by its module global; term_matrix must
# look it up there rather than through another name.
def test_term_matrix_reads_term_groups(monkeypatch):
    calls = []
    inner = terms_module.term_groups

    def counting(n, k):
        calls.append((n, k))
        return inner(n, k)

    monkeypatch.setattr(terms_module, "term_groups", counting)
    term_matrix.cache_clear()
    term_matrix(5, 3)
    assert calls == [(5, 3)]


def test_values_are_monomials_times_coefficients():
    rng = np.random.default_rng(3)
    for n, k in ((2, 2), (3, 4), (5, 3), (8, 2)):
        tm = term_matrix(n, k)
        G = rng.dirichlet(np.ones(n), size=20)
        G[::3, 0] = 0.0  # zero coordinates: 0^0 = 1 and 0^s = 0
        G[1::3, -1] = 0.0
        G = np.vstack([G / G.sum(axis=1, keepdims=True), np.eye(n)])
        for t in (1.0, 2.5, k + 1.0):
            E = tm.monomials(G, t)
            assert np.array_equal(tm.values(G, t), E @ tm.c)
            for g, row in zip(G, E):
                for q, mono in zip(tm.Q, row):
                    # Python's float power has the same 0^0 and 0^s rules.
                    want = math.prod(x ** (y * t) for x, y in zip(g, q))
                    assert (mono == 0) == (want == 0)
                    assert mono == pytest.approx(want, rel=1e-12)
            assert np.array_equal(E[-n:], (tm.Q.T == 1.0).astype(float))


# The ascent writes the candidates' monomials into one buffer; that path
# must give the bits of the allocating one, which is exp(t * log_monomials).
def test_buffered_monomials_match_allocating():
    rng = np.random.default_rng(5)
    for n, k in ((2, 16), (3, 4), (5, 3), (8, 2), (16, 2)):
        tm = term_matrix(n, k)
        G = rng.dirichlet(np.ones(n), size=40)
        G[::4, 0] = 0.0
        G[1::4, -1] = 1e-300
        G = np.vstack([G / G.sum(axis=1, keepdims=True), np.eye(n)])
        out = np.full((len(G), len(tm.c)), np.nan)
        L = tm.log_monomials(G)
        assert tm.log_monomials(G, out) is out
        assert np.array_equal(out, L)
        for t in (1.0, 2.5, k + 1.0):
            E = tm.monomials(G, t)
            assert np.array_equal(E, np.exp(t * L))
            out.fill(np.nan)
            assert tm.monomials(G, t, out) is out
            assert np.array_equal(out, E)


def test_objective_binary_critical_value():
    for k in (2, 3, 5, 8):
        t = math.log2(2 * k + 2)
        assert objective(2, k, t, (0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_objective_uniform_ternary():
    for t in (1.5, 2.0, 2.7):
        expect = 19.0 * 3.0 ** (-t)
        assert objective(3, 2, t, [1 / 3] * 3) == pytest.approx(expect, rel=1e-12)


def test_objective_point_mass_is_one():
    for n in (2, 3, 4):
        for j in range(n):
            g = [0.0] * n
            g[j] = 1.0
            assert objective(n, 3, 2.2, g) == 1.0


def test_objective_validation():
    with pytest.raises(ValueError):
        objective(3, 2, 0.0, [1 / 3] * 3)
    with pytest.raises(ValueError):
        objective(3, 2, -1.0, [1 / 3] * 3)
    with pytest.raises(ValueError):
        objective(3, 2, 2.0, [0.5, 0.6, -0.1])
    with pytest.raises(ValueError):
        objective(3, 2, 2.0, [0.5, 0.4, 0.2])


def test_ternary_check_examples():
    assert ternary_objective_check(2, 2.5, 1.0, 0.0, 0.0) == pytest.approx(1.0)
    t = 2.3
    assert ternary_objective_check(2, t, 1 / 3, 1 / 3, 1 / 3) == pytest.approx(
        19.0 * 3.0 ** (-t), rel=1e-12
    )


def test_ternary_check_matches_generic_objective():
    rng = random.Random(29)
    for _ in range(50):
        raw = [rng.random() + 1e-9 for _ in range(3)]
        s = sum(raw)
        x, y, z = (v / s for v in raw)
        for k, t in ((3, 3.0), (2, 2.5), (5, 4.0)):
            direct = ternary_objective_check(k, t, x, y, z)
            generic = objective(3, k, t, (x, y, z))
            assert direct == pytest.approx(generic, rel=1e-12)


@given(
    st.integers(2, 4),
    st.integers(2, 3),
    st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=4),
    st.floats(0.3, 3.9),
    st.floats(0.3, 3.9),
)
@settings(max_examples=80)
def test_objective_nonincreasing_in_t(n, k, raw, t1, t2):
    raw = (raw * n)[:n]
    s = sum(raw)
    g = [v / s for v in raw]
    t1, t2 = sorted((t1, t2))
    assert objective(n, k, t1, g) >= objective(n, k, t2, g) - 1e-12


@given(
    st.integers(2, 5),
    st.integers(2, 3),
    st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    st.floats(0.4, 3.9),
)
@settings(max_examples=80)
def test_objective_reflection_symmetric(n, k, raw, t):
    raw = raw[:n]
    s = sum(raw)
    if s <= 0:
        raw = [1.0] * n
        s = float(n)
    g = [v / s for v in raw]
    v1 = objective(n, k, t, g)
    v2 = objective(n, k, t, g[::-1])
    assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda: enumerate_tuple_classes(1),
    lambda: term_groups(1, 2),
    lambda: term_groups(2, 0),
    # Refused before any arithmetic: at t = inf a vertex would value NaN.
    lambda: objective(3, 2, math.inf, (0.0, 0.0, 1.0)),
], ids=["classes-n1", "groups-n1", "groups-k0", "objective-t-inf"])
def test_input_checks(call):
    with pytest.raises(ValueError):
        call()
