import math
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np

import gcube.solver as solver_module
import gcube.terms as terms_module
from conftest import BENCH_POINTS, solve_cached
from gcube.solver import (
    ExponentPair,
    SolverConfig,
    check_problem,
    gaussian_witness,
    max_objective,
    profile_to_simplex,
    solve_exponent,
    trivial_bounds,
    witness_lower_bound,
)
from gcube.terms import _SIMPLEX_TOL, TermMatrix, objective, term_matrix, ternary_objective_check

LOG2_6 = math.log2(6)
LOG3_19 = math.log(19) / math.log(3)


def test_max_objective_binary_at_critical_t():
    value, argmax = max_objective(2, 2, LOG2_6)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert argmax[0] == pytest.approx(0.5, abs=1e-6)
    value, _ = max_objective(2, 3, 3.0)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_max_objective_ternary_above_critical_t():
    value, _ = max_objective(3, 2, 3.0)
    assert value <= 1.0 + 1e-12
    assert value == pytest.approx(1.0, abs=1e-12)  # vertices attain exactly 1


# No row of the pool rises above 1 at the trivial bound t = k + 1, so the
# value is the vertices' exact 1 and the argmax the smallest vertex.
@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("k", [2, 5])
def test_max_objective_at_trivial_bound_is_smallest_vertex(n, k):
    assert max_objective(n, k, k + 1) == (1.0, (0.0,) * (n - 1) + (1.0,))


# At k = 1023 and t = 1024 every monomial of some pool rows underflows.
# Such a row has no EM step and stays where it is, with no 0 / 0 on the
# way, which the warnings-as-errors filter would turn into a failure.
@pytest.mark.parametrize("n", [3, 33])
def test_max_objective_keeps_rows_valued_zero(n):
    pool = solver_module._start_pool(n, 1023, SolverConfig())
    assert (term_matrix(n, 1023).values(pool, 1024.0) == 0).any()
    assert max_objective(n, 1023, 1024.0) == (1.0, (0.0,) * (n - 1) + (1.0,))


# The cold pool has no vertex rows: the five structured seeds and the
# random starts, 13 rows at every n.
@pytest.mark.parametrize("n", [2, 8, 24])
def test_start_pool_rows_independent_of_n(n):
    pool = solver_module._start_pool(n, 2, SolverConfig())
    assert pool.shape == (5 + solver_module._MULTISTARTS, n) == (13, n)


def test_solve_binary_golden_values():
    pair = solve_cached(2, 2)
    assert pair.t == pytest.approx(LOG2_6, abs=1e-6)
    pair = solve_cached(2, 3)
    assert pair.t == pytest.approx(3.0, abs=1e-6)
    pair = solve_cached(2, 5)
    assert pair.t == pytest.approx(math.log2(12), abs=1e-6)


def test_solve_ternary_golden_values():
    pair = solve_cached(3, 2)
    assert pair.t == pytest.approx(2.7207109973, abs=1e-6)
    assert pair.p == pytest.approx(1.4702039297, abs=1e-6)


def test_exponent_pair_invariants():
    pair = solve_cached(3, 2)
    assert pair.p * pair.t == pytest.approx(4.0, rel=1e-12)
    assert pair.bracket <= 1e-9 + 1e-15
    assert pair.t <= pair.k + 1


def test_monotone_in_n():
    for k in (2, 3):
        ts = [solve_cached(n, k).t for n in (2, 3, 4, 5)]
        for a, b in zip(ts, ts[1:]):
            assert a <= b + 1e-6


def test_k_step_bound():
    for n in (2, 3):
        assert solve_cached(n, 3).t <= solve_cached(n, 2).t + 1.0 + 1e-6


def test_witness_uniform_ternary():
    assert witness_lower_bound(3, 2, [1 / 3] * 3) == pytest.approx(LOG3_19, abs=1e-9)


def test_witness_binary_sharp():
    assert witness_lower_bound(2, 2, (0.5, 0.5)) == pytest.approx(LOG2_6, abs=1e-9)


def _ternary_root(k, g, lo=1e-9, hi=10.0):
    # Independent root finder on the closed-form side-3 objective.
    x, y, z = g
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if ternary_objective_check(k, mid, x, y, z) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_witness_middle_heavy_ternary():
    g = (0.25, 0.5, 0.25)
    value = witness_lower_bound(3, 2, g)
    assert value == pytest.approx(_ternary_root(2, g), abs=1e-9)
    assert value == pytest.approx(2.7195461221, abs=1e-8)  # frozen at build time
    assert LOG3_19 < value < solve_cached(3, 2).t


def test_witness_root_by_newton(monkeypatch):
    g = (0.25, 0.5, 0.25)
    want = _ternary_root(2, g)
    cold = witness_lower_bound(3, 2, g)
    assert type(cold) is float
    assert abs(cold - want) <= 1e-12
    # A start where the objective is not above 1 falls back to the cold one;
    # at 1e6 every monomial underflows.
    for start in (3.0, 1e6):
        assert witness_lower_bound(3, 2, g, start) == cold
    # From just below the root a few steps suffice.
    monkeypatch.setattr(solver_module, "_ROOT_STEPS", 4)
    assert abs(witness_lower_bound(3, 2, g, want - 1e-6) - want) <= 1e-12
    monkeypatch.setattr(solver_module, "_ROOT_STEPS", 1)
    with pytest.raises(ArithmeticError):
        witness_lower_bound(3, 2, g)


@pytest.mark.parametrize("k", [2, 3, 16, 1023])
def test_binary_witness_root_to_the_ulp(k):
    want = math.log2(2 * k + 2)
    assert abs(witness_lower_bound(2, k, (0.5, 0.5)) - want) <= math.ulp(want)


def test_witness_rejects_point_mass():
    with pytest.raises(ValueError):
        witness_lower_bound(3, 2, (0.0, 1.0, 0.0))


def test_nan_and_non_simplex_points_rejected():
    nan = float("nan")
    with pytest.raises(ValueError):
        objective(2, 2, 2.0, (nan, 1.0))
    with pytest.raises(ValueError):
        witness_lower_bound(3, 2, (nan, 0.5, 0.5))


def test_witness_below_solver_value():
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        t = solve_cached(n, k).t
        uniform = [1.0 / n] * n
        assert witness_lower_bound(n, k, uniform) <= t + 1e-6
        binom = [math.comb(n - 1, j) / 2 ** (n - 1) for j in range(n)]
        if n > 1 and max(binom) < 1:
            assert witness_lower_bound(n, k, binom) <= t + 1e-6


def test_trivial_bounds_examples():
    lo, hi = trivial_bounds(3, 2)
    assert lo == pytest.approx(LOG3_19, rel=1e-12)
    assert hi == 3.0
    lo, hi = trivial_bounds(2, 2)
    assert lo == pytest.approx(LOG2_6, rel=1e-12)
    assert hi == 3.0
    lo, hi = trivial_bounds(2, 3)
    assert lo == pytest.approx(3.0, rel=1e-12)
    assert hi == 4.0


def test_trivial_bounds_above_box_count_recursion():
    # Past the box-count recursion's k <= 256: P_k is 2k + 2 on {0, 1} and
    # 2k^2 + 4k + 3 on {0, 1, 2}, by counting h with |h|_1 < n.
    for k in (300, 1023):
        lo, hi = trivial_bounds(2, k)
        assert lo == pytest.approx(math.log2(2 * k + 2), rel=1e-12)
        assert hi == k + 1
        lo, _ = trivial_bounds(3, k)
        assert lo == pytest.approx(math.log(2 * k * k + 4 * k + 3, 3), rel=1e-12)


def test_trivial_bounds_sandwich_solver():
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 2)):
        lo, hi = trivial_bounds(n, k)
        t = solve_cached(n, k).t
        assert lo - 1e-6 <= t <= hi + 1e-6


def test_gaussian_profile_values():
    f = gaussian_witness(2, 2.0)
    assert f[0] == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert f[1] == 1.0
    assert gaussian_witness(4, 3.0)[2] == 1.0  # exponent vanishes at m = n/2
    with pytest.raises(ValueError):
        gaussian_witness(3, 1.0)
    with pytest.raises(ValueError):
        gaussian_witness(1, 2.0)
    # At M = inf no entry is positive.
    with pytest.raises(ValueError):
        gaussian_witness(3, math.inf)


def test_profile_to_simplex():
    g = profile_to_simplex(gaussian_witness(5, 2.0), 1.5)
    assert sum(g) == pytest.approx(1.0, abs=1e-12)
    assert all(v > 0 for v in g)
    # 2^16 / 17 powers the raw profile to zero everywhere; scaling the peak
    # to 1 first keeps the two peak masses.
    profile = gaussian_witness(3, 3.0)
    assert max(profile) ** (2 ** 16 / 17) == 0.0
    g = profile_to_simplex(profile, 2 ** 16 / 17)
    assert sum(g) == pytest.approx(1.0, abs=1e-12)
    assert g == pytest.approx((0.0, 0.5, 0.5), abs=1e-9)


@pytest.mark.parametrize("profile, power, message", [
    ([-1.0, 2.0], 1.0, "finite and nonnegative"),
    ([1.0, math.nan], 1.0, "finite and nonnegative"),
    ([1.0, math.inf], 1.0, "finite and nonnegative"),
    ([0.0, 0.0], 1.0, "no mass"),
    ([1.0, 0.5], math.nan, "power"),
    ([1.0, 0.0], -1.0, "power"),
    ([1.0, 0.0], 0.0, "power"),
    ([1.0, 0.5], math.inf, "power"),
], ids=["negative", "nan", "inf", "no-positive", "power-nan", "power-negative",
        "power-zero", "power-inf"])
def test_profile_to_simplex_rejects_bad_profiles(profile, power, message):
    # Checked before any arithmetic, so no numpy warning comes first.
    with pytest.raises(ValueError, match=message):
        profile_to_simplex(profile, power)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_solver_config_rejects_seed(seed):
    # random.Random takes -s as the stream of s and accepts a float, so the
    # config checks the seed itself, before any solve.
    with pytest.raises(ValueError, match="rng_seed"):
        SolverConfig(rng_seed=seed)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_solver_config_rejects_nonfinite_tolerance(tol):
    # A NaN passes a plain `tol <= 0` check, and a solve with it stopped on
    # a bracket 0.28 wide.
    with pytest.raises(ValueError, match="t_tolerance"):
        SolverConfig(t_tolerance=tol)


@pytest.mark.parametrize("tol", [True, "1e-9", None])
def test_solver_config_rejects_non_numeric_tolerance(tol):
    # A bool is an int and 0 < True < inf holds: a solve at (3, 2) with
    # t_tolerance=True stopped on a bracket 0.28 wide.
    with pytest.raises(ValueError, match="t_tolerance"):
        SolverConfig(t_tolerance=tol)


@pytest.mark.parametrize("field,value", [
    ("p", math.nan), ("bracket", -1e-10), ("bracket", math.nan),
    ("bracket", math.inf), ("t", True), ("p", "1.5"), ("argmax", (1.0,)),
    ("argmax", (0.5, math.nan)), ("argmax", (True, False)),
    pytest.param("t", 10**400, id="t-int-past-float"),
    pytest.param("bracket", 10**400, id="bracket-int-past-float"),
    pytest.param("argmax", (10**400, 0.5), id="argmax-int-past-float"),
])
def test_exponent_pair_rejects(field, value):
    t = math.log2(6)
    fields = dict(k=2, n=2, t=t, p=4.0 / t, bracket=1e-10, argmax=(0.5, 0.5))
    ExponentPair(**fields)
    with pytest.raises(ValueError):
        ExponentPair(**{**fields, field: value})


def test_check_problem_bounds_the_term_table(monkeypatch):
    cfg = SolverConfig()
    # The largest admitted n at k = 2, 3 and 1023, and the next n.
    for n, k in ((99, 2), (63, 3), (33, 1023)):
        check_problem(n, k, cfg)
        with pytest.raises(ValueError, match="term table"):
            check_problem(n + 1, k, cfg)
    # At a huge n the closed-form lower bound refuses before the count runs.
    monkeypatch.setattr(terms_module, "_term_rows", None)
    with pytest.raises(ValueError, match="term table"):
        check_problem(100_000, 2, cfg)


# Every library path to a term table passes through term_groups, which
# refuses a table above the bound before its walk starts.
@pytest.mark.parametrize("call", [
    lambda n: objective(n, 2, 2.0, [1 / n] * n),
    lambda n: term_matrix(n, 2),
    lambda n: max_objective(n, 2, 2.0),
    lambda n: witness_lower_bound(n, 2, [1 / n] * n),
    lambda n: trivial_bounds(n, 2),
], ids=["objective", "term_matrix", "max_objective", "witness_lower_bound",
        "trivial_bounds"])
def test_entry_points_refuse_a_table_above_the_bound(monkeypatch, call):
    def no_walk(*args):
        raise AssertionError("the walk ran above the bound")

    monkeypatch.setattr(terms_module, "_magnitude_multisets", no_walk)
    bound = f"above the {terms_module.TERM_TABLE_BYTES_MAX}-byte bound"
    with pytest.raises(ValueError, match=bound):
        call(160)


def test_concurrent_solves_match_serial():
    # Every buffer a solve writes belongs to its own ascent, so solves on
    # several threads give the serial bits.
    points = [(3, 4), (6, 2), (2, 16), (8, 2)]
    serial = [solve_exponent(n, k) for n, k in points]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda nk: solve_exponent(*nk), points))
    assert threaded == serial


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_tolerance=0.0)
    with pytest.raises(ValueError):
        solve_exponent(1, 2)
    with pytest.raises(ValueError):
        solve_exponent(2, 1)
    with pytest.raises(ValueError):
        max_objective(2, 2, 0.0)
    with pytest.raises(ValueError):
        max_objective(3, 2, math.inf)


@pytest.mark.parametrize("n,k", [(3, 4), (4, 2)])
def test_argmax_is_interior_symmetric_witness(n, k):
    pair = solve_cached(n, k)
    g = pair.argmax
    assert max(g) < 1.0 - 1e-6
    for a, b in zip(g, reversed(g)):
        assert a == pytest.approx(b, abs=1e-6)
    root = witness_lower_bound(n, k, g)
    assert abs(root - pair.t) <= SolverConfig().t_tolerance


def _record_probes(monkeypatch):
    # The t of every maximization the solver runs.
    calls = []
    inner = solver_module._probe

    def counted(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_probe", counted)
    return calls


@pytest.mark.parametrize("n", [3, 4])
def test_witness_loop_call_count(monkeypatch, n):
    calls = _record_probes(monkeypatch)
    pair = solve_exponent(n, 2)
    assert len(calls) <= 10
    assert pair.t not in calls  # no maximization runs at the returned t


# Each probe starts from the batch the previous one ended with, so the
# rows keep their places across the solve, and every batch has the same 13
# rows at every n: the structured seeds and the random starts, the cold
# pool with no row appended.
@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (3, 16)])
def test_probes_carry_the_batch(monkeypatch, n, k):
    batches = []
    inner = solver_module._probe

    def recorded(n, k, t, G):
        out = inner(n, k, t, G)
        batches.append((G.copy(), out[2]))
        return out

    monkeypatch.setattr(solver_module, "_probe", recorded)
    cfg = SolverConfig()
    solve_exponent(n, k, cfg)
    assert len(batches) >= 2
    first = batches[0][0]
    assert np.array_equal(first, solver_module._start_pool(n, k, cfg))
    for (_, end), (start, _) in zip(batches, batches[1:]):
        assert np.array_equal(start, end)
    for start, end in batches:
        assert start.shape == end.shape == (5 + solver_module._MULTISTARTS, n) == (13, n)


# Evaluations per solve at seed 0, capped just above today's counts (34,
# 64, 73 and 19).  Every SQUAREM cycle values its three points once each
# through TermMatrix.monomials, every ascent values its start batch once
# more, and each structured seed after the first that is not a point mass
# is valued once at the lower end: 4 seeds at k = 2 and 1 at (2, 16), whose
# Gaussian seeds are point masses.  At (2, 2) a solve is one certifying
# probe of 10 cycles and at (2, 16) one of 6; at n = 3 and 6 it is three
# probes, of 8, 7 and 5 and of 11, 8 and 4 cycles.  The caps are keyed by
# (n, k), so that a tightened cap keeps the test's id.
_EVALUATION_CAPS = {(2, 2): 36, (3, 2): 67, (6, 2): 77, (2, 16): 21}


@pytest.mark.parametrize("n,k", list(_EVALUATION_CAPS))
def test_ascent_iterations_per_solve(monkeypatch, n, k):
    calls = {"monomials": 0, "ascents": 0}
    monomials, ascend = TermMatrix.monomials, solver_module._ascend

    def counted_monomials(*args, **kwargs):
        calls["monomials"] += 1
        return monomials(*args, **kwargs)

    def counted_ascend(*args):
        calls["ascents"] += 1
        return ascend(*args)

    monkeypatch.setattr(TermMatrix, "monomials", counted_monomials)
    monkeypatch.setattr(solver_module, "_ascend", counted_ascend)
    solve_exponent(n, k, SolverConfig(rng_seed=0))
    assert 0 < calls["monomials"] - calls["ascents"] <= _EVALUATION_CAPS[n, k]


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 16)])
def test_no_maximization_at_bracket_ends(monkeypatch, n, k):
    calls = _record_probes(monkeypatch)
    solve_exponent(n, k)
    assert calls
    assert 1.0 not in calls and float(k + 1) not in calls


@pytest.mark.parametrize("k", [2, 3, 16, 1023])
def test_binary_solve_is_one_probe(monkeypatch, k):
    # The uniform seed is the maximizer at n = 2, so its root already is
    # t(k, 2) = log2(2k + 2) and the first probe certifies it.
    calls = _record_probes(monkeypatch)
    pair = solve_exponent(2, k)
    assert len(calls) == 1
    assert pair.argmax == (0.5, 0.5)
    assert abs(pair.t - math.log2(2 * k + 2)) <= SolverConfig().t_tolerance


def _best_seed(n, k):
    # The structured seed with the largest witness root, point masses skipped.
    pool = solver_module._start_pool(n, k, SolverConfig())
    seeds = [tuple(g) for g in pool[:5] if max(g) < 1.0 - 1e-12]
    return max((witness_lower_bound(n, k, g), g) for g in seeds)


# The structured seeds do not depend on the seed of the random starts, so
# the bench points cover every pool the bench solves from.  (4, 16) and
# (2, 16) have point-mass Gaussian seeds, which have no witness root.
@pytest.mark.parametrize("n,k", sorted({*BENCH_POINTS, (4, 16)}))
def test_lower_end_from_best_seed(monkeypatch, n, k):
    calls = []

    def certify(n, k, t, G):
        calls.append(t)
        return 1.0, tuple(np.eye(n)[0]), G

    monkeypatch.setattr(solver_module, "_probe", certify)
    tol = SolverConfig().t_tolerance
    root, seed = _best_seed(n, k)
    pair = solve_exponent(n, k)
    assert calls == [root + 0.5 * tol]
    assert pair.t - 0.5 * pair.bracket == pytest.approx(root, abs=1e-15)
    assert pair.argmax == seed


# Only a seed valued above 1 at the lower end is rooted.  At (2, 2) the
# uniform seed is the maximizer, so the binomial seed, which is the same
# point, and the Gaussians are at most 1 at its root; rooting every seed
# took 5 calls.
def test_seeds_rooted_only_above_lower_end(monkeypatch):
    calls = []
    inner = solver_module.witness_lower_bound

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(solver_module, "witness_lower_bound", counted)
    monkeypatch.setattr(solver_module, "_probe", lambda n, k, t, G: (1.0, (1.0, 0.0), G))
    solve_exponent(2, 2)
    assert 1 <= len(calls) <= 2


def test_tolerance_below_float_spacing_rejected(monkeypatch):
    def no_max(*args, **kwargs):
        raise AssertionError("maximization ran")

    monkeypatch.setattr(solver_module, "_probe", no_max)
    with pytest.raises(ValueError, match="tolerance"):
        solve_exponent(2, 2, SolverConfig(t_tolerance=1e-17))


def test_k_above_float_range_rejected(monkeypatch):
    def no_max(*args, **kwargs):
        raise AssertionError("maximization ran")

    monkeypatch.setattr(solver_module, "_probe", no_max)
    with pytest.raises(ValueError, match="1023"):
        solve_exponent(2, 1024)


# A witness valued above 1 at a probe has its root above the probe, so a
# root at or below it can only come from two roundings of the objective
# disagreeing.  The loop then moves the lower end to the probe: the solve
# still brackets the true t, at the cost of at most one more probe.
@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (3, 16)])
def test_witness_root_tied_with_its_probe(monkeypatch, n, k):
    calls = _record_probes(monkeypatch)
    want = solve_exponent(n, k)
    unpatched = len(calls)
    calls.clear()
    inner, tied = solver_module.witness_lower_bound, []

    def tie_first(n, k, g, start=solver_module._ROOT_START):
        if start != solver_module._ROOT_START and not tied:
            tied.append(start)
            return start
        return inner(n, k, g, start)

    monkeypatch.setattr(solver_module, "witness_lower_bound", tie_first)
    pair = solve_exponent(n, k)
    assert tied
    assert pair.bracket <= SolverConfig().t_tolerance
    assert abs(pair.t - want.t) <= 0.5 * pair.bracket
    assert len(calls) <= unpatched + 1


def test_side_six_value():
    pair = solve_cached(6, 2)
    assert abs(witness_lower_bound(6, 2, pair.argmax) - pair.t) <= 1e-9
    value, _ = max_objective(6, 2, pair.t + 1e-6)
    assert value <= 1.0 + 1e-12
    assert pair.t == pytest.approx(2.8286209328, abs=1e-8)  # uncapped grid value


# Default-seed values of the solver that still ran the grid and Newton
# stages; n > 10 and k = 3, 4 at n >= 6 are not covered elsewhere.
@pytest.mark.parametrize("n,k,t", [
    (12, 2, 2.8791564855796814),
    (16, 2, 2.8926487556351264),
    (6, 3, 3.5396342696839582),
    (8, 4, 4.2817526396186265),
])
def test_solve_goldens_beyond_bench(n, k, t):
    assert solve_cached(n, k).t == pytest.approx(t, abs=1e-9)


# t at the 19 bench points (the large-k and large-n workloads), seed 0, as
# SOLVER_VERSION 11 found them with plain EM steps.  The SQUAREM ascent
# moves them by at most 7.5e-13 (at (4, 2)), so they are pinned closer
# than the goldens above.
_VERSION_11_T = {
    (2, 2): 2.5849625009711565,
    (2, 3): 3.0000000002500005,
    (2, 4): 3.3219280951373626,
    (2, 6): 3.8073549223076046,
    (2, 8): 4.169925001692312,
    (2, 12): 4.700439718391093,
    (2, 16): 5.08746284150034,
    (3, 2): 2.720710997647167,
    (3, 3): 3.2622134346655476,
    (3, 4): 3.6913211405134034,
    (3, 6): 4.345767353124955,
    (3, 8): 4.836993361661446,
    (3, 12): 5.5561799177565545,
    (3, 16): 6.080097494204915,
    (4, 2): 2.776959449403335,
    (5, 2): 2.8083486887654656,
    (6, 2): 2.828620932818323,
    (7, 2): 2.8429303221503965,
    (8, 2): 2.8536524714462503,
}


@pytest.mark.parametrize("n,k", sorted(_VERSION_11_T))
def test_bench_points_match_version_11(n, k):
    assert solve_cached(n, k).t == pytest.approx(_VERSION_11_T[n, k], abs=1e-11)


def _ref_em_step(G, t, tm, vals):
    # One EM step of every row of G, whose values are vals.
    W = np.exp(t * tm.log_monomials(G)) * tm.c
    return (W @ tm.Q) / vals[:, None]


def _ref_cycle(G, t, tm, vals):
    # The three points of one SQUAREM cycle of every row of G, whose values
    # are vals, each with its values: R(g), R(R(g)) and the jump
    # g + 2 s r + s^2 v with s = |r| / |v| at least 1, and 1 where
    # |v| <= 1e-100 |r|, replaced by R(R(g)) where it has a negative
    # coordinate.
    R1 = _ref_em_step(G, t, tm, vals)
    v1 = tm.values(R1, t)
    R2 = _ref_em_step(R1, t, tm, v1)
    r = R1 - G
    v = (R2 - R1) - r
    nr2, nv2 = (r * r).sum(axis=1), (v * v).sum(axis=1)
    s2 = np.ones_like(nr2)
    np.divide(nr2, nv2, out=s2, where=nv2 > nr2 / solver_module._JUMP_MAX2)
    s2 = np.maximum(s2, 1.0)
    J = G + (2.0 * np.sqrt(s2))[:, None] * r + s2[:, None] * v
    keep = J.min(axis=1) >= 0.0
    J[keep] = J[keep] / J[keep].sum(axis=1)[:, None]
    J[~keep] = R2[~keep]
    return [(R1, v1), (R2, tm.values(R2, t)), (J, tm.values(J, t))]


# The SQUAREM ascent in plain array expressions, evaluating every point
# twice (once for its value, once more for its EM step): the reference for
# the one-evaluation loop.  With settle=False it runs every maximization
# to the cycle cap.
def _ref_ascend(G, t, tm, cycles, settle=True):
    G = G.copy()
    vals = tm.values(G, t)
    best = vals.max()
    flat = 0
    for _ in range(cycles):
        prev_vals = vals.copy()
        for P, vP in _ref_cycle(G, t, tm, vals):
            better = vP > vals
            G[better] = P[better]
            vals[better] = vP[better]
        if not settle:
            continue
        prev, best = best, vals.max()
        if best > 1.0:
            settled = best - prev <= solver_module._SETTLE_RTOL * prev
        else:
            settled = not (vals - prev_vals > solver_module._SETTLE_RTOL * prev_vals).any()
        flat = flat + 1 if settled else 0
        if flat == solver_module._SETTLE_WINDOW:
            break
    return G, vals


@st.composite
def _em_cases(draw):
    # (n, k, t, G): a batch of simplex rows, some coordinates exactly zero
    # and some subnormal, and t in [1, k + 1].
    n = draw(st.integers(2, 16))
    k = draw(st.sampled_from([2, 3, 4, 8, 16]))
    weights = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                       min_size=n, max_size=n).filter(any)
    G = np.array(draw(st.lists(weights, min_size=1, max_size=14)))
    G /= G.sum(axis=1, keepdims=True)
    return n, k, draw(st.floats(1.0, k + 1.0)), G


# Every q row sums to 1, so the step r = (E * c) Q / F lands on the simplex,
# keeps every zero of g, and by Jensen's inequality raises F by at least
# the factor exp(t KL(r || g)).
@settings(max_examples=200, deadline=None)
@given(_em_cases())
def test_em_step_invariants(case):
    n, k, t, G = case
    tm = term_matrix(n, k)
    F = tm.values(G, t)
    R = _ref_em_step(G, t, tm, F)
    assert R.min() >= 0.0
    assert np.abs(R.sum(axis=1) - 1.0).max() <= _SIMPLEX_TOL
    assert np.all(R[G == 0.0] == 0.0)
    support = R > 0.0
    log_r, log_g = np.zeros_like(R), np.zeros_like(G)
    np.log(R, out=log_r, where=support)
    np.log(G, out=log_g, where=support)
    kl = (R * (log_r - log_g)).sum(axis=1)
    FR = tm.values(R, t)
    assert np.all(FR >= F * np.exp(t * kl) * (1.0 - 1e-13))
    # One cycle: each row takes the first of R(g), R(R(g)) and the jump
    # with the highest value, where that is higher than its own.
    got_G, got_vals = solver_module._ascend(G, t, tm, 1)
    points = [(G, F), *_ref_cycle(G, t, tm, F)]
    pick = np.argmax(np.stack([vP for _, vP in points]), axis=0)
    rows = np.arange(len(G))
    assert np.array_equal(got_G, np.stack([P for P, _ in points])[pick, rows])
    assert np.array_equal(got_vals, np.stack([vP for _, vP in points])[pick, rows])


# The jump's safeguards over a few cycles, from rows with exact zeros and
# subnormal coordinates: every row stays on the simplex, finite and
# nonnegative, keeps its zeros and never falls.  An overflowing jump or a
# division by zero would raise a RuntimeWarning, which fails the test.
@settings(max_examples=200, deadline=None)
@given(_em_cases(), st.integers(1, 4))
def test_squarem_cycle_safeguards(case, cycles):
    n, k, t, G = case
    tm = term_matrix(n, k)
    F = tm.values(G, t)
    got_G, got_vals = solver_module._ascend(G, t, tm, cycles)
    assert np.isfinite(got_G).all() and got_G.min() >= 0.0
    assert np.abs(got_G.sum(axis=1) - 1.0).max() <= _SIMPLEX_TOL
    assert np.all(got_G[G == 0.0] == 0.0)
    assert np.all(got_vals >= F)


# Critical exponents to six digits, so the ascent runs where M(t) is
# barely above 1 and the race between the interior and the vertices is
# closest.
_NEAR_CRITICAL = {
    (2, 2): 2.58496, (2, 4): 3.32193, (2, 16): 5.08746,
    (3, 2): 2.72071, (3, 4): 3.69132, (3, 16): 6.08010,
    (5, 2): 2.80835, (5, 4): 4.06247, (5, 16): 7.59828,
    (8, 2): 2.85365, (8, 4): 4.28175, (8, 16): 9.09474,
}


def _pools(n, k):
    # The default pool of max_objective, and a 14-row batch: the pool and
    # one more simplex point, so that an ascent of another shape runs too.
    pool = solver_module._start_pool(n, k, SolverConfig())
    start = np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)
    return pool, np.vstack([pool, start])


# The t values include the solved t plus and minus 1e-6, where the ascent
# certifies and finds a witness, so that both stop rules run.
@pytest.mark.parametrize("n,k", sorted(_NEAR_CRITICAL))
def test_ascent_matches_two_evaluation_reference(n, k):
    tm = term_matrix(n, k)
    cycles = solver_module._ASCENT_CYCLES
    solved = solve_cached(n, k).t
    for t in (1.0, float(k + 1), _NEAR_CRITICAL[n, k], solved + 1e-6, solved - 1e-6):
        for G in _pools(n, k):
            want_G, want_vals = _ref_ascend(G, t, tm, cycles)
            got_G, got_vals = solver_module._ascend(G, t, tm, cycles)
            assert np.array_equal(got_G, want_G), (n, k, t, len(G))
            assert np.array_equal(got_vals, want_vals), (n, k, t, len(G))


# The ascent ends at its first settled cycle in which no row moved, since
# every later cycle would repeat it.  At these points the certifying probe
# of a solve at seed 0 reaches such a cycle before the reference, which has
# no such stop, runs out its 5 settled cycles, so it makes fewer
# evaluations with the same bits.
@pytest.mark.parametrize("n,k", [(2, 16), (16, 2)])
def test_certifying_ascent_stops_at_fixed_point(monkeypatch, n, k):
    probes = []
    inner = solver_module._probe

    def recorded(n, k, t, G):
        probes.append((t, G.copy()))
        return inner(n, k, t, G)

    monkeypatch.setattr(solver_module, "_probe", recorded)
    solve_exponent(n, k, SolverConfig(rng_seed=0))
    t, G = probes[-1]
    calls = [0]
    monomials = TermMatrix.monomials

    def counted_monomials(*args, **kwargs):
        calls[0] += 1
        return monomials(*args, **kwargs)

    monkeypatch.setattr(TermMatrix, "monomials", counted_monomials)
    tm = term_matrix(n, k)
    cycles = solver_module._ASCENT_CYCLES
    got_G, got_vals = solver_module._ascend(G, t, tm, cycles)
    got_calls, calls[0] = calls[0], 0
    want_G, want_vals = _ref_ascend(G, t, tm, cycles)
    assert got_vals.max() <= 1.0
    assert np.array_equal(got_G, want_G) and np.array_equal(got_vals, want_vals)
    assert got_calls < calls[0]


def _best(G, vals):
    # The best value of an ascended batch and the smallest row tied at it.
    best = vals.max()
    return best, np.array(min(tuple(g) for g in G[vals == best]))


def _reported_at_one(G, vals):
    # The argmax max_objective reports for an ascended batch whose rows all
    # value at most 1: the smallest of the rows at exactly 1 and the vertex
    # (0, ..., 0, 1).
    n = G.shape[1]
    tied = [tuple(g) for g in G[vals == 1.0]] + [(0.0,) * (n - 1) + (1.0,)]
    return np.array(min(tied))


# Where no row rises above 1 the ascent certifies M(t) <= 1, and the probe
# reports exactly 1.  The settle rule may end it before the iteration cap, but
# with the same verdict and argmax as the loop without the rule, and every
# row's value close to where that loop leaves it.
@pytest.mark.parametrize("n,k", sorted(_NEAR_CRITICAL))
def test_certifying_ascent_unchanged_by_settle_rule(n, k):
    tm = term_matrix(n, k)
    cycles = solver_module._ASCENT_CYCLES
    for t in (float(k + 1), solve_cached(n, k).t + 1e-6):
        for G in _pools(n, k):
            want_G, want_vals = _ref_ascend(G, t, tm, cycles, settle=False)
            assert want_vals.max() <= 1.0, (n, k, t)
            _, got_vals = solver_module._ascend(G, t, tm, cycles)
            assert got_vals.max() <= 1.0, (n, k, t, len(G))
            got_val, got_g, _ = solver_module._probe(n, k, t, G)
            assert got_val == 1.0, (n, k, t, len(G))
            assert np.array_equal(got_g, _reported_at_one(want_G, want_vals)), (n, k, t, len(G))
            assert np.abs(got_vals - want_vals).max() <= 1e-15, (n, k, t, len(G))


# Some six-digit values lie just above the critical exponent, so the solved
# t - 1e-6 is checked too: there the best value is above 1 and the rule stops
# the ascent early.
@pytest.mark.parametrize("n,k", sorted(_NEAR_CRITICAL))
def test_settled_witness_matches_full_ascent(n, k):
    tm = term_matrix(n, k)
    below = solve_cached(n, k).t - 1e-6
    cycles = solver_module._ASCENT_CYCLES
    for t in (_NEAR_CRITICAL[n, k], below):
        for G in _pools(n, k):
            want_val, want_g = _best(*_ref_ascend(G, t, tm, cycles, settle=False))
            got_val, got_g = _best(*solver_module._ascend(G, t, tm, cycles))
            assert want_val > 1.0 or t != below, (n, k)
            assert got_val == pytest.approx(want_val, rel=1e-14, abs=0), (n, k, t)
            assert np.abs(got_g - want_g).max() <= 1e-6, (n, k, t, len(G))
