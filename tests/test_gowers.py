import math
import random
from functools import lru_cache
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gcube.gowers import (
    K_RECURSION_MAX,
    GowersSystem,
    _coder,
    _discard_imag,
    energy_E,
    energy_E_tilde,
    energy_P,
    gowers_inner_product,
    gowers_norm,
    gowers_norm_pow,
    gowers_norm_recursive,
)
from gcube.lattice import (
    CubeSet,
    LatticeFunction,
    delta,
    indicator,
    interval_set,
    lp_norm,
    tensor_power,
)
from gcube.terms import objective


def random_function(rng, dim=1, width=5, max_size=6):
    pts = list(product(range(width), repeat=dim))
    size = rng.randint(1, max_size)
    supp = rng.sample(pts, min(size, len(pts)))
    return LatticeFunction(
        dim,
        {p: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for p in supp},
    )


def random_cube_set(rng, dim=1, width=5, max_size=6):
    pts = list(product(range(width), repeat=dim))
    size = rng.randint(1, max_size)
    return CubeSet(dim, width, frozenset(rng.sample(pts, min(size, len(pts)))))


def test_inner_product_of_deltas():
    for k in (1, 2, 3):
        sys = GowersSystem.constant(delta(), k)
        assert gowers_inner_product(sys) == pytest.approx(1.0)


def test_inner_product_binary_square():
    f = indicator([(0,), (1,)])
    val = gowers_inner_product(GowersSystem.constant(f, 2))
    assert val.real == pytest.approx(6.0, rel=1e-12)
    assert val.imag == pytest.approx(0.0, abs=1e-12)


def test_inner_product_with_zero_function():
    f = indicator([(0,), (1,)])
    fns = {eps: f for eps in product((0, 1), repeat=2)}
    fns[(0, 1)] = LatticeFunction(1, {})
    assert gowers_inner_product(GowersSystem(2, fns)) == 0j


def test_system_validation():
    f = indicator([(0,), (1,)])
    with pytest.raises(ValueError):
        GowersSystem(2, {(0, 0): f, (1, 1): f})
    mixed = {eps: f for eps in product((0, 1), repeat=2)}
    mixed[(1, 0)] = delta(2)
    with pytest.raises(ValueError):
        GowersSystem(2, mixed)


def test_norm_pow_examples():
    b = indicator([(0,), (1,)])
    assert gowers_norm_pow(b, 2) == pytest.approx(6.0, rel=1e-12)
    assert gowers_norm_pow(b, 3) == pytest.approx(8.0, rel=1e-12)
    t = indicator([(0,), (1,), (2,)])
    assert gowers_norm_pow(t, 2) == pytest.approx(19.0, rel=1e-12)
    c = LatticeFunction(1, {(0,): 0.5 - 0.25j})
    for k in (1, 2, 3):
        assert gowers_norm_pow(c, k) == pytest.approx(abs(0.5 - 0.25j) ** 2 ** k)
    with pytest.raises(ValueError):
        gowers_norm_pow(b, 0)


def test_norm_pow_matches_inner_product_of_constant_system():
    rng = random.Random(7)
    for _ in range(10):
        k = rng.choice((2, 3))
        f = random_function(rng, width=4)
        val = gowers_inner_product(GowersSystem.constant(f, k))
        assert val.real == pytest.approx(gowers_norm_pow(f, k), rel=1e-9, abs=1e-12)


def test_recursive_examples():
    b = indicator([(0,), (1,)])
    assert gowers_norm_recursive(b, 2) == pytest.approx(6.0, rel=1e-12)
    for k in (1, 2, 3, 4):
        assert gowers_norm_recursive(delta(), k) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gowers_norm_recursive(b, 0)


def test_recursive_matches_brute_force():
    rng = random.Random(11)
    for _ in range(60):
        dim = rng.choice((1, 2))
        k = rng.choice((2, 3))
        f = random_function(rng, dim=dim)
        a = gowers_norm_pow(f, k)
        b = gowers_norm_recursive(f, k)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_energy_P_examples():
    for d in (1, 2, 3):
        cube = CubeSet(d, 2, frozenset(product((0, 1), repeat=d)))
        for k in (2, 3, 4):
            assert energy_P(cube, k) == (2 * k + 2) ** d
    assert energy_P(CubeSet(1, 3, frozenset()), 2) == 0
    assert energy_P(CubeSet(1, 3, frozenset([(1,)])), 2) == 1
    assert energy_P(interval_set(3), 2) == 19
    with pytest.raises(ValueError):
        energy_P(interval_set(2), 1)


def test_energy_E_examples():
    assert energy_E(interval_set(2), 3) == 20 == math.comb(6, 3)
    assert energy_E(CubeSet(1, 4, frozenset([(2,)])), 2) == 1
    assert energy_E(interval_set(3), 2) == 19


def test_energy_E_tilde_examples():
    for k in range(2, 9):
        assert energy_E_tilde(interval_set(2), k) == 2 ** k + 2
    assert energy_E_tilde(CubeSet(1, 4, frozenset([(2,)])), 3) == 1


def brute_force_tilde_k2(A):
    pts = sorted(A.members)
    count = 0
    for a1 in pts:
        for a2 in pts:
            for a3 in pts:
                for a4 in pts:
                    if all(x - y == z - w for x, y, z, w in zip(a1, a2, a3, a4)):
                        count += 1
    return count


def test_tilde_matches_quadruple_brute_force():
    rng = random.Random(3)
    for _ in range(20):
        A = random_cube_set(rng, max_size=5)
        assert energy_E_tilde(A, 2) == brute_force_tilde_k2(A)


def test_k2_energies_agree_exhaustively():
    universe = [(j,) for j in range(5)]
    for mask in range(1, 2 ** 5):
        members = frozenset(p for i, p in enumerate(universe) if mask >> i & 1)
        A = CubeSet(1, 5, members)
        e = energy_E(A, 2)
        assert energy_P(A, 2) == e
        assert energy_E_tilde(A, 2) == e


def test_norm_pow_equals_energy_P_on_random_sets():
    rng = random.Random(5)
    for _ in range(30):
        dim = rng.choice((1, 2))
        k = rng.choice((2, 3))
        A = random_cube_set(rng, dim=dim)
        approx = gowers_norm_pow(A.indicator(), k)
        assert abs(approx - energy_P(A, k)) < 0.5


def test_gowers_cauchy_schwarz_random_systems():
    rng = random.Random(13)
    for _ in range(25):
        k = rng.choice((2, 3))
        fns = {
            eps: random_function(rng, width=4, max_size=4)
            for eps in product((0, 1), repeat=k)
        }
        lhs = abs(gowers_inner_product(GowersSystem(k, fns)))
        rhs = 1.0
        for eps in sorted(fns):
            rhs *= gowers_norm(fns[eps], k)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_triangle_inequality_random():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.choice((2, 3))
        f1 = random_function(rng, width=4, max_size=4)
        f2 = random_function(rng, width=4, max_size=4)
        assert gowers_norm(f1 + f2, k) <= gowers_norm(f1, k) + gowers_norm(f2, k) + 1e-9


def test_tensor_multiplicativity_of_box_norms():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.choice((2, 3))
        d = rng.choice((1, 2, 3))
        g = random_function(rng, width=2, max_size=2)
        lhs = gowers_norm_recursive(tensor_power(g, d), k)
        rhs = gowers_norm_recursive(g, k) ** d
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_norm_bounded_by_critical_lp_norm():
    rng = random.Random(23)
    for _ in range(30):
        k = rng.choice((2, 3))
        size = rng.randint(1, 6)
        supp = rng.sample(range(-3, 7), size)
        f = LatticeFunction(1, {(s,): rng.uniform(0.05, 2.0) for s in supp})
        p = 2 ** k / (k + 1)
        assert gowers_norm(f, k) <= lp_norm(f, p) * (1 + 1e-9)


def test_d0_norm():
    scalar = LatticeFunction(0, {(): 2.0})
    assert gowers_norm_pow(scalar, 2) == pytest.approx(16.0)
    assert gowers_norm_recursive(scalar, 2) == pytest.approx(16.0)


def test_recursion_depth_limit():
    assert gowers_norm_recursive(delta(), K_RECURSION_MAX) == 1.0
    assert energy_P(interval_set(2), K_RECURSION_MAX) == 2 * K_RECURSION_MAX + 2
    with pytest.raises(ValueError):
        gowers_norm_recursive(delta(), K_RECURSION_MAX + 1)
    with pytest.raises(ValueError):
        energy_P(interval_set(2), K_RECURSION_MAX + 1)


@pytest.mark.parametrize("call", [
    lambda k: energy_P(interval_set(3), k),
    lambda k: energy_E(interval_set(3), k),
    lambda k: energy_E_tilde(interval_set(3), k),
    lambda k: gowers_norm_recursive(delta(), k),
    lambda k: gowers_norm(delta(), k),
    lambda k: gowers_norm_pow(delta(), k),
    lambda k: GowersSystem(k, {(0, 0): delta(), (0, 1): delta(),
                               (1, 0): delta(), (1, 1): delta()}),
], ids=["energy_P", "energy_E", "energy_E_tilde", "gowers_norm_recursive", "gowers_norm",
        "gowers_norm_pow", "GowersSystem"])
@pytest.mark.parametrize("k", [2.5, 2.0, 1.5, True])
def test_k_must_be_an_int(call, k):
    with pytest.raises(ValueError, match="^k must be an integer, got "):
        call(k)
    call(2)


def test_norm_matches_objective_identity():
    # p * t = 2^k: with f(j) = g(j)^(t / 2^k) on {0, ..., n-1}, the box sum
    # ||f||_{U^k}^{2^k} is the objective at (t, g).
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 6)
        k = rng.randint(2, 4)
        t = rng.uniform(1.0, k + 1.0)
        w = [rng.random() if rng.random() > 0.2 else 0.0 for _ in range(n)]
        w[rng.randrange(n)] += 0.5
        g = [x / sum(w) for x in w]
        f = LatticeFunction(1, {(j,): g[j] ** (t / 2 ** k) for j in range(n)})
        assert gowers_norm_recursive(f, k) == pytest.approx(
            objective(n, k, t, g), rel=1e-12
        )


# Tuple-keyed evaluators as they were before the integer coding; the coded
# ones must reproduce them bit for bit.

def _ref_u1_sq(entries):
    s = 0j
    for p in sorted(entries):
        s += entries[p]
    return abs(s) ** 2


def _ref_norm_pow_recursive(entries, k, d):
    if k == 1:
        return _ref_u1_sq(entries)
    keys = sorted(entries)
    diffs = sorted({tuple(p[j] - q[j] for j in range(d)) for p in keys for q in keys})
    total = 0.0
    for h in diffs:
        shifted = {}
        for x in keys:
            xh = tuple(x[j] + h[j] for j in range(d))
            v = entries.get(xh)
            if v is not None:
                shifted[x] = v.conjugate() * entries[x]
        if shifted:
            total += _ref_norm_pow_recursive(shifted, k - 1, d)
    return total


def _ref_inner_product(system):
    k = system.k
    fns = system.functions
    d = system.dim
    base = fns[(0,) * k].entries
    if not base:
        return 0j
    eps_list = [(eps, sum(eps) % 2) for eps in product((0, 1), repeat=k)]
    unit_supports = []
    for i in range(k):
        e_i = tuple(1 if j == i else 0 for j in range(k))
        unit_supports.append(sorted(fns[e_i].entries))
    total = 0j
    for a in sorted(base):
        h_ranges = [
            [tuple(p[j] - a[j] for j in range(d)) for p in sup]
            for sup in unit_supports
        ]
        for hs in product(*h_ranges):
            term = 1 + 0j
            for eps, odd in eps_list:
                vertex = tuple(
                    a[j] + sum(hs[i][j] for i in range(k) if eps[i]) for j in range(d)
                )
                v = fns[eps].entries.get(vertex)
                if v is None:
                    term = 0j
                    break
                term *= v.conjugate() if odd else v
            total += term
    return total


def _bits(z):
    # Equal floats that also agree in the sign of zero; NaN is never drawn.
    return [(x, math.copysign(1.0, x)) for x in (z.real, z.imag)]


_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


_BASES = st.sampled_from([0, -3, 2 ** 40, -(2 ** 40)])


@st.composite
def _functions(draw, dim, max_size, base=None, reach=5):
    # Support points within `reach` of a base point that may lie far from
    # the origin on either side, with exact zeros in the real or imaginary
    # parts.
    if base is None:
        base = [draw(_BASES) for _ in range(dim)]
    pts = draw(st.lists(
        st.tuples(*[st.integers(-reach, reach) for _ in range(dim)]),
        max_size=max_size,
    ))
    return LatticeFunction(dim, {
        tuple(b + c for b, c in zip(base, p)): complex(draw(_PARTS), draw(_PARTS))
        for p in pts
    })


@st.composite
def _norm_cases(draw):
    dim = draw(st.integers(0, 3))
    k = draw(st.integers(1, 4))
    return draw(_functions(dim, 5 if k < 4 else 4)), k


@settings(max_examples=200, deadline=None)
@given(_norm_cases())
def test_recursive_bit_identical_to_tuple_reference(case):
    f, k = case
    want = _ref_norm_pow_recursive(f.entries, k, f.dim)
    got = gowers_norm_recursive(f, k)
    assert got == want and _bits(complex(got)) == _bits(complex(want))


def test_single_points_bit_identical_to_tuple_reference():
    for d in range(4):
        for c in (0, -7, 2 ** 40):
            f = LatticeFunction(d, {(c,) * d: -0.75 + 0.0j})
            for k in range(1, 5):
                assert gowers_norm_recursive(f, k) == _ref_norm_pow_recursive(
                    f.entries, k, d
                )


def test_codes_do_not_alias_vertices_or_differences():
    # With span 4 and a radix of only 6, the vertex (1,0) + 2 * ((0,4) - (1,0))
    # = (-1, 8) and the point (0, 2) share a code, and so do the differences
    # (0, 4) and (1, -2).  The coder's radix keeps all of them apart.
    fns = {
        (0, 0): LatticeFunction(2, {(1, 0): 1.5j}),
        (1, 0): LatticeFunction(2, {(0, 4): 2.0}),
        (0, 1): LatticeFunction(2, {(0, 4): -1.0}),
        (1, 1): LatticeFunction(2, {(0, 2): 0.5, (0, 0): 3.0}),
    }
    system = GowersSystem(2, fns)
    assert gowers_inner_product(system) == _ref_inner_product(system) == 0j
    f = LatticeFunction(2, {(0, 0): 1.0, (0, 4): 0.5 - 1j, (1, 2): -2.0})
    for k in (2, 3):
        assert gowers_norm_recursive(f, k) == _ref_norm_pow_recursive(f.entries, k, 2)


@st.composite
def _systems(draw):
    # Functions on a small common box, so that box vertices often land on
    # support points, each drawn on its own (empty, or far off and so
    # disjoint, at times) or repeating the base function.
    dim = draw(st.integers(0, 3))
    k = draw(st.integers(1, 4))
    size = 3 if k < 4 else 2
    base = [draw(_BASES) for _ in range(dim)]
    f = draw(_functions(dim, size, base, 2))
    fns = {}
    for eps in product((0, 1), repeat=k):
        kind = draw(st.sampled_from(["same", "near", "far"]))
        fns[eps] = (f if kind == "same" else draw(
            _functions(dim, size, base if kind == "near" else None, 2)
        ))
    return GowersSystem(k, fns)


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_inner_product_bit_identical_to_tuple_reference(system):
    got = gowers_inner_product(system)
    want = _ref_inner_product(system)
    assert got == want and _bits(got) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda d: st.lists(
        st.tuples(*[st.sampled_from([-(2 ** 40), -2, 0, 1, 5, 2 ** 40])] * d),
        min_size=1, max_size=6,
    )),
    st.integers(2, 4),
)
def test_coder_orders_points_and_differences(points, reach):
    code = _coder(points, reach)
    coded = {p: code(p) for p in points}
    assert sorted(points, key=coded.get) == sorted(points)
    diffs = {(tuple(a - b for a, b in zip(p, q)), coded[p] - coded[q])
             for p in points for q in points}
    assert len({h for h, _ in diffs}) == len({c for _, c in diffs}) == len(diffs)
    assert sorted(diffs) == sorted(diffs, key=lambda hc: hc[1])
    for x, (h, c) in product(points, diffs):
        # x + h is a point exactly when the coded sum is that point's code.
        xh = tuple(a + b for a, b in zip(x, h))
        assert (xh in coded) == (coded[x] + c in coded.values())


# Set energies as they were before the integer coding: coordinate tuples,
# each intersection re-canonicalized by sorting.  The coded ones must
# return the same integers.

def _ref_canonical(points):
    pts = [tuple(p) for p in points]
    if not pts:
        return ()
    d = len(pts[0])
    mins = tuple(min(p[j] for p in pts) for j in range(d))
    return tuple(sorted(tuple(c - m for c, m in zip(p, mins)) for p in pts))


@lru_cache(maxsize=8192)
def _ref_count_boxes(canon_pts, k):
    if not canon_pts:
        return 0
    if k == 1:
        return len(canon_pts) ** 2
    pts = set(canon_pts)
    d = len(canon_pts[0])
    diffs = sorted({tuple(p[j] - q[j] for j in range(d)) for p in pts for q in pts})
    total = 0
    for h in diffs:
        inter = frozenset(
            x for x in pts if tuple(x[j] + h[j] for j in range(d)) in pts
        )
        if inter:
            total += _ref_count_boxes(_ref_canonical(inter), k - 1)
    return total


def _ref_energy_P(A, k):
    return _ref_count_boxes(_ref_canonical(A.members), k)


def _ref_energy_E_tilde(A, k):
    diffs = {}
    for p in A.members:
        for q in A.members:
            z = tuple(a - b for a, b in zip(p, q))
            diffs[z] = diffs.get(z, 0) + 1
    return sum(r ** k for r in diffs.values())


@st.composite
def _cube_sets(draw, max_size=8):
    # Subsets of a cube of side up to 60, clustered within 4 of a base
    # point so that intersections are often large, or empty, or one point.
    dim = draw(st.integers(0, 3))
    base = [draw(st.integers(0, 50)) for _ in range(dim)]
    pts = draw(st.lists(
        st.tuples(*[st.integers(0, 4) for _ in range(dim)]), max_size=max_size,
    ))
    return CubeSet(dim, 60, frozenset(
        tuple(b + c for b, c in zip(base, p)) for p in pts
    ))


@settings(max_examples=300, deadline=None)
@given(_cube_sets(), st.integers(2, 5))
def test_set_energies_equal_tuple_reference(A, k):
    assert energy_P(A, k) == _ref_energy_P(A, k)
    assert energy_E_tilde(A, k) == _ref_energy_E_tilde(A, k)


def test_set_energies_of_empty_sets_and_single_points():
    for d in range(4):
        for c in (0, 9):
            A = CubeSet(d, 10, frozenset([(c,) * d]))
            for k in range(2, 6):
                assert energy_P(A, k) == energy_E_tilde(A, k) == 1
        empty = CubeSet(d, 10, frozenset())
        for k in range(2, 6):
            assert energy_P(empty, k) == energy_E_tilde(empty, k) == 0


def _brute_force_boxes(A, k):
    # Every (a, h_1, ..., h_k) with each a + h_i in A, counted when all 2^k
    # vertices a + sum_{i in eps} h_i lie in A.
    pts = A.members
    count = 0
    for a in pts:
        steps = [tuple(x - y for x, y in zip(p, a)) for p in pts]
        for hs in product(steps, repeat=k):
            if all(
                tuple(a[j] + sum(h[j] for h, e in zip(hs, eps) if e)
                      for j in range(A.dim)) in pts
                for eps in product((0, 1), repeat=k)
            ):
                count += 1
    return count


def _brute_force_tilde(A, k):
    # Every k-tuple of pairs (a_i, b_i) in A^2 with one common a_i - b_i.
    pairs = [(p, q) for p in A.members for q in A.members]
    diff = [tuple(x - y for x, y in zip(p, q)) for p, q in pairs]
    return sum(
        1 for idx in product(range(len(pairs)), repeat=k)
        if len({diff[i] for i in idx}) == 1
    )


@settings(max_examples=60, deadline=None)
@given(_cube_sets(max_size=6), st.integers(2, 3))
def test_set_energies_equal_brute_force(A, k):
    assert energy_P(A, k) == _brute_force_boxes(A, k)
    assert energy_E_tilde(A, k) == _brute_force_tilde(A, k)


def test_box_counts_do_not_leak_between_calls():
    # Alternating calls on sets of different spans and dimensions, each
    # coded with its own radix, and a set next to its translate inside a
    # larger cube: every call must count its own set, whatever came before.
    A = frozenset([(0, 0), (1, 0), (0, 1), (3, 2), (1, 1)])
    sets = [
        CubeSet(2, 4, A),
        CubeSet(2, 20, frozenset((x + 11, y + 7) for x, y in A)),
        CubeSet(1, 9, frozenset([(0,), (1,), (3,), (8,)])),
        CubeSet(1, 3, frozenset([(0,), (1,), (2,)])),
        CubeSet(3, 3, frozenset([(0, 0, 0), (1, 2, 0), (2, 2, 2), (0, 1, 1)])),
        CubeSet(2, 3, frozenset([(0, 0), (0, 1), (2, 2)])),
        CubeSet(1, 12, frozenset([(0,), (2,), (3,), (11,)])),
    ]
    for _ in range(3):
        for k in (2, 3, 4, 3):
            for S in sets:
                assert energy_P(S, k) == _ref_energy_P(S, k)
    assert energy_P(sets[0], 3) == energy_P(sets[1], 3)


def test_sets_with_equal_codes_have_equal_energies():
    # {0,1} x {0,1,2} codes to the integers {0, 1, 2, 7, 8, 9}.  Coding keeps
    # every x + y = z + w, and those decide both energies, so the plane set
    # and the line set of its codes have the same counts.
    plane = CubeSet(2, 3, frozenset(product(range(2), range(3))))
    line = CubeSet(1, 10, frozenset((x,) for x in (0, 1, 2, 7, 8, 9)))
    code = _coder(plane.members, 2)
    assert sorted(code(p) for p in plane.members) == sorted(x for x, in line.members)
    for k in (2, 3, 4):
        assert energy_P(plane, k) == energy_P(line, k) == _ref_energy_P(plane, k)
        assert energy_E_tilde(plane, k) == energy_E_tilde(line, k)


def test_energy_k_limits():
    # energy_P's limits are in test_energy_P_examples and
    # test_recursion_depth_limit.
    A = interval_set(2)
    for energy in (energy_E, energy_E_tilde):
        for k in (1, K_RECURSION_MAX + 1):
            with pytest.raises(ValueError):
                energy(A, k)
    assert energy_E_tilde(A, K_RECURSION_MAX) == 2 ** K_RECURSION_MAX + 2


# energy_E as it was before the big-integer power: k - 1 dict convolutions
# on coordinate tuples, then the sum of the squared counts.  The power must
# return the same integers.

def _ref_convolve_entries(a, b):
    out = {}
    ys = sorted(b)
    for x in sorted(a):
        ax = a[x]
        for y in ys:
            z = tuple(p + q for p, q in zip(x, y))
            out[z] = out.get(z, 0) + ax * b[y]
    return out


def _ref_energy_E(A, k):
    if not A.members:
        return 0
    base = {p: 1 for p in A.members}
    conv = base
    for _ in range(k - 1):
        conv = _ref_convolve_entries(conv, base)
    return sum(c * c for c in conv.values())


@settings(max_examples=200, deadline=None)
@given(_cube_sets(max_size=6), st.integers(2, 8))
def test_energy_E_equals_convolution_reference(A, k):
    assert energy_E(A, k) == _ref_energy_E(A, k)


def test_energy_E_of_empty_sets_and_single_points():
    for d in range(4):
        for k in range(2, 9):
            assert energy_E(CubeSet(d, 10, frozenset()), k) == 0
            for c in (0, 9):
                assert energy_E(CubeSet(d, 10, frozenset([(c,) * d])), k) == 1


def test_energy_E_sums_of_codes_do_not_carry():
    # Spans above k: codes of reach k - 1 would carry here, and (0, 4) +
    # (0, 4) would share a code with (1, 0) + (0, 2).
    A = CubeSet(2, 5, frozenset([(0, 4), (1, 0), (0, 2)]))
    assert energy_E(A, 2) == _ref_energy_E(A, 2) == 15
    rng = random.Random(16)
    for d in (2, 3):
        for _ in range(10):
            A = random_cube_set(rng, dim=d, width=10, max_size=7)
            for k in (2, 3):
                assert energy_E(A, k) == _ref_energy_E(A, k)


# 14 points of {0, ..., 15}: at k = 256 each count takes 122 bytes and the
# power 0.47 MB.  The reference's k = 256 value (it took 12 s) is pinned by
# its bit length and its residue modulo 2^127 - 1.
_LINE14 = CubeSet(1, 16, frozenset(
    (x,) for x in (0, 1, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15)
))
_LINE14_E256 = (1942, 13311950547755603027467156720391559854)


def test_energy_E_at_large_k_equals_convolution_reference():
    assert energy_E(_LINE14, 64) == _ref_energy_E(_LINE14, 64)
    e = energy_E(_LINE14, 256)
    assert (e.bit_length(), e % (2 ** 127 - 1)) == _LINE14_E256


def _brute_force_E(A, k):
    # Every 2k-tuple of points whose first k and last k entries have equal
    # coordinatewise sums.
    pts = sorted(A.members)
    return sum(
        1 for t in product(pts, repeat=2 * k)
        if all(sum(p[j] for p in t[:k]) == sum(p[j] for p in t[k:])
               for j in range(A.dim))
    )


@settings(max_examples=60, deadline=None)
@given(_cube_sets(max_size=4), st.integers(2, 3))
def test_energy_E_equals_brute_force(A, k):
    assert energy_E(A, k) == _brute_force_E(A, k)


def test_discard_imag_rejects_imaginary_residue():
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        _discard_imag(1 + 1j)
