"""Reference computations made apart from gcube.

Nothing here imports gcube.  Each function computes, from the definition
and by a different method than the package, a value that a gcube command
prints, so the benchmark can check every output it times.  All of it runs
outside the timed regions.

- Box counts P_k come from the difference recursion on dense boolean
  arrays over the cyclic group Z_N^d with N = 2 * side, large enough that
  no box wraps around, and for the full interval from a closed form.
- Norm powers ||f||_{U^k}^{2^k} come from the same recursion on dense
  complex arrays.
- E_k and the common-difference energy come from dense integer
  convolution and correlation.
- The simplex objective is written from its definition, with every q
  vector enumerated over the sign vectors eps.
- Verification-suite check counts are derived from the suites' own
  definitions.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# ---------------------------------------------------------------- box counts


def l1_sphere_size(k, s):
    """Number of h in Z^k with |h_1| + ... + |h_k| = s."""
    if s == 0:
        return 1
    # Choose the j nonzero coordinates, their signs, and a composition of s
    # into j positive parts.
    return sum(
        math.comb(k, j) * 2 ** j * math.comb(s - 1, j - 1)
        for j in range(1, min(k, s) + 1)
    )


def interval_box_count(n, k):
    """P_k({0, ..., n-1}): a box with steps h fits in the interval for
    exactly max(0, n - |h|_1) base points a."""
    return sum((n - s) * l1_sphere_size(k, s) for s in range(n))


def _dense(points, d, side, dtype, values=None):
    arr = np.zeros((2 * side,) * d, dtype=dtype)
    for i, p in enumerate(points):
        arr[tuple(p)] = 1 if values is None else values[i]
    return arr


def _shifts(d, side):
    return list(product(range(2 * side), repeat=d))


def _roll(stack, h):
    # stack[:, x] -> stack[:, x + h] on the cyclic group.
    axes = tuple(range(1, stack.ndim))
    return np.roll(stack, tuple(-c for c in h), axis=axes)


def box_count(points, d, side, k):
    """P_k(A) for A inside {0, ..., side-1}^d.

    P_k(B) = sum over h of P_{k-1}(B and (B - h)), P_1(B) = |B|^2, on dense
    boolean arrays over Z_N^d.  Identical intersections are merged with
    their multiplicities at every level, so the count stays exact in
    integers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not points:
        return 0
    stack = _dense(points, d, side, bool)[None]
    mult = np.ones(1, dtype=np.int64)
    shifts = _shifts(d, side)
    for _ in range(k - 1):
        rows, weights = [], []
        for h in shifts:
            inter = stack & _roll(stack, h)
            keep = inter.reshape(len(inter), -1).any(axis=1)
            if keep.any():
                rows.append(inter[keep])
                weights.append(mult[keep])
        flat = np.concatenate(rows).reshape(-1, (2 * side) ** d)
        uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
        merged = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(merged, inverse.ravel(), np.concatenate(weights))
        stack = uniq.reshape((len(uniq),) + (2 * side,) * d)
        mult = merged
    sizes = stack.reshape(len(stack), -1).sum(axis=1)
    return sum(int(m) * int(s) ** 2 for m, s in zip(mult, sizes))


def norm_power(points, values, d, side, k):
    """||f||_{U^k}^{2^k} for f supported in {0, ..., side-1}^d.

    Each level replaces f by f(x) conj(f(x + h)) for every h of Z_N^d and
    the last one sums |sum_x f(x)|^2; all-zero arrays are dropped."""
    if k < 1:
        raise ValueError("k must be >= 1")
    stack = _dense(points, d, side, complex, values)[None]
    shifts = _shifts(d, side)
    for _ in range(k - 1):
        parts = []
        for h in shifts:
            prod = stack * np.conj(_roll(stack, h))
            keep = prod.reshape(len(prod), -1).any(axis=1)
            if keep.any():
                parts.append(prod[keep])
        stack = np.concatenate(parts)
    sums = stack.reshape(len(stack), -1).sum(axis=1)
    return float(np.sum(np.abs(sums) ** 2))


# ---------------------------------------------------------------- energies


def _check_fits(points, k):
    # Every count below is at most |A|^(2k); keep it inside int64.
    if len(points) ** (2 * k) >= 2 ** 62:
        raise ValueError("set too large for int64 energy counts")


def energy_E(points, d, side, k):
    """Sum of squares of the k-fold self-convolution of 1_A."""
    _check_fits(points, k)
    base = np.zeros((side,) * d, dtype=np.int64)
    for p in points:
        base[tuple(p)] = 1
    conv = base
    for _ in range(k - 1):
        out = np.zeros(tuple(s + side - 1 for s in conv.shape), dtype=np.int64)
        for p in points:
            out[tuple(slice(c, c + s) for c, s in zip(p, conv.shape))] += conv
        conv = out
    return int(np.sum(conv * conv))


def energy_E_tilde(points, d, side, k):
    """Sum over z of r(z)^k, r(z) = #{(a, b) in A^2 : a - b = z}, from the
    dense autocorrelation of 1_A."""
    _check_fits(points, k)
    base = np.zeros((side,) * d, dtype=np.int64)
    for p in points:
        base[tuple(p)] = 1
    total = 0
    for z in product(range(-(side - 1), side), repeat=d):
        lo = tuple(slice(max(0, c), side + min(0, c)) for c in z)
        hi = tuple(slice(max(0, -c), side + min(0, -c)) for c in z)
        r = int(np.sum(base[lo] * base[hi]))
        total += r ** k
    return total


# ---------------------------------------------------------------- objective


def objective_terms(n, k):
    """(coefficients, Q) of the simplex objective, from its definition.

    One diagonal term g(j)^t per j, and for every l >= 1 and every tuple
    (a, h_1, ..., h_l) of nonzero steps whose whole box a + eps . h stays in
    {0, ..., n-1}, the weight C(k, l) and the vector q_j = 2^-l
    #{eps in {0,1}^l : a + eps . h = j}."""
    coeffs = [1.0] * n
    rows = [np.eye(n)[j] for j in range(n)]
    steps = [v for v in range(-(n - 1), n) if v != 0]
    for l in range(1, min(k, n - 1) + 1):
        weight = math.comb(k, l)
        for h in product(steps, repeat=l):
            lo = sum(v for v in h if v < 0)
            hi = sum(v for v in h if v > 0)
            for a in range(-lo, n - hi):
                q = np.zeros(n)
                for eps in product((0, 1), repeat=l):
                    q[a + sum(v for v, e in zip(h, eps) if e)] += 1.0
                coeffs.append(float(weight))
                rows.append(q / 2 ** l)
    return np.array(coeffs), np.array(rows)


def objective(terms, t, G):
    """Objective at exponent t on interior simplex points, one per row."""
    c, Q = terms
    return np.exp(t * (np.log(G) @ Q.T)) @ c


def _objective_grad(terms, t, G):
    c, Q = terms
    W = np.exp(t * (np.log(G) @ Q.T)) * c
    return t * (W @ Q) / G


def best_point(terms, n, t, rng, samples=4000, starts=16, iters=400):
    """Own search for a maximizer of the objective at t.

    Dirichlet samples (with their reflections, since the objective is
    symmetric), then exponentiated-gradient ascent from the best of them
    with a per-start step size.  Returns (value, point)."""
    G = np.vstack([
        rng.dirichlet(np.ones(n), size=samples),
        rng.dirichlet(np.full(n, 4.0), size=samples),
    ])
    G = np.vstack([G, G[:, ::-1], np.full((1, n), 1.0 / n)])
    G = np.clip(G, 1e-300, None)
    vals = objective(terms, t, G)
    G = G[np.argsort(vals)[::-1][:starts]]
    vals = objective(terms, t, G)
    step = np.full(len(G), 0.5)
    for _ in range(iters):
        grad = _objective_grad(terms, t, G)
        cand = G * np.exp(step[:, None] * (grad - (G * grad).sum(axis=1, keepdims=True)))
        cand = np.clip(cand / cand.sum(axis=1, keepdims=True), 1e-300, None)
        cvals = objective(terms, t, cand)
        up = cvals > vals
        G[up], vals[up] = cand[up], cvals[up]
        step = np.where(up, step * 1.5, step * 0.3)
        if step.max() < 1e-14:
            break
    i = int(np.argmax(vals))
    return float(vals[i]), G[i]


def sampled_max(terms, n, t, rng, extra=(), samples=20000):
    """Largest objective value at t over Dirichlet samples plus the given
    extra interior points."""
    G = np.vstack([rng.dirichlet(np.ones(n), size=samples)]
                  + [np.asarray(x, dtype=float)[None] for x in extra])
    return float(objective(terms, t, np.clip(G, 1e-300, None)).max())


# ---------------------------------------------------------------- suites


def suite_check_counts():
    """Checks each verification suite records, from its definition."""
    corollary = sum(3 ** (n - 1) - 1 for n in range(2, 9))
    return {
        # k = 2..10, a grid peak and a midpoint value each.
        "binary": 2 * 9,
        # Coefficient multisets for 3 values of k, class sizes for n = 2..7,
        # a coefficient sum and 3 uniform values per (n, k) in 4 x 3, and
        # 200 monotonicity plus 200 reflection trials.
        "terms": 3 + 6 + 4 * 3 * (1 + 3) + 200 + 200,
        # H_1, H_2, bounds for m = 1..1000, 999 ratio steps, 5 table rows,
        # and one check per nonzero h with |h|_1 <= n-1 for n = 2..8 (there
        # are 3^(n-1) - 1 of them).
        "entropy": 2 + 1000 + 999 + 5 + corollary,
        # Three checks per coefficient vector in {+-1, ..., +-4}^m, m <= 4.
        "majorization": 3 * sum(8 ** m for m in range(1, 5)),
        # 200 inner-product trials and 200 triangle trials.
        "gcs": 400,
        "young": 200,
        "tensor": 200,
    }
