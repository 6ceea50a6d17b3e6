"""Named verification suites behind the `verify` subcommand.

Each suite runs a batch of deterministic checks (exhaustive where the
range is finite, seeded random trials otherwise) and returns a report
listing any counterexamples.  No suite and no check takes a parameter:
`gcube verify --suite S` runs each over one fixed range.

- binary: k = 2, ..., 10 on a 10,000-point grid of [0, 1], tolerance 1e-12.
- terms: the coefficient multisets at n = 3, k in {2, 3, 5}; the largest
  class size for n = 2, ..., 7; the coefficient sum and the uniform-point
  identity for n = 2, ..., 5, k = 2, 3, 4; then the objective's
  monotonicity in t (seed 1300) and reflection symmetry (seed 1301).
- entropy: H_m, its bounds and the ratio H_m / m for m = 1, ..., 1000; the
  leading coefficient table n = 2, ..., 6; the corollary for n = 2, ..., 8.
- majorization: the majorization lemma for m <= 4, |h_i| <= 4.
- gcs: the Gowers-Cauchy-Schwarz bound (seed 1100) and the triangle
  inequality (seed 1200).
- young: the convolution norm bound (seed 1400).
- tensor: box-norm multiplicativity of tensor powers (seed 1500).

Every randomized check runs TRIALS trials from `random.Random(seed)`.
"""

from __future__ import annotations

import math
import random
from itertools import product as _product

import numpy as np

from .asymptotics import leading_coefficient
from .entropy import (
    VerificationReport,
    binomial_entropies,
    binomial_entropy,
    binomial_entropy_bounds,
    verify_entropy_corollary,
    verify_majorization_lemma,
)
from .gowers import (
    GowersSystem,
    gowers_inner_product,
    gowers_norm_recursive,
    energy_P,
)
from .lattice import LatticeFunction, convolve, interval_set, lp_norm, tensor_power
from .terms import enumerate_tuple_classes, objective, term_groups

TABLE_VALUES = {
    2: 1.0,
    3: 1.3333333333,
    4: 1.6562889815,
    5: 1.9698232317,
    6: 2.2745961522,
}

# Trials of every randomized check.
TRIALS = 200


def binary_suite():
    """Grid check of x^t + (1-x)^t + 2k (x(1-x))^(t/2) <= 1 on [0, 1] at
    t = log2(2k+2), with exact value 1 at x = 1/2."""
    rep = VerificationReport("binary")
    tol = 1e-12
    xs = np.linspace(0.0, 1.0, 10_000)
    for k in range(2, 11):
        t = math.log2(2 * k + 2)
        vals = xs ** t + (1.0 - xs) ** t + 2 * k * (xs * (1.0 - xs)) ** (t / 2.0)
        peak = float(vals.max())
        rep.record(peak <= 1.0 + tol, "k={}: grid maximum {!r} exceeds 1", k, peak)
        mid = 2.0 * 0.5 ** t + 2 * k * 0.25 ** (t / 2.0)
        rep.record(abs(mid - 1.0) <= tol, "k={}: value at 1/2 is {!r}", k, mid)
    return rep


def terms_suite():
    """Coefficient audit, class sizes, the uniform-point identity, and the
    random monotonicity and reflection properties of the objective."""
    rep = VerificationReport("terms")
    for k in (2, 3, 5):
        multiset = sorted(term_groups(3, k)[1])
        expected = sorted([1, 1, 1, 2 * k, 2 * k, 2 * k, 2 * k * (k - 1)])
        rep.record(
            multiset == expected,
            "k={}: coefficient multiset {} != {}", k, multiset, expected,
        )
    for n in range(2, 8):
        size = len(enumerate_tuple_classes(n)[-1])
        rep.record(size == 2 ** (n - 1), "n={}: largest class has {} tuples", n, size)
    for n in range(2, 6):
        for k in range(2, 5):
            pk = energy_P(interval_set(n), k)
            total = sum(term_groups(n, k)[1])
            rep.record(
                total == pk, "n={}, k={}: coefficients sum to {} != {}", n, k, total, pk
            )
            for t in (1.7, 2.5, float(k + 1)):
                expect = pk * n ** (-t)
                val = objective(n, k, t, [1.0 / n] * n)
                rep.record(
                    abs(val - expect) <= 1e-12 * expect,
                    "n={}, k={}, t={}: uniform value {!r} != {!r}",
                    n, k, t, val, expect,
                )
    merge(rep, check_objective_monotone())
    merge(rep, check_objective_symmetry())
    return rep


def entropy_suite():
    """Exact small entropies, strict two-sided bounds and strict ratio
    decrease, the leading coefficient table, and the exhaustive small-side
    corollary checks."""
    rep = VerificationReport("entropy")
    rep.record(binomial_entropy(1) == 1.0, "H_1 != 1")
    rep.record(binomial_entropy(2) == 1.5, "H_2 != 3/2")
    prev = None
    for m, h in enumerate(binomial_entropies(1000), 1):
        lo, hi = binomial_entropy_bounds(m)
        rep.record(lo < h < hi, "m={}: H_m={!r} outside ({!r}, {!r})", m, h, lo, hi)
        ratio = h / m
        if prev is not None:
            rep.record(ratio < prev, "m={}: H_m/m not strictly decreasing", m)
        prev = ratio
    for n, v in TABLE_VALUES.items():
        got = leading_coefficient(n)
        rep.record(abs(got - v) <= 1e-9, "n={}: coefficient {!r} != {}", n, got, v)
    for n in range(2, 9):
        merge(rep, verify_entropy_corollary(n))
    return rep


def majorization_suite():
    # Reads verify_majorization_lemma from this module's globals at call
    # time, so a wrapper set there sees the call.
    return verify_majorization_lemma(4, 4)


def merge(rep, other):
    rep.cases += other.cases
    rep.failures.extend(other.failures)
    return rep


def _random_function(rng, width):
    # Complex values with magnitude in [0.1, 1.1] on a random nonempty
    # subset of {0, ..., width - 1}.
    while True:
        entries = {}
        for x in range(width):
            if rng.random() < 0.7:
                mag = 0.1 + rng.random()
                phase = rng.uniform(0.0, 2.0 * math.pi)
                entries[(x,)] = complex(mag * math.cos(phase), mag * math.sin(phase))
        if entries:
            return LatticeFunction(1, entries)


def check_gcs():
    """|Gowers inner product| <= product of the 2^k individual norms."""
    rep = VerificationReport("gcs")
    rng = random.Random(1100)
    for i in range(TRIALS):
        k = rng.choice((2, 3))
        fns = {eps: _random_function(rng, 4) for eps in _product((0, 1), repeat=k)}
        lhs = abs(gowers_inner_product(GowersSystem(k, fns)))
        rhs = 1.0
        for eps in sorted(fns):
            rhs *= gowers_norm_recursive(fns[eps], k) ** (0.5 ** k)
        rep.record(
            lhs <= rhs * (1.0 + 1e-9) + 1e-12,
            "trial {} (k={}): inner product {!r} exceeds bound {!r}", i, k, lhs, rhs,
        )
    return rep


def check_triangle():
    rep = VerificationReport("triangle")
    rng = random.Random(1200)
    for i in range(TRIALS):
        k = rng.choice((2, 3))
        f1 = _random_function(rng, 4)
        f2 = _random_function(rng, 4)
        lhs = gowers_norm_recursive(f1 + f2, k) ** (0.5 ** k)
        rhs = (
            gowers_norm_recursive(f1, k) ** (0.5 ** k)
            + gowers_norm_recursive(f2, k) ** (0.5 ** k)
        )
        rep.record(
            lhs <= rhs * (1.0 + 1e-9) + 1e-12,
            "trial {} (k={}): triangle fails, {!r} > {!r}", i, k, lhs, rhs,
        )
    return rep


def gcs_suite():
    return merge(check_gcs(), check_triangle())


def check_young():
    """Convolution norm bound over random admissible exponent triples."""
    rep = VerificationReport("young")
    rng = random.Random(1400)
    for i in range(TRIALS):
        f = _random_function(rng, 5)
        g = _random_function(rng, 5)
        inv_r = rng.random()
        s = 1.0 + inv_r
        inv_p = rng.uniform(s - 1.0, 1.0)
        inv_q = s - inv_p
        p = math.inf if inv_p == 0 else 1.0 / inv_p
        q = math.inf if inv_q <= 0 else 1.0 / inv_q
        r = math.inf if inv_r == 0 else 1.0 / inv_r
        lhs = lp_norm(convolve(f, g), r)
        rhs = lp_norm(f, p) * lp_norm(g, q)
        rep.record(
            lhs <= rhs * (1.0 + 1e-9) + 1e-12,
            "trial {} (p={}, q={}, r={}): {!r} > {!r}", i, p, q, r, lhs, rhs,
        )
    return rep


def check_tensor():
    """Box-norm multiplicativity of tensor powers, d <= 3."""
    rep = VerificationReport("tensor")
    rng = random.Random(1500)
    for i in range(TRIALS):
        k = rng.choice((2, 3))
        d = rng.choice((1, 2, 3))
        g = _random_function(rng, 2)
        lhs = gowers_norm_recursive(tensor_power(g, d), k)
        rhs = gowers_norm_recursive(g, k) ** d
        rep.record(
            abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs)),
            "trial {} (k={}, d={}): {!r} != {!r}", i, k, d, lhs, rhs,
        )
    return rep


def check_objective_monotone():
    rep = VerificationReport("objective-monotone")
    rng = random.Random(1300)
    for i in range(TRIALS):
        n = rng.choice((2, 3, 4))
        k = rng.choice((2, 3))
        raw = [rng.random() + 1e-3 for _ in range(n)]
        total = sum(raw)
        g = [x / total for x in raw]
        t1, t2 = sorted((rng.uniform(0.2, k + 1.0), rng.uniform(0.2, k + 1.0)))
        v1 = objective(n, k, t1, g)
        v2 = objective(n, k, t2, g)
        rep.record(
            v1 >= v2 - 1e-12,
            "trial {} (n={}, k={}): value rose from t={} to t={}", i, n, k, t1, t2,
        )
    return rep


def check_objective_symmetry():
    rep = VerificationReport("objective-symmetry")
    rng = random.Random(1301)
    for i in range(TRIALS):
        n = rng.choice((2, 3, 4, 5))
        k = rng.choice((2, 3))
        raw = [rng.random() for _ in range(n)]
        total = sum(raw)
        g = [x / total for x in raw]
        t = rng.uniform(0.5, k + 1.0)
        v1 = objective(n, k, t, g)
        v2 = objective(n, k, t, g[::-1])
        rep.record(
            abs(v1 - v2) <= 1e-12 * (1.0 + abs(v1)),
            "trial {} (n={}, k={}): reflection changed {!r} to {!r}", i, n, k, v1, v2,
        )
    return rep


SUITES = {
    "binary": binary_suite,
    "terms": terms_suite,
    "entropy": entropy_suite,
    "majorization": majorization_suite,
    "gcs": gcs_suite,
    "young": check_young,
    "tensor": check_tensor,
}
