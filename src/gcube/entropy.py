"""Shannon entropy of finite integer distributions, signed Bernoulli sums,
majorization, Karamata comparison, and the exhaustive entropy verifiers.

The module owns signed Bernoulli sums: iter_signed_vectors enumerates their
coefficient vectors and signed_sum_counts counts the 2^m sign vectors
reaching each sum.  Exact work is done on those integer counts (denominator
2^m); Fractions exist only in returned values such as pmf_signed_sum, and
entropies are evaluated in floating point at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as _product

_SUM_TOL = 1e-12


def _is_exact(v):
    return isinstance(v, (int, Fraction))


def _check_total(masses):
    # Exact masses must sum to exactly 1, float ones to within _SUM_TOL.
    tol = 0 if all(_is_exact(m) for m in masses) else _SUM_TOL
    if abs(sum(masses) - 1) > tol:
        raise ValueError("masses must sum to 1")


@dataclass(frozen=True)
class PMFVector:
    """Probability mass function on consecutive integers starting at
    support_offset; first and last mass are nonzero, interior zeros allowed."""

    support_offset: int
    masses: tuple

    def __post_init__(self):
        masses = tuple(self.masses)
        if not masses:
            raise ValueError("empty mass list")
        if masses[0] == 0 or masses[-1] == 0:
            raise ValueError("first and last mass must be nonzero")
        if any(m < 0 for m in masses):
            raise ValueError("negative mass")
        _check_total(masses)
        object.__setattr__(self, "masses", masses)

    def translate(self, shift: int):
        return PMFVector(self.support_offset + shift, self.masses)


def iter_signed_vectors(budget, l):
    """All l-tuples of nonzero integers with sum of |h_i| <= budget,
    in ascending lexicographic order."""
    if l == 0:
        yield ()
        return
    max_mag = budget - (l - 1)
    for v in range(-max_mag, max_mag + 1):
        if v == 0:
            continue
        for rest in iter_signed_vectors(budget - abs(v), l - 1):
            yield (v,) + rest


def entropy_bits(masses) -> float:
    """Entropy in bits of a mass sequence summing to 1 (0 log 0 = 0)."""
    _check_total(masses)
    h = 0.0
    for m in masses:
        m = float(m)
        if m > 0.0:
            h -= m * math.log2(m)
    return h


def entropy(p: PMFVector) -> float:
    """Shannon entropy of a PMF in bits; zero exactly for a point mass."""
    return entropy_bits(p.masses)


@lru_cache(maxsize=4096)
def binomial_entropy(m: int) -> float:
    """Entropy H_m of the symmetric binomial distribution B(m, 1/2)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m <= 1020:
        denom = float(2 ** m)
        c = 1
        h = 0.0
        for j in range(m // 2 + 1):
            p = c / denom
            term = -p * math.log2(p)
            h += term if 2 * j == m else 2.0 * term
            c = c * (m - j) // (j + 1)
        return h
    # Large m: avoid float overflow of 2^m by working with log2 of counts.
    c = 1
    h = 0.0
    for j in range(m // 2 + 1):
        lg = math.log2(c) - m
        term = -(2.0 ** lg) * lg
        h += term if 2 * j == m else 2.0 * term
        c = c * (m - j) // (j + 1)
    return h


def binomial_entropy_bounds(m: int) -> tuple:
    """Strict two-sided enclosure of H_m: the half-log main term minus
    1/(4m) below and plus 1/(10m) above."""
    if m < 1:
        raise ValueError("m must be >= 1")
    main = 0.5 * math.log2(math.e * math.pi * m / 2.0)
    return (main - 1.0 / (4 * m), main + 1.0 / (10 * m))


def signed_sum_counts(h) -> tuple:
    """(offset, counts): counts[i] of the 2^len(h) 0/1 vectors eps have
    h . eps = offset + i.  The empty h gives (0, (1,))."""
    counts = {0: 1}
    for step in h:
        nxt = {}
        for z, c in counts.items():
            nxt[z] = nxt.get(z, 0) + c
            nxt[z + step] = nxt.get(z + step, 0) + c
        counts = nxt
    lo, hi = min(counts), max(counts)
    return lo, tuple(counts.get(z, 0) for z in range(lo, hi + 1))


def pmf_signed_sum(h) -> PMFVector:
    """Exact dyadic PMF of h_1 X_1 + ... + h_m X_m for fair 0/1 variables."""
    coeffs = tuple(int(v) for v in h)
    if not coeffs:
        raise ValueError("at least one coefficient required")
    if any(v == 0 for v in coeffs):
        raise ValueError("coefficients must be nonzero")
    lo, counts = signed_sum_counts(coeffs)
    denom = 2 ** len(coeffs)
    return PMFVector(lo, tuple(Fraction(c, denom) for c in counts))


def decreasing_rearrangement(p: PMFVector) -> list:
    """Nonzero masses sorted in nonincreasing order."""
    return sorted((m for m in p.masses if m != 0), reverse=True)


def majorizes(x, y) -> bool:
    """Prefix-sum dominance of two nonincreasing sequences of equal total,
    the shorter padded with zeros.  Raises on unsorted input."""
    x = list(x)
    y = list(y)
    for name, seq in (("x", x), ("y", y)):
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"{name} is not sorted in nonincreasing order")
    n = max(len(x), len(y))
    x = x + [0] * (n - len(x))
    y = y + [0] * (n - len(y))
    tol = 0 if all(_is_exact(v) for v in x + y) else _SUM_TOL
    # d is the prefix sum of x minus that of y; the last one compares totals.
    d = 0
    for a, b in zip(x, y):
        d += a - b
        if d < -tol:
            return False
    return abs(d) <= tol


def _psi_square(v: float) -> float:
    return v * v


def _psi_neg_xlog2(v: float) -> float:
    return -v * math.log2(v) if v > 0 else 0.0


PSI_REGISTRY = {
    "square": (_psi_square, "convex"),
    "neg_x_log2": (_psi_neg_xlog2, "concave"),
}


@dataclass(frozen=True)
class KaramataResult:
    difference: float
    convexity: str
    consistent: bool
    equal: bool


def karamata_compare(x, y, psi) -> KaramataResult:
    """Sum-of-psi comparison for x majorizing y.

    Returns the signed difference sum psi(x) - sum psi(y), whether its sign
    matches the convexity of psi, and whether the padded tuples coincide."""
    if isinstance(psi, str):
        try:
            fn, convexity = PSI_REGISTRY[psi]
        except KeyError:
            raise ValueError(f"unknown psi {psi!r}") from None
    else:
        fn, convexity = psi
    if not majorizes(x, y):
        raise ValueError("x does not majorize y")
    x = list(x)
    y = list(y)
    n = max(len(x), len(y))
    x = x + [0] * (n - len(x))
    y = y + [0] * (n - len(y))
    diff = sum(fn(float(v)) for v in x) - sum(fn(float(v)) for v in y)
    equal = all(float(a) == float(b) for a, b in zip(x, y))
    consistent = diff >= -_SUM_TOL if convexity == "convex" else diff <= _SUM_TOL
    return KaramataResult(diff, convexity, consistent, equal)


@dataclass
class VerificationReport:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str):
        self.cases += 1
        if not ok:
            self.failures.append(message)


def verify_majorization_lemma(m_max: int = 4, h_bound: int = 4) -> VerificationReport:
    """Exhaustively check, for every coefficient vector with entries in
    {-h_bound, ..., -1, 1, ..., h_bound} and length up to m_max, that the
    rearranged binomial PMF majorizes the rearranged signed-sum PMF, that
    the rearrangements coincide exactly when all |h_i| agree, and that the
    entropy of the signed sum is at least the binomial entropy with the
    same equality condition."""
    if m_max > 5 or h_bound > 5:
        raise ValueError("exhaustive range limited to m_max <= 5, h_bound <= 5")
    report = VerificationReport("majorization")
    values = [v for v in range(-h_bound, h_bound + 1) if v != 0]
    for m in range(1, m_max + 1):
        # Counts over 2^m, no zeros; c / denom rounds as Fraction(c, denom) does.
        denom = 2 ** m
        binom = sorted((math.comb(m, j) for j in range(m + 1)), reverse=True)
        h_binom = binomial_entropy(m)
        for h in _product(values, repeat=m):
            counts = signed_sum_counts(h)[1]
            x = sorted((c for c in counts if c), reverse=True)
            is_equal = x == binom
            all_same = len({abs(v) for v in h}) == 1
            ok_maj = majorizes(binom, x)
            report.record(ok_maj, f"h={h}: binomial does not majorize")
            report.record(
                is_equal == all_same,
                f"h={h}: rearrangement equality mismatch "
                f"(equal={is_equal}, uniform |h|={all_same})",
            )
            h_sum = entropy_bits([c / denom for c in counts])
            if all_same:
                report.record(
                    abs(h_sum - h_binom) <= 1e-12,
                    f"h={h}: expected entropy H_{m}, got {h_sum!r}",
                )
            else:
                report.record(
                    h_sum > h_binom + 1e-12,
                    f"h={h}: entropy {h_sum!r} not strictly above H_{m}",
                )
    return report


def verify_entropy_corollary(n: int) -> VerificationReport:
    """Exhaustively check H(h_1 X_1 + ... + h_l X_l)/l >= H_{n-1}/(n-1)
    over all 1 <= l <= n-1 and nonzero h with |h_1| + ... + |h_l| <= n-1,
    with equality exactly when l = n-1 and every |h_i| = 1."""
    if n > 8:
        raise ValueError("exhaustive range limited to n <= 8")
    if n < 2:
        raise ValueError("n must be >= 2")
    report = VerificationReport("entropy-corollary")
    floor = binomial_entropy(n - 1) / (n - 1)
    for l in range(1, n):
        for h in iter_signed_vectors(n - 1, l):
            ratio = entropy_bits([c / 2 ** l for c in signed_sum_counts(h)[1]]) / l
            expect_equal = l == n - 1 and all(abs(v) == 1 for v in h)
            if expect_equal:
                report.record(
                    abs(ratio - floor) <= 1e-12,
                    f"n={n}, h={h}: expected equality, got ratio {ratio!r}",
                )
            else:
                report.record(
                    ratio > floor + 1e-12,
                    f"n={n}, h={h}: ratio {ratio!r} not strictly above {floor!r}",
                )
    return report
