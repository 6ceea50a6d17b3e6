"""Shannon entropy of finite integer distributions, signed Bernoulli sums,
majorization, and the exhaustive entropy verifiers.

The module owns signed Bernoulli sums: iter_signed_vectors enumerates their
coefficient vectors and signed_sum_counts counts the 2^m sign vectors
reaching each sum, as the coefficients of the product of (1 + x^|h_i|)
packed into one Python integer (one byte slot of m // 8 + 1 bytes per
sum).  Exact work is done on those integer counts (denominator 2^m);
Fractions exist only in returned values such as pmf_signed_sum, and
entropies are evaluated in floating point at the very end.

H_m has one float evaluation, from the half row C(m, 0), ..., C(m, m // 2),
which rounds each mass c / 2^m once, by a float divisor up to m = 1020 and
by int true division above, where 2^m is past the float range.  The counts
come from one of two sources: binomial_entropy(m) streams the row by the
ratio walk and never holds it, and the sweep binomial_entropies(m_max)
builds each row from the one before by Pascal additions.  Both give the
same bits.

The verifiers check the total of the counts exactly, call majorizes, and
share the core of entropy_bits with the public function.  A report formats
the message of a check only when the check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, zip_longest
from itertools import product as _product
from operator import add

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


def _entropy_sum(masses) -> float:
    # -sum m log2 m over float masses, skipping zeros; no check of the total.
    log2 = math.log2
    h = 0.0
    for m in masses:
        if m > 0.0:
            h -= m * log2(m)
    return h


def entropy_bits(masses) -> float:
    """Entropy in bits of a mass sequence summing to 1 (0 log 0 = 0)."""
    _check_total(masses)
    return _entropy_sum(map(float, masses))


def _counts_entropy(counts, denom) -> float:
    # Entropy of counts over denom, with the total checked exactly; the
    # masses c / denom round as float(Fraction(c, denom)) does.
    if sum(counts) != denom:
        raise ValueError("masses must sum to 1")
    return _entropy_sum([c / denom for c in counts])


def entropy(p: PMFVector) -> float:
    """Shannon entropy of a PMF in bits; zero exactly for a point mass."""
    return entropy_bits(p.masses)


def _half_row_entropy(m, half) -> float:
    # H_m from C(m, 0), ..., C(m, m // 2), read once in that order.  Each
    # mass c / 2^m is rounded once: by a float divisor while 2^m is a float,
    # by int true division above.  A mass that underflows to 0 adds nothing.
    # Terms j < m / 2 count twice by symmetry; the middle term of an even m,
    # the last one summed, counts once.
    log2 = math.log2
    denom = float(2 ** m) if m <= 1020 else 1 << m
    half = iter(half)
    h = 0.0
    for c in islice(half, (m + 1) // 2):
        p = c / denom
        if p:
            h += 2.0 * (-p * log2(p))
    if m % 2 == 0:
        p = next(half) / denom
        h += -p * log2(p)
    return h


def _binomial_half_row(m):
    # C(m, 0), ..., C(m, m // 2) by the ratio walk, one at a time.
    c = 1
    for j in range(m // 2):
        yield c
        c = c * (m - j) // (j + 1)
    yield c


def binomial_entropy(m: int) -> float:
    """Entropy H_m of the symmetric binomial distribution B(m, 1/2)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _half_row_entropy(m, _binomial_half_row(m))


def binomial_entropies(m_max: int):
    """Yield H_1, ..., H_{m_max}, the bits binomial_entropy gives, building
    each half row of Pascal's triangle from the one before it."""
    half = [1]
    for m in range(1, m_max + 1):
        # C(m, j) = C(m-1, j-1) + C(m-1, j); an even m adds its middle
        # entry C(m, m/2) = 2 C(m-1, m/2 - 1).
        nxt = [1]
        nxt += map(add, half, half[1:])
        if m % 2 == 0:
            nxt.append(2 * half[-1])
        half = nxt
        yield _half_row_entropy(m, half)


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
    # counts is the coefficient list of prod (1 + x^|h_i|), read at x = 2^(8w):
    # no count exceeds 2^m, which fits a slot of w = m // 8 + 1 bytes, so the
    # slots never carry into each other.  A negative h_i is |h_i| (1 - eps_i)
    # - |h_i|: it moves the offset down by |h_i| and counts like |h_i|.
    bits = 8 * (len(h) // 8 + 1)
    packed = 1
    offset = span = 0
    for step in h:
        if step < 0:
            offset += step
            step = -step
        span += step
        packed += packed << (bits * step)
    width = bits // 8
    raw = packed.to_bytes(width * (span + 1), "little")
    if width == 1:
        return offset, tuple(raw)
    return offset, tuple(
        int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)
    )


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
    tol = 0 if all(_is_exact(v) for v in x + y) else _SUM_TOL
    # d is the prefix sum of x minus that of y; the last one compares totals.
    d = 0
    for a, b in zip_longest(x, y, fillvalue=0):
        d += a - b
        if d < -tol:
            return False
    return abs(d) <= tol


@dataclass
class VerificationReport:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str, *args):
        """Count one check; on failure keep message, formatted with
        str.format over args when any are given."""
        self.cases += 1
        if not ok:
            self.failures.append(message.format(*args) if args else message)


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
        # (dominated, equal, entropy) of each distinct count vector: the
        # (2 h_bound)^m vectors h reach few of them (69 in all at m_max =
        # h_bound = 4).
        facts = {}
        for h in _product(values, repeat=m):
            counts = signed_sum_counts(h)[1]
            if counts not in facts:
                x = sorted((c for c in counts if c), reverse=True)
                facts[counts] = (majorizes(binom, x), x == binom,
                                 _counts_entropy(counts, denom))
            dominated, is_equal, h_sum = facts[counts]
            all_same = len({abs(v) for v in h}) == 1
            report.record(dominated, "h={}: binomial does not majorize", h)
            report.record(
                is_equal == all_same,
                "h={}: rearrangement equality mismatch (equal={}, uniform |h|={})",
                h, is_equal, all_same,
            )
            if all_same:
                report.record(
                    abs(h_sum - h_binom) <= 1e-12,
                    "h={}: expected entropy H_{}, got {!r}", h, m, h_sum,
                )
            else:
                report.record(
                    h_sum > h_binom + 1e-12,
                    "h={}: entropy {!r} not strictly above H_{}", h, h_sum, m,
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
        denom = 2 ** l
        # The ratio of each distinct count vector, valued once per l.
        ratios = {}
        for h in iter_signed_vectors(n - 1, l):
            counts = signed_sum_counts(h)[1]
            if counts not in ratios:
                ratios[counts] = _counts_entropy(counts, denom) / l
            ratio = ratios[counts]
            expect_equal = l == n - 1 and all(abs(v) == 1 for v in h)
            if expect_equal:
                report.record(
                    abs(ratio - floor) <= 1e-12,
                    "n={}, h={}: expected equality, got ratio {!r}", n, h, ratio,
                )
            else:
                report.record(
                    ratio > floor + 1e-12,
                    "n={}, h={}: ratio {!r} not strictly above {!r}",
                    n, h, ratio, floor,
                )
    return report
