"""Tuple classes, their probability exponent vectors, and the normalized
simplex objective.

A tuple (a, h_1, ..., h_l) with all h_i nonzero is admissible for side
length n when every epsilon-combination a + eps . h stays in
{0, ..., n-1}; that forces |h_1| + ... + |h_l| <= n - 1, which keeps the
classes finite.  Each tuple carries a dyadic probability vector
q_j = 2^{-l} |{eps : a + eps . h = j}|, the PMF of the signed Bernoulli
sum a + h . eps: the counts of entropy.signed_sum_counts(h) over 2^l,
placed at a plus their offset (pmf_of_tuple).  enumerate_tuple_classes
lists the admissible tuples of each l as one sorted tuple.  The objective
is the sum of g(j)^t over the diagonal plus C(k, l)-weighted monomials
prod_j g(j)^{q_j t} over all admissible tuples.

Sign flips of the h_i only translate q and permutations leave it alone, so
q depends only on the multiset m of the |h_i| and the lowest box point b in
[0, n - 1 - sum(m)].  The term table, term_groups, walks the pairs (m, b),
each standing for 2^l l!/prod(mult!) ordered signed tuples (the empty m is
the diagonal); no two pairs share q.  Every evaluation goes through the
table's float form, TermMatrix, which values a whole batch of simplex
points with one matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .entropy import iter_signed_vectors, signed_sum_counts

_SIMPLEX_TOL = 1e-12
# Stands in for log(0): times q > 0 it sends the monomial to 0 (0^s = 0),
# times q = 0 it leaves it at 1 (0^0 = 1).
_LOG_ZERO = -1e300

# check_term_table refuses an (n, k) whose term table takes more than this
# many bytes in Q and QT, 16 per row per column.  Memory sets it: a solve at
# the largest admitted n took 4.6-7.8 s and 214-300 MB peak RSS at k = 2, 3,
# 4, 8, 16 and 1023 (n = 99, 63, 49, 36, 33, 33) on a 2-core VM.
TERM_TABLE_BYTES_MAX = 1 << 27


def enumerate_tuple_classes(n: int) -> list:
    """Entry l-1 is the sorted tuple of admissible (a, (h_1, ..., h_l)) with
    exactly l nonzero steps, for l = 1, ..., n-1; exhaustive and
    duplicate-free."""
    if n < 2:
        raise ValueError("n must be >= 2")
    classes = []
    for l in range(1, n):
        tuples = []
        for h in iter_signed_vectors(n - 1, l):
            pos = sum(v for v in h if v > 0)
            neg = sum(v for v in h if v < 0)
            for a in range(-neg, n - pos):
                tuples.append((a, h))
        classes.append(tuple(sorted(tuples)))
    return classes


def pmf_of_tuple(n: int, a: int, h) -> tuple:
    """Exact dyadic distribution of a + h . eps over uniform eps in {0,1}^l.

    q_j = 2^{-l} |{eps : a + eps . h = j}| as Fractions that sum to 1; the
    empty h gives the point mass at a."""
    h = tuple(h)
    if 0 in h:
        raise ValueError("coefficients must be nonzero")
    offset, counts = signed_sum_counts(h)
    lo = a + offset
    end = lo + len(counts)
    if lo < 0 or end > n:
        raise ValueError(f"tuple (a={a}, h={h}) leaves the interval [0, {n - 1}]")
    q = tuple(Fraction(c, 2 ** len(h)) for c in counts)
    return (Fraction(0),) * lo + q + (Fraction(0),) * (n - end)


def _magnitude_multisets(budget, parts, top):
    """Nonincreasing tuples of at most `parts` integers in [1, top], sum <= budget."""
    yield ()
    if parts:
        for v in range(1, min(budget, top) + 1):
            for rest in _magnitude_multisets(budget - v, parts - 1, v):
                yield (v,) + rest


def _term_rows(n: int, k: int) -> int:
    """len(term_groups(n, k)[0]) without the walk: the sum over l <= min(k,
    n - 1) and s <= n - 1 of p_l(s) (n - s), where p_l(s) counts the
    partitions of s into exactly l parts.  A partition has a part 1 or
    loses 1 from each part, so p_l(s) = p_(l-1)(s - 1) + p_l(s - l)."""
    p = [1] + [0] * (n - 1)
    rows = n
    for l in range(1, min(k, n - 1) + 1):
        p_l = [0] * n
        for s in range(l, n):
            p_l[s] = p[s - 1] + p_l[s - l]
        p = p_l
        rows += sum(x * (n - s) for s, x in enumerate(p))
    return rows


def check_term_table(n: int, k: int) -> None:
    """Raise ValueError for a term table above TERM_TABLE_BYTES_MAX bytes."""
    # The diagonal and the l = 1 rows alone are n (n + 1) / 2, which refuses
    # a huge n before the exact count runs.
    rows = n * (n + 1) // 2
    if 16 * rows * n <= TERM_TABLE_BYTES_MAX:
        rows = _term_rows(n, k)
    if 16 * rows * n > TERM_TABLE_BYTES_MAX:
        raise ValueError(f"the term table at n = {n}, k = {k} takes at least "
                         f"{16 * rows * n} bytes in Q and QT, above the "
                         f"{TERM_TABLE_BYTES_MAX}-byte bound")


@lru_cache(maxsize=128)
def term_groups(n: int, k: int) -> tuple:
    """Term table (rows, coefficients) for side n and box order k.

    Row (b, counts) is the q vector counts / 2^l placed from b, where
    counts = signed_sum_counts(m)[1] is shared by every row of a multiset m
    of l step sizes; its coefficient is C(k, l) times the 2^l l!/prod(mult!)
    ordered signed tuples of m (1 on the diagonal, m empty).  No two rows
    share q: with every m_i > 0 only eps = 0 reaches the lowest sum, so q
    starts with 2^-l at b, giving l and b, and 2^l q lists the coefficients
    of prod_i (1 + x^m_i), from which dividing out 1 + x^min(m) again and
    again reads off m.  Rows run b-major, by l ascending, then by counts
    descending: descending lexicographic q order.  ValueError, before the
    walk, for a table that check_term_table refuses."""
    if n < 2 or k < 1:
        raise ValueError("n >= 2 and k >= 1 required")
    check_term_table(n, k)
    walk = []
    for m in _magnitude_multisets(n - 1, min(k, n - 1), n - 1):
        coefficient = math.perm(k, len(m)) * 2 ** len(m)
        coefficient //= math.prod(math.factorial(m.count(v)) for v in set(m))
        walk.append((len(m), signed_sum_counts(m)[1], n - sum(m), coefficient))
    walk.sort(key=lambda w: (-w[0], w[1]), reverse=True)
    rows = [(b, w) for b in range(n) for w in walk if b < w[2]]
    return tuple((b, w[1]) for b, w in rows), tuple(w[3] for _, w in rows)


@dataclass(frozen=True)
class TermMatrix:
    """term_groups(n, k) in float form: row i of Q is the q vector of row i
    and c[i] its coefficient.  QT is Q transposed and stored C-contiguous,
    because BLAS multiplies by a transposed view through a slower path."""

    Q: np.ndarray  # (rows, n)
    QT: np.ndarray  # (n, rows)
    c: np.ndarray  # (rows,)

    def log_monomials(self, G, out=None, logs=None):
        """log of every monomial prod_j g(j)^q_j at t = 1, one row per
        simplex point in G; the monomials at t are exp(t * this).  Written
        into `out`, a (len(G), rows) float array, when one is given; the
        logs of G go to `logs`, a float array of G's shape, when one is
        given, so a loop can keep both buffers."""
        if logs is None:
            logs = np.empty_like(G)
        logs.fill(_LOG_ZERO)
        np.log(G, out=logs, where=G > 0)
        return np.matmul(logs, self.QT, out=out)

    def monomials(self, G, t, out=None, logs=None):
        """Every monomial prod_j g(j)^(q_j t), one row per simplex point in
        G; the objective is this times c.  Written into `out` and `logs`
        as above."""
        L = self.log_monomials(G, out, logs)
        np.multiply(t, L, out=L)
        return np.exp(L, out=L)

    def values(self, G, t):
        """The objective at exponent t for every row of G."""
        return self.monomials(G, t) @ self.c


@lru_cache(maxsize=128)
def term_matrix(n: int, k: int) -> TermMatrix:
    rows, coefficients = term_groups(n, k)
    Q = np.zeros((len(rows), n))
    for i, (b, counts) in enumerate(rows):
        Q[i, b:b + len(counts)] = counts
    # A row's counts sum to 2^l, so each Q entry is exactly its q.
    Q /= Q.sum(axis=1, keepdims=True)
    QT = np.ascontiguousarray(Q.T)
    c = np.array(coefficients, dtype=float)
    for a in (Q, QT, c):
        a.setflags(write=False)
    return TermMatrix(Q, QT, c)


def check_simplex(g, n):
    """g as a tuple of floats; ValueError unless it is a point of the
    n-simplex."""
    try:
        g = tuple(float(x) for x in g)
    except OverflowError:
        raise ValueError("simplex vector has an entry past the float range") from None
    if len(g) != n:
        raise ValueError(f"expected a vector of length {n}")
    # Written so that NaN fails too.
    if not all(x >= 0 for x in g):
        raise ValueError("simplex vector has a negative entry")
    if not abs(sum(g) - 1.0) <= _SIMPLEX_TOL:
        raise ValueError("simplex vector does not sum to 1")
    return g


def objective(n: int, k: int, t: float, g) -> float:
    """Value of the normalized objective at exponent t and simplex point g.

    Each row contributes coefficient * prod_j g(j)^(q_j t) with the
    conventions 0^0 = 1 and 0^s = 0 for s > 0."""
    # Written so that NaN fails too.
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    g = check_simplex(g, n)
    return float(term_matrix(n, k).values(np.array([g]), t)[0])


def ternary_objective_check(k: int, t: float, x: float, y: float, z: float) -> float:
    """Closed-form side-3 objective, written out monomial by monomial."""
    s = t / 2.0
    q = t / 4.0
    return (
        x ** t
        + y ** t
        + z ** t
        + 2 * k * x ** s * y ** s
        + 2 * k * y ** s * z ** s
        + 2 * k * x ** s * z ** s
        + 2 * k * (k - 1) * x ** q * y ** s * z ** q
    )
