"""Gowers inner products, uniformity norms, and exact additive energies.

The brute-force inner product, which also gives the brute-force norm,
enumerates every tuple (a, h_1, ..., h_k) that can contribute: a must lie
in the support of the base function, and each h_i must lie in (support of
the i-th unit function - a), because the box vertex with only the i-th
epsilon switched on has to be a support point itself.  The recursive
evaluator peels one difference level per step and bottoms out at the
squared absolute sum.

Set energies are counted in exact integer arithmetic throughout; counts
such as (2k+2)^d overflow fixed-width integers almost immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _product

from .lattice import CubeSet, LatticeFunction, convolve_entries

_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class GowersSystem:
    """A 2^k-tuple of functions indexed by sign vectors in {0,1}^k."""

    k: int
    functions: dict

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        fns = {tuple(eps): f for eps, f in self.functions.items()}
        expected = set(_product((0, 1), repeat=self.k))
        if set(fns) != expected:
            raise ValueError(f"system must contain exactly the 2^{self.k} sign vectors")
        dims = {f.dim for f in fns.values()}
        if len(dims) != 1:
            raise ValueError("dimension mismatch among system functions")
        object.__setattr__(self, "functions", fns)

    @property
    def dim(self):
        return next(iter(self.functions.values())).dim

    @classmethod
    def constant(cls, f: LatticeFunction, k: int):
        return cls(k, {eps: f for eps in _product((0, 1), repeat=k)})


def gowers_inner_product(system: GowersSystem) -> complex:
    """Sum over (a, h_1, ..., h_k) of the conjugation-alternating product
    of the 2^k system functions at the box vertices."""
    k = system.k
    fns = system.functions
    d = system.dim
    base = fns[(0,) * k].entries
    if not base:
        return 0j
    eps_list = [(eps, sum(eps) % 2) for eps in _product((0, 1), repeat=k)]
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
        for hs in _product(*h_ranges):
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


def _discard_imag(value: complex) -> float:
    if abs(value.imag) > _IMAG_TOL * (1.0 + abs(value)):
        raise ArithmeticError(
            f"self inner product has imaginary residue {value.imag!r}"
        )
    return value.real


def gowers_norm_pow(f: LatticeFunction, k: int) -> float:
    """||f||_{U^k}^{2^k} by direct enumeration: the Gowers inner product of
    the constant system f."""
    return max(_discard_imag(gowers_inner_product(GowersSystem.constant(f, k))), 0.0)


def gowers_norm(f: LatticeFunction, k: int) -> float:
    """||f||_{U^k}, the 2^k-th root of gowers_norm_recursive."""
    return gowers_norm_recursive(f, k) ** (0.5 ** k)


def _u1_sq(entries) -> float:
    s = 0j
    for p in sorted(entries):
        s += entries[p]
    return abs(s) ** 2


def _norm_pow_recursive(entries, k, d) -> float:
    if k == 1:
        return _u1_sq(entries)
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
            total += _norm_pow_recursive(shifted, k - 1, d)
    return total


def gowers_norm_recursive(f: LatticeFunction, k: int) -> float:
    """||f||_{U^k}^{2^k} via the difference recursion: each level replaces
    f by conj(f(.+h)) f(.) summed over h in the support difference set."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not f.entries:
        return 0.0
    return _norm_pow_recursive(f.entries, k, f.dim)


def _canonical(points):
    pts = [tuple(p) for p in points]
    if not pts:
        return ()
    d = len(pts[0])
    mins = tuple(min(p[j] for p in pts) for j in range(d))
    return tuple(sorted(tuple(c - m for c, m in zip(p, mins)) for p in pts))


@lru_cache(maxsize=8192)
def _count_boxes(canon_pts, k):
    # Number of (a, h_1, ..., h_k) whose full epsilon-combination box stays
    # inside the set; difference recursion down to k = 1 where the count is
    # the squared cardinality.  Exact integers only.
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
            total += _count_boxes(_canonical(inter), k - 1)
    return total


def energy_P(A: CubeSet, k: int) -> int:
    """Number of (k+1)-tuples (a, h_1, ..., h_k) whose epsilon-combination
    box lies entirely in A.  Equals gowers_norm_pow of the indicator."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not A.members:
        return 0
    return _count_boxes(_canonical(A.members), k)


def energy_E(A: CubeSet, k: int) -> int:
    """Number of 2k-tuples in A^{2k} whose first k entries and last k
    entries have equal sums; the squared ell^2 norm of the k-fold
    self-convolution of the indicator, in exact integers."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not A.members:
        return 0
    base = {p: 1 for p in A.members}
    conv = base
    for _ in range(k - 1):
        conv = convolve_entries(conv, base)
    return sum(c * c for c in conv.values())


def energy_E_tilde(A: CubeSet, k: int) -> int:
    """Number of 2k-tuples with one common consecutive-pair difference:
    sum over z of r(z)^k where r(z) counts pairs (a, b) in A^2 with
    a - b = z."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if not A.members:
        return 0
    diffs = {}
    for p in A.members:
        for q in A.members:
            z = tuple(a - b for a, b in zip(p, q))
            diffs[z] = diffs.get(z, 0) + 1
    return sum(r ** k for r in diffs.values())
