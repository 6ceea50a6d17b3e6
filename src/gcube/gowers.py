"""Gowers inner products, uniformity norms, and exact additive energies.

The brute-force inner product, which also gives the brute-force norm,
enumerates every tuple (a, h_1, ..., h_k) that can contribute: a must lie
in the support of the base function, and each h_i must lie in (support of
the i-th unit function - a), because the box vertex with only the i-th
epsilon switched on has to be a support point itself.  The recursive
evaluator peels one difference level per step and bottoms out at the
squared absolute sum.

Both complex evaluators run on integer codes of the points (`_coder`): a
difference or a box vertex is then one int sum, and the codes sort as the
points do, so every float operation, and with it every result bit, is the
same as on coordinate tuples.

Set energies are counted in exact integer arithmetic throughout; counts
such as (2k+2)^d overflow fixed-width integers almost immediately.  The
box count P_k and the common-difference energy run on the same codes,
translated so that the smallest is 0.  Coding keeps every relation
x + y = z + w among the points, and those decide both energies (a box is
a box exactly when each of its 2-faces is such a quadruple), so the coded
set has the same counts as the point set.  Within one call two subsets
get the same keys exactly when they are translates, and the box-count
recursion counts each such class once, in a memo that lives for the call.

The k-fold energy E_k is one big-integer power (Kronecker substitution):
on codes of reach k, each point becomes a power of 2 whose exponent is a
fixed slot width times its code, and the k-th power of their sum holds
every k-fold representation count r_k(z) in its own slot, since sums of
k codes never carry and no count fills its slot.

GowersSystem is an immutable value on lattice's slotted base, as
LatticeFunction and CubeSet are, so this layer imports no `dataclasses`.
"""

from __future__ import annotations

import math
from itertools import product as _product

from .lattice import CubeSet, LatticeFunction, _check_size, _Frozen

_IMAG_TOL = 1e-9

# gowers_norm_recursive and energy_P recurse one Python frame per
# difference level, so both raise ValueError for k above this before
# recursing; it is well below the interpreter's default limit of 1000.
# energy_E and energy_E_tilde refuse the same k before any work: the
# values of both grow to thousands of digits.
K_RECURSION_MAX = 256

# energy_E raises ValueError before its power when the power would take
# more bytes than this.  Its time grows about as the size^1.6: 18 points
# in 2-D at k = 64 (4.07 MB) took 10.9 s and 44 MB peak RSS on a 2-core
# VM.
ENERGY_E_BYTES_MAX = 1 << 22


def _coder(points, reach):
    """Order-preserving integer codes for points in the bounding box of
    `points` (a nonempty collection of points of Z^d).

    A point's code is the base-R number whose digits are its offsets from
    the coordinatewise minimum, the first coordinate most significant.  R
    is above reach * (span + 1), so a sum of up to `reach` codes has every
    digit below R and never carries: two sums of the same number of codes
    are equal, or ordered, exactly as the sums of the points are
    (lexicographically).  Hence codes sort as the points do, and for
    reach >= 2 so do differences of codes, since p - q < p' - q' is
    p + q' < p' + q.
    """
    pts = list(points)
    mins = [min(c) for c in zip(*pts)]
    span = max((x - m for p in pts for x, m in zip(p, mins)), default=0)
    radix = reach * (span + 1) + 1

    def code(p):
        c = 0
        for x, m in zip(p, mins):
            c = c * radix + (x - m)
        return c

    return code


class GowersSystem(_Frozen):
    """A 2^k-tuple of functions indexed by sign vectors in {0,1}^k."""

    __slots__ = __match_args__ = ("k", "functions")

    def __init__(self, k, functions):
        _check_size("k", k, 1)
        fns = {tuple(eps): f for eps, f in functions.items()}
        expected = set(_product((0, 1), repeat=k))
        if set(fns) != expected:
            raise ValueError(f"system must contain exactly the 2^{k} sign vectors")
        dims = {f.dim for f in fns.values()}
        if len(dims) != 1:
            raise ValueError("dimension mismatch among system functions")
        self._set(k, fns)

    @property
    def dim(self):
        return next(iter(self.functions.values())).dim

    @classmethod
    def constant(cls, f: LatticeFunction, k: int):
        # Checked before the product, which would raise TypeError on a float.
        _check_size("k", k, 1)
        return cls(k, {eps: f for eps in _product((0, 1), repeat=k)})


def gowers_inner_product(system: GowersSystem) -> complex:
    """Sum over (a, h_1, ..., h_k) of the conjugation-alternating product
    of the 2^k system functions at the box vertices."""
    k = system.k
    fns = system.functions
    if not fns[(0,) * k].entries:
        return 0j
    # A vertex a + sum_{i in eps} (p_i - a) is the support point y exactly
    # when y + (|eps| - 1) a equals the sum of the p_i: sums of at most k
    # codes on each side.
    code = _coder([p for f in fns.values() for p in f.entries], k)
    coded = {
        eps: {code(p): v for p, v in f.entries.items()} for eps, f in fns.items()
    }
    # One (lookup, steps, conjugated) entry per nonzero eps, in product
    # order: its vertex is a plus the h_i of the steps i it switches on.
    # The eps = 0 vertex is a itself, so each term starts from f_0(a).
    rest = [
        (coded[eps].get, [i for i, e in enumerate(eps) if e], sum(eps) % 2)
        for eps in _product((0, 1), repeat=k) if any(eps)
    ]
    base = coded[(0,) * k]
    unit_supports = [
        sorted(coded[tuple(1 if j == i else 0 for j in range(k))])
        for i in range(k)
    ]
    total = 0j
    for a in sorted(base):
        first = (1 + 0j) * base[a]
        h_ranges = [[p - a for p in sup] for sup in unit_supports]
        for hs in _product(*h_ranges):
            term = first
            for get, steps, odd in rest:
                y = a
                for i in steps:
                    y += hs[i]
                v = get(y)
                if v is None:
                    # The term is 0j, and adding 0j never changes total:
                    # its parts start at +0.0 and a rounded sum is -0.0
                    # only when both addends are.
                    break
                term *= v.conjugate() if odd else v
            else:
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


def _norm_pow_recursive(keys, vals, k) -> float:
    # keys: sorted point codes (_coder with reach 2); vals: f at them.
    if k == 1:
        s = 0j
        for v in vals:
            s += v
        return abs(s) ** 2
    # One pass over the pairs (x, x + h), x in sorted order, builds every
    # level-(k-1) function conj(f(. + h)) f(.) at once, each keyed in
    # sorted order; at k = 2 their U^1 sums accumulate in place.
    total = 0.0
    if k == 2:
        sums = {}
        for x, fx in zip(keys, vals):
            for y, fy in zip(keys, vals):
                h = y - x
                sums[h] = sums.get(h, 0j) + fy.conjugate() * fx
        for h in sorted(sums):
            total += abs(sums[h]) ** 2
        return total
    shifted = {}
    for x, fx in zip(keys, vals):
        for y, fy in zip(keys, vals):
            h = y - x
            level = shifted.get(h)
            if level is None:
                shifted[h] = level = ([], [])
            level[0].append(x)
            level[1].append(fy.conjugate() * fx)
    for h in sorted(shifted):
        total += _norm_pow_recursive(*shifted[h], k - 1)
    return total


def gowers_norm_recursive(f: LatticeFunction, k: int) -> float:
    """||f||_{U^k}^{2^k} via the difference recursion: each level replaces
    f by conj(f(.+h)) f(.) summed over h in the support difference set.

    Raises ValueError unless k is an int from 1 to K_RECURSION_MAX, and
    ArithmeticError when the result is not finite."""
    _check_size("k", k, 1)
    if k > K_RECURSION_MAX:
        raise ValueError(f"k must be <= {K_RECURSION_MAX}, got {k}")
    if not f.entries:
        return 0.0
    code = _coder(f.entries, 2)
    keys = sorted(f.entries)
    power = _norm_pow_recursive(
        [code(p) for p in keys], [f.entries[p] for p in keys], k
    )
    if not math.isfinite(power):
        raise ArithmeticError(f"U^{k} norm power is not finite: {power!r}")
    return power


def _intersections(keys):
    # The one pair-difference walk of the set energies, over sorted codes
    # (_coder with reach 2): h >= 0 -> the keys x with x + h also a key, in
    # sorted order; its length is r(h), the number of pairs (x, x + h).
    # Only y >= x is walked: the list for -h is the one for h translated by
    # h, so r(-h) = r(h) and both have the same box counts.
    inters = {}
    for i, x in enumerate(keys):
        for y in keys[i:]:
            h = y - x
            inter = inters.get(h)
            if inter is None:
                inters[h] = inter = []
            inter.append(x)
    return inters


def _count_boxes(keys, k, memo):
    # Number of (a, h_1, ..., h_k) whose full epsilon-combination box stays
    # inside the set of `keys`: sorted codes of a nonempty set, the smallest
    # 0.  Codes are injective on differences, so two subsets of one set get
    # the same keys exactly when they are translates, whose box counts are
    # equal; `memo` maps (keys, k) to the count for the length of one call.
    # Difference recursion down to k = 2, where the count is the sum of
    # r(h)^2.  Exact integers only.
    key = (keys, k)
    total = memo.get(key)
    if total is not None:
        return total
    total = 0
    for h, inter in _intersections(keys).items():
        if k == 2:
            count = len(inter) ** 2
        else:
            x0 = inter[0]
            count = _count_boxes(tuple([x - x0 for x in inter]), k - 1, memo)
        total += count if h == 0 else 2 * count
    memo[key] = total
    return total


def _check_energy_k(k):
    _check_size("k", k, 2)
    if k > K_RECURSION_MAX:
        raise ValueError(f"k must be <= {K_RECURSION_MAX}, got {k}")


def _set_keys(A, reach=2):
    # Sorted codes of A's points, translated so that the smallest is 0.
    code = _coder(A.members, reach)
    keys = sorted([code(p) for p in A.members])
    x0 = keys[0]
    return tuple([x - x0 for x in keys])


def energy_P(A: CubeSet, k: int) -> int:
    """Number of (k+1)-tuples (a, h_1, ..., h_k) whose epsilon-combination
    box lies entirely in A.  Equals gowers_norm_pow of the indicator.

    Raises ValueError unless k is an int from 2 to K_RECURSION_MAX."""
    _check_energy_k(k)
    if not A.members:
        return 0
    return _count_boxes(_set_keys(A), k, {})


def energy_E(A: CubeSet, k: int) -> int:
    """Number of 2k-tuples in A^{2k} whose first k entries and last k
    entries have equal sums; the squared ell^2 norm of the k-fold
    self-convolution of the indicator, in exact integers.

    Raises ValueError unless k is an int from 2 to K_RECURSION_MAX, and before
    any power when it would take more than ENERGY_E_BYTES_MAX bytes."""
    _check_energy_k(k)
    if not A.members:
        return 0
    # Codes of reach k: distinct k-fold sums of points get distinct sums of
    # codes.  The first k - 1 summands fix the last, so each count r_k(z)
    # is at most |A|^(k-1), and a slot of `width` bytes holds it.
    keys = _set_keys(A, k)
    width = ((len(keys) ** (k - 1)).bit_length() + 7) // 8
    size = width * (k * keys[-1] + 1)
    if size > ENERGY_E_BYTES_MAX:
        raise ValueError(
            f"energy E at k = {k} needs a {size}-byte power, above the "
            f"{ENERGY_E_BYTES_MAX}-byte bound"
        )
    slots = bytearray(width * (keys[-1] + 1))
    for x in keys:
        slots[width * x] = 1
    power = int.from_bytes(slots, "little") ** k
    raw = power.to_bytes(size, "little")
    total = 0
    for i in range(0, size, width):
        r = int.from_bytes(raw[i:i + width], "little")
        total += r * r
    return total


def energy_E_tilde(A: CubeSet, k: int) -> int:
    """Number of 2k-tuples with one common consecutive-pair difference:
    sum over z of r(z)^k where r(z) counts pairs (a, b) in A^2 with
    a - b = z.

    Raises ValueError unless k is an int from 2 to K_RECURSION_MAX."""
    _check_energy_k(k)
    if not A.members:
        return 0
    return sum(
        len(inter) ** k if h == 0 else 2 * len(inter) ** k
        for h, inter in _intersections(_set_keys(A)).items()
    )
