"""Sparse functions and finite point sets on the integer lattice.

A LatticeFunction is a finitely supported map from Z^d into the complex
numbers, stored as a dict keyed by integer coordinate tuples; values that
are exactly zero are never stored.  Dimension d = 0 is legal and means the
one-point lattice, so a function on it is a single scalar.  A CubeSet is a
finite subset of {0, ..., n-1}^d tracked with its exact cardinality.

Both, and gowers.GowersSystem, are immutable values on a slotted base
(_Frozen) with the protocol of a frozen dataclass: ==, hash, repr and
__match_args__ over their fields, in order.  A dataclass would import
`dataclasses` and with it `inspect`, which the exact commands need nowhere
else.
"""

from __future__ import annotations

import json
import math
from itertools import product as _product


def _check_point(p, dim):
    if not isinstance(p, tuple) or len(p) != dim:
        raise ValueError(f"point {p!r} does not have dimension {dim}")
    for c in p:
        # The rule of _json_int: a bool is an int subclass, not a coordinate.
        if type(c) is not int:
            raise ValueError(f"point {p!r} has a non-integer coordinate {c!r}")


def _check_size(name, value, least):
    # The rule of _json_int: a bool is an int subclass, not a size.
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


class _Frozen:
    """Immutable value whose fields are its __slots__, in order.  A
    subclass's __init__ validates and then stores them with _set."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        # A dict field makes this raise TypeError, as it does a dataclass's.
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, since the
        # default protocol would set the slots with __setattr__.
        return type(self), self._fields()


class LatticeFunction(_Frozen):
    """Finitely supported f: Z^dim -> C with zero values dropped."""

    __slots__ = __match_args__ = ("dim", "entries")

    def __init__(self, dim, entries):
        _check_size("dimension", dim, 0)
        clean = {}
        for p, v in entries.items():
            p = tuple(p)
            _check_point(p, dim)
            v = complex(v)
            if v != 0:
                clean[p] = v
        self._set(dim, clean)

    def __add__(self, other):
        if not isinstance(other, LatticeFunction):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = dict(self.entries)
        for p, v in other.entries.items():
            out[p] = out.get(p, 0j) + v
        return LatticeFunction(self.dim, out)


def indicator(points, dim=None):
    """Indicator function of a finite set of lattice points."""
    pts = [tuple(p) for p in points]
    if dim is None:
        if not pts:
            raise ValueError("dim is required for an empty point set")
        dim = len(pts[0])
    return LatticeFunction(dim, {p: 1.0 for p in pts})


def delta(dim=1):
    """Unit mass at the origin of Z^dim."""
    _check_size("dimension", dim, 0)
    return LatticeFunction(dim, {(0,) * dim: 1.0})


class CubeSet(_Frozen):
    """Finite subset of {0, ..., side-1}^dim."""

    __slots__ = __match_args__ = ("dim", "side", "members")

    def __init__(self, dim, side, members):
        _check_size("dimension", dim, 0)
        _check_size("side", side, 1)
        pts = frozenset(tuple(p) for p in members)
        for p in pts:
            _check_point(p, dim)
            if any(c < 0 or c >= side for c in p):
                raise ValueError(f"point {p!r} lies outside the side-{side} cube")
        self._set(dim, side, pts)

    @property
    def size(self):
        return len(self.members)

    def indicator(self):
        return indicator(self.members, dim=self.dim)


def interval_set(n):
    """The full interval {0, ..., n-1} as a one-dimensional CubeSet."""
    _check_size("side", n, 1)
    return CubeSet(1, n, frozenset((j,) for j in range(n)))


def lp_norm(f: LatticeFunction, p) -> float:
    """ell^p norm of f; p = math.inf gives the sup norm, p > 0 required.
    A NaN value gives NaN at every p; otherwise an infinite one gives inf."""
    if p != math.inf and not p > 0:
        raise ValueError("p must be positive or infinity")
    vals = [abs(f.entries[k]) for k in sorted(f.entries)]
    if not vals:
        return 0.0
    # max() keeps a NaN only when it comes first.
    if any(math.isnan(v) for v in vals):
        return math.nan
    vmax = max(vals)
    if p == math.inf or vmax == 0.0 or vmax == math.inf:
        return vmax
    # Scale by the largest value so v**p cannot overflow for large p.
    total = sum((v / vmax) ** p for v in vals)
    return vmax * total ** (1.0 / p)


def convolve(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """(f * g)(x) = sum_y f(x - y) g(y), supports added coordinatewise and
    both walked in sorted order."""
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    a, b = f.entries, g.entries
    out = {}
    ys = sorted(b)
    for x in sorted(a):
        ax = a[x]
        for y in ys:
            z = tuple(p + q for p, q in zip(x, y))
            out[z] = out.get(z, 0) + ax * b[y]
    return LatticeFunction(f.dim, out)


def tensor_power(g: LatticeFunction, d: int) -> LatticeFunction:
    """d-fold tensor power of a one-dimensional function."""
    _check_size("dimension", d, 1)
    if g.dim != 1:
        raise ValueError("tensor_power requires a one-dimensional function")
    entries = {}
    supp = sorted(g.entries)
    for combo in _product(supp, repeat=d):
        v = 1.0 + 0j
        for p in combo:
            v *= g.entries[p]
        entries[tuple(p[0] for p in combo)] = v
    return LatticeFunction(d, entries)


# JSON wire formats.
#   function: {"d": int, "entries": [{"p": [ints], "re": number, "im": number}]}
#   set:      {"d": int, "n": int, "members": [[ints]]}

def function_to_json(f: LatticeFunction) -> dict:
    return {
        "d": f.dim,
        "entries": [
            {"p": list(p), "re": f.entries[p].real, "im": f.entries[p].imag}
            for p in sorted(f.entries)
        ],
    }


def _json_int(value):
    # int() would truncate 1.9 to 1 and read true or "1" as 1.
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _json_number(value):
    # float() would read "2" as 2.0 and true as 1.0; json.load reads NaN and
    # Infinity as floats.
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a number")
    return value


def function_from_json(obj) -> LatticeFunction:
    try:
        dim = _json_int(obj["d"])
        entries = {}
        for e in obj["entries"]:
            p = tuple(map(_json_int, e["p"]))
            if p in entries:
                raise ValueError(f"point {list(p)} is repeated")
            entries[p] = complex(_json_number(e["re"]),
                                 _json_number(e.get("im", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed function JSON: {exc}") from exc
    return LatticeFunction(dim, entries)


def set_to_json(A: CubeSet) -> dict:
    return {"d": A.dim, "n": A.side, "members": [list(p) for p in sorted(A.members)]}


def set_from_json(obj) -> CubeSet:
    try:
        dim = _json_int(obj["d"])
        side = _json_int(obj["n"])
        members = [tuple(map(_json_int, p)) for p in obj["members"]]
        if len(set(members)) != len(members):
            raise ValueError("a member is repeated")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed set JSON: {exc}") from exc
    return CubeSet(dim, side, members)


def _load_json(path, what):
    # json.load raises RecursionError, which is not a ValueError, on input
    # nested past the interpreter's recursion limit.
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"malformed {what} JSON: {exc}") from exc


def load_function(path) -> LatticeFunction:
    return function_from_json(_load_json(path, "function"))


def load_set(path) -> CubeSet:
    return set_from_json(_load_json(path, "set"))
