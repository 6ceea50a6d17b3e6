"""Critical exponent solver.

For fixed side n and box order k, the objective always attains the value 1
exactly at every vertex of the probability simplex, so the supremum M(t)
satisfies M(t) > 1 strictly below the critical exponent and M(t) = 1 at and
above it.  The solver looks for the infimum edge of the plateau where M is
identically 1 with the strict predicate "best found maximum > 1".

The outer loop is Dinkelbach's iteration for fractional programs: every
maximizer g found with M > 1 is a witness, and the root in t of
objective(g) = 1 is a certified lower bound for the critical exponent.  The
first bracket takes no maximization, and the loop jumps to the latest root
(found by Newton's method from the probe) and probes just above it: the
probe either finds the next witness or certifies the bracket.

The inner maximization is the soft spot because the objective is not
concave.  It is one deterministic batched EM (minorize-maximize) ascent,
the Baum-Eagon or Blahut-Arimoto update.  Write F(g) = sum_i c_i E_i with
the monomials E_i = prod_j g_j^(t Q_ij), and w = c * E / F, a distribution
over the table's rows.  Every q row sums to 1, so for any simplex point h
Jensen's inequality gives

    F(h) / F(g) = sum_i w_i exp(t sum_j Q_ij log(h_j / g_j))
               >= exp(t sum_j R_j log(h_j / g_j)),   R = Q^T w,

and at h = R the right side is exp(t KL(R || g)) >= 1.  The EM step
g <- R(g) therefore raises F at every t, with no step size and no
projection: R is on the simplex because Q^T w sums to sum_i w_i = 1.  Its
fixed points are the points where the gradient of F is the same, t F, on
the whole support.  A zero coordinate stays exactly zero, since every
row that puts mass on it has a zero monomial, so the ascent keeps to the
face of its start.  A vertex is a fixed point valued exactly 1: only its
own diagonal row has a nonzero monomial, and that row's q is the
vertex.

The ascent speeds R up by SQUAREM (Varadhan and Roland, Scand. J.
Statist. 35, 2008).  A cycle takes the two EM steps R(g) and R(R(g)), then
one jump

    g - 2 a r + a^2 v,   r = R(g) - g,   v = R(R(g)) - 2 R(g) + g,

with the per-row steplength a = -|r| / |v| capped at -1, and a = -1
where |v| <= 1e-100 |r| (v = 0 included), so that a^2 v stays finite; at
a = -1 the jump is R(R(g)).  There is no backtracking: a jump with a
negative or non-finite coordinate is replaced by R(R(g)), and a kept jump
is divided by its sum.  r and v vanish on the zero coordinates of g, so
the jump keeps to g's face as R does.  A row moves to the best of its
three points only if that value is strictly higher than its own, so an
overshooting jump or rounding never lowers a row, the reported maximum is
an exact evaluation and it is never below 1.  Each point is evaluated
once: the monomials that value R(g) also give R(R(g)), and those that
value the point a row moves to give its next cycle.

The first probe of a solve starts the ascent at once from a pool of 13
rows at every n: five structured profiles (uniform, binomial and powered
Gaussians) and 8 random points uniform on the simplex; every later probe
starts from the batch the previous probe ended with, in the same shape and
row order, so the previous witness is in it and a certifying probe starts
next to the local maxima.  The vertices are not in the pool, so a probe
reports max(best, 1) and, when that is 1, counts the vertex (0, ..., 0, 1)
among the rows tied at it.

Each ascent works in one workspace: it allocates every array it touches
once (the monomial logs, E * c of the rows and of the three candidates,
the candidates, the jump's terms, the values and the masks), and every
cycle writes into them through ufunc `out=` arguments; the `G > 0` mask
of the log kernel is the one array an evaluation still allocates.  Every
operation keeps its operands and their order, so the ascent gives the
bits of the plain array expressions.

The ascent stops after 67 cycles (three evaluations each, about the 200
steps of a plain EM ascent), or once it has settled for 5 consecutive
cycles; the rule is read once per cycle.  A maximization whose best value
stays at 1 certifies the upper end of the bracket; it has settled when no
row's value rises by more than a relative 1e-15 in a cycle.  Once the
best value is above 1, M(t) > 1 is already certified and the outer loop
reads only the argmax, for its witness root, so the ascent has settled
when the best value rises by no more than that.

The random points are normalized exponentials -log(1 - U), with U drawn
from `random.Random(seed).random()`: CPython keeps that sequence for a
given seed across versions, so the pool does not depend on the installed
NumPy's generators, and a solve imports no `numpy.random`.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

import numpy as np

from .terms import check_simplex, check_term_table, term_groups, term_matrix

# Identifies the outer loop and the search stages; results cached under an
# older version are not served for this one.
SOLVER_VERSION = 13

# The fixed search: seeded random starts and SQUAREM cycles of the ascent.
_MULTISTARTS = 8
_ASCENT_CYCLES = 67
# Settle rule: the ascent stops after this many consecutive cycles in
# which the best value, or while it is 1 every row's value, rose by no
# more than this relative amount.
_SETTLE_WINDOW = 5
_SETTLE_RTOL = 1e-15
# The jump takes a = -1 where |v|^2 <= |r|^2 / this, so a^2 stays below
# it and the jump's coordinates far inside the float range.
_JUMP_MAX2 = 1e200

# Largest box order whose 2^k is a finite float.
_K_MAX = 1023

# Cold start of the witness root's Newton iteration, and its step cap.
_ROOT_START = 1e-9
_ROOT_STEPS = 100

# Largest coordinate of a simplex point that is not a point mass; a point
# mass has the constant objective 1 and no witness root.
_POINT_MASS = 1.0 - 1e-12

# Fixed-point rounds of gaussian_witness_bound.
_GAUSSIAN_ROUNDS = 6


@dataclass(frozen=True)
class SolverConfig:
    t_tolerance: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails too.  A bool is an int, and True would
        # pass as a tolerance of 1.
        tol = self.t_tolerance
        if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                or not 0 < tol < math.inf):
            raise ValueError("t_tolerance must be positive and finite, "
                             f"not {self.t_tolerance!r}")
        # A bool is an int subclass, and random.Random would take -s as the
        # stream of s and accept a float.
        if type(self.rng_seed) is not int or self.rng_seed < 0:
            raise ValueError(f"rng_seed must be a nonnegative int, not {self.rng_seed!r}")


@dataclass(frozen=True)
class ExponentPair:
    """Critical exponent t = t(k, n) with its dual p = 2^k / t.

    t is the midpoint of the final bracket, bracket its width and argmax
    the witness (a maximizer or a structured seed) that set the lower end.
    The fields are the record `gcube exponent` prints and caches, name for
    name, and the checks below are the whole rule for a valid result: the
    CLI serves a cached result only when it rebuilds into a pair.  So
    every field is deterministic; anything that is not, such as timings,
    belongs beside the pair, not in it."""

    k: int
    n: int
    t: float
    p: float
    bracket: float
    argmax: tuple

    def __post_init__(self):
        # A bool is an int, and JSON reads NaN and Infinity as floats; the
        # comparison also refuses an int past the float range, on which
        # math.isfinite raises OverflowError.
        for x in (self.t, self.p, self.bracket, *self.argmax):
            if (isinstance(x, bool) or not isinstance(x, (int, float))
                    or not abs(x) <= sys.float_info.max):
                raise ValueError(f"expected a finite number, not {x!r}")
        check_simplex(self.argmax, self.n)
        if not self.t > 0:
            raise ValueError("t must be positive")
        # Written so that NaN fails too.
        if not abs(self.p * self.t - 2.0 ** self.k) <= 1e-12 * 2.0 ** self.k:
            raise ValueError("p * t must equal 2^k")
        if not 0 <= self.bracket < math.inf:
            raise ValueError("bracket must be nonnegative and finite")
        if self.t > self.k + 1 + 1e-9:
            raise ValueError("t exceeds the trivial upper bound k + 1")


# The settle tolerance as a 0-d array: a ufunc converts a Python float
# operand again on every call, and both give the same float64 result.
_RTOL = np.array(_SETTLE_RTOL)


def _ascend(G, t, tm, cycles):
    # SQUAREM cycles of the EM step R(g) = (E * c) Q / F of every row (see
    # the module docstring).  The monomials E that value a point also give
    # its EM step, through E * c, which is all the loop keeps of them; a
    # row that moves takes its point's E * c.  The batch keeps its shape,
    # since BLAS results per row can change in the last bit with it.
    # The rows g, their steps R(g) and R(R(g)) and the jump share one
    # array, and r and v another, so that r and v are one subtraction and
    # their norms one reduction.
    X = np.empty((4, *G.shape))
    X[0] = G
    G, R1, R2, J = X
    RV = np.empty((2, *G.shape))
    r, v = RV
    sq = np.empty_like(RV)
    t = np.array(t)
    Q, c = tm.Q, tm.c
    logs = np.empty_like(G)
    Ec = tm.monomials(G, t, logs=logs)
    vals = Ec @ c
    # c in every row, so that E * c is one contiguous loop.
    c_rows = np.tile(c, (len(G), 1))
    np.multiply(Ec, c_rows, out=Ec)
    E1, E2, EJ = np.empty((3, *Ec.shape))
    per_row = np.empty((13, len(G)))
    v1, v2, vJ, nr2, nv2, floor, s2, s, low, jsum, prev_vals, rise, rise_tol = per_row
    norms2 = per_row[3:5]
    candidates = ((R1, E1, v1), (R2, E2, v2), (J, EJ, vJ))
    better, has_v, keep, drop, rising_rows = np.empty((5, len(G)), dtype=bool)
    better_rows, keep_rows, drop_rows = better[:, None], keep[:, None], drop[:, None]
    vals_col, v1_col, jsum_col = vals[:, None], v1[:, None], jsum[:, None]
    s_col, s2_col = s[:, None], s2[:, None]
    best = np.maximum.reduce(vals)
    flat = 0
    # Bound once: at these sizes the attribute lookups are a measurable
    # share of a cycle.
    copyto, divide, greater, greater_equal = np.copyto, np.divide, np.greater, np.greater_equal
    add, matmul, multiply, subtract = np.add, np.matmul, np.multiply, np.subtract
    maximum, sqrt, logical_not = np.maximum, np.sqrt, np.logical_not
    max_of, min_of, sum_of, any_of = (np.maximum.reduce, np.minimum.reduce,
                                      np.add.reduce, np.logical_or.reduce)
    monomials = tm.monomials

    def evaluate(P, EP, vP):
        # The values of the rows of P, and their E * c into EP.
        monomials(P, t, EP, logs)
        matmul(EP, c, out=vP)
        multiply(EP, c_rows, out=EP)

    for _ in range(cycles):
        # The row sums of (E * c) Q are those of E * c, F up to rounding,
        # since every q row sums to 1: dividing by F puts the EM step on
        # the simplex without a reduction.
        matmul(Ec, Q, out=R1)
        divide(R1, vals_col, out=R1)
        evaluate(R1, E1, v1)
        matmul(E1, Q, out=R2)
        divide(R2, v1_col, out=R2)
        evaluate(R2, E2, v2)
        # r = R(g) - g and v = (R(R(g)) - R(g)) - r, and their squared
        # norms.
        subtract(X[1:3], X[:2], out=RV)
        subtract(v, r, out=v)
        multiply(RV, RV, out=sq)
        sum_of(sq, axis=2, out=norms2)
        # The jump g + 2 s r + s^2 v, with s = -a = |r| / |v| at least 1,
        # and 1 where |v| <= 1e-100 |r|, v = 0 included.
        divide(nr2, _JUMP_MAX2, out=floor)
        greater(nv2, floor, out=has_v)
        s2.fill(1.0)
        divide(nr2, nv2, out=s2, where=has_v)
        maximum(s2, 1.0, out=s2)
        sqrt(s2, out=s)
        add(s, s, out=s)
        multiply(r, s_col, out=J)
        add(G, J, out=J)
        multiply(v, s2_col, out=v)
        add(J, v, out=J)
        # A jump with a negative or non-finite coordinate falls back to
        # R(R(g)); a kept one goes back onto the simplex.
        min_of(J, axis=1, out=low)
        greater_equal(low, 0.0, out=keep)
        sum_of(J, axis=1, out=jsum)
        divide(J, jsum_col, out=J, where=keep_rows)
        logical_not(keep, out=drop)
        copyto(J, R2, where=drop_rows)
        evaluate(J, EJ, vJ)
        # Only an ascent whose best value is 1 reads whether a row rises.
        if not best > 1.0:
            copyto(prev_vals, vals)
        # A row takes the first of its best points, and only where that is
        # higher than its own value: a point can only fail to rise by
        # rounding or by an overshooting jump.
        for P, EP, vP in candidates:
            greater(vP, vals, out=better)
            copyto(G, P, where=better_rows)
            copyto(Ec, EP, where=better_rows)
            copyto(vals, vP, where=better)
        # Above 1 only the best value must settle; at 1 the ascent certifies
        # M(t) = 1, so every row must have stopped rising.
        prev, best = best, max_of(vals)
        if best > 1.0:
            settled = best - prev <= _SETTLE_RTOL * prev
        else:
            subtract(vals, prev_vals, out=rise)
            multiply(_RTOL, prev_vals, out=rise_tol)
            greater(rise, rise_tol, out=rising_rows)
            settled = not any_of(rising_rows)
        flat = flat + 1 if settled else 0
        if flat == _SETTLE_WINDOW:
            break
    return G, vals


def _random_starts(n, seed):
    # _MULTISTARTS points uniform on the simplex, drawn row by row: n
    # standard exponentials -log(1 - U), normalized.  Only random() is
    # drawn (see the module docstring).
    rng = random.Random(seed)
    rows = []
    for _ in range(_MULTISTARTS):
        row = [-math.log(1.0 - rng.random()) for _ in range(n)]
        total = sum(row)
        rows.append([x / total for x in row])
    return np.array(rows)


def _start_pool(n, k, cfg):
    # The cold pool: five structured profiles and the seeded random points.
    # _probe accounts for vertices.
    binom = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    gaussians = [profile_to_simplex(gaussian_witness(n, M), 2.0 ** k / (k + 1.0))
                 for M in (1.5, 2.0, 3.0)]
    return np.vstack([[np.full(n, 1.0 / n), binom / binom.sum(), *gaussians],
                      _random_starts(n, cfg.rng_seed)])


def _probe(n, k, t, G):
    # One maximization at t from the rows of G: (value, argmax, final
    # batch), the batch in G's shape and row order.  Every vertex is a
    # fixed point of the ascent valued exactly 1, so the value is at least
    # 1, and at 1 the smallest vertex (0, ..., 0, 1) is tied with the rows
    # there.
    G, vals = _ascend(G, t, term_matrix(n, k), _ASCENT_CYCLES)
    best_val = max(float(vals.max()), 1.0)
    tied = [tuple(g.tolist()) for g in G[vals == best_val]]
    if best_val == 1.0:
        tied.append((0.0,) * (n - 1) + (1.0,))
    return best_val, min(tied), G


def max_objective(n, k, t, cfg: SolverConfig | None = None):
    """Best found value of the objective over the simplex at exponent t.

    One SQUAREM-accelerated EM ascent from the pool a solve starts with:
    the structured profiles and the seeded random points.  Returns (value,
    argmax): the value is max(best, 1), since every vertex values exactly
    1, and the argmax the smallest point among the ascended rows tied at
    it and, when it is 1, the vertex (0, ..., 0, 1).  The value is a
    certified lower estimate of the true supremum (every reported value
    is an exact evaluation).  The ascent ends after 67
    cycles of three evaluations, or once it has settled for 5: while the
    value is 1, no row rises by more than a relative 1e-15; once it is
    above 1, the value does not, which leaves the argmax within about
    1.3e-8 of where the 67 cycles end (largest coordinate gap at the tests'
    twelve near-critical points).
    Deterministic for a fixed config; ValueError unless 0 < t < inf."""
    cfg = cfg or SolverConfig()
    # Written so that NaN fails too.
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    return _probe(n, k, t, _start_pool(n, k, cfg))[:2]


def check_problem(n: int, k: int, cfg: SolverConfig) -> None:
    """Raise ValueError for an (n, k, cfg) that solve_exponent refuses: n or
    k below 2, k above 1023, where 2^k overflows a float, a term table that
    terms.check_term_table refuses, and a tolerance below 2 * ulp(k + 1),
    where lo + tol/2 can round to lo and the bracket stop narrowing.  A
    sweep calls it for every point before its first solve, and `gcube
    exponent` before it reads its cache."""
    if n < 2 or k < 2:
        raise ValueError("n >= 2 and k >= 2 required")
    if k > _K_MAX:
        raise ValueError(f"k <= {_K_MAX} required: 2^k overflows a float at k = {k}")
    check_term_table(n, k)
    if cfg.t_tolerance < 2 * math.ulp(k + 1):
        raise ValueError(f"tolerance {cfg.t_tolerance!r} is below 2 * ulp({k + 1}) = "
                         f"{2 * math.ulp(k + 1)!r}, twice the float spacing of t")


def solve_exponent(n: int, k: int, cfg: SolverConfig | None = None) -> ExponentPair:
    """Smallest t <= k + 1 with M(t) = 1, by Dinkelbach's iteration.

    The upper end k + 1 is the trivial bound P_k(A) <= |A|^(k+1): the box
    is fixed by a and the k points a + h_i, so M(k + 1) = 1.  The lower end
    starts at the largest witness root among the structured seeds that are
    not point masses (at n = 2 the uniform seed, whose root is
    log2(2k + 2)).  Every maximization is a probe, half a tolerance above
    the lower end: one with M > 1 moves the lower end to its maximizer's
    root, or to the probe when rounding puts the root at or below it, and
    one with M <= 1 becomes the upper end.  The start pool is built once:
    each probe ascends from the batch the previous one ended with.
    `argmax` is the witness that set the final lower end, a maximizer or a
    structured seed, never a vertex.
    `check_problem` runs before any maximization."""
    cfg = cfg or SolverConfig()
    check_problem(n, k, cfg)
    batch = _start_pool(n, k, cfg)
    seeds = [tuple(g.tolist()) for g in batch[:-_MULTISTARTS] if g.max() <= _POINT_MASS]
    lo, witness = max((witness_lower_bound(n, k, g), g) for g in seeds)
    hi = float(k + 1)
    while hi - lo > cfg.t_tolerance:
        probe = lo + 0.5 * cfg.t_tolerance
        v, g, batch = _probe(n, k, probe, batch)
        if v > 1.0:
            witness = g
            lo = min(max(witness_lower_bound(n, k, g, probe), probe), hi)
        else:
            hi = probe
    t = 0.5 * (lo + hi)
    return ExponentPair(
        k=k,
        n=n,
        t=t,
        p=2.0 ** k / t,
        bracket=hi - lo,
        argmax=tuple(witness),
    )


def witness_lower_bound(n: int, k: int, g, start: float = _ROOT_START) -> float:
    """Unique root in t of objective(g) = 1 for a non-degenerate simplex
    point g; always a lower bound for the critical exponent.

    log objective(g, t) is a log-sum-exp of linear functions of t, so it is
    convex, and it decreases.  Newton's method on it, started below the
    root, therefore rises monotonically to the root and every iterate is a
    lower bound.  It starts at `start` (a probe at which g was found with
    a value above 1) when the objective is above 1 there, else at 1e-9."""
    g = check_simplex(g, n)
    if max(g) > _POINT_MASS:
        raise ValueError("point mass gives the constant objective 1, no root")
    tm = term_matrix(n, k)
    L = tm.log_monomials(np.array([g]))[0]

    def log_value(t):
        # log objective(g, t) and its derivative in t.
        E = np.exp(t * L)
        value = E @ tm.c
        if not value > 0:
            # Every monomial underflows: t is far above the root.
            return -math.inf, 0.0
        return math.log(value), (E * L) @ tm.c / value

    t = start
    h, dh = log_value(t)
    if not h > 0:
        t = _ROOT_START
        h, dh = log_value(t)
    for _ in range(_ROOT_STEPS):
        nxt = t - h / dh
        if not nxt > t:
            return float(t)
        t = nxt
        h, dh = log_value(t)
        # Rounding has reached the root.
        if not h > 0:
            return float(t)
    raise ArithmeticError("witness root did not converge")


def trivial_bounds(n: int, k: int) -> tuple:
    """(log_n of the full-interval box count, k + 1); these always sandwich
    the critical exponent.  The box count P_k({0, ..., n-1}) is the
    coefficient sum of the term table, which has no recursion limit in k."""
    pk = sum(term_groups(n, k)[1])
    return (math.log(pk) / math.log(n), float(k + 1))


def gaussian_witness(n: int, M: float) -> tuple:
    """Truncated discrete Gaussian profile exp(-4 M^2 (m/n - 1/2)^2) on
    {0, ..., n-1}."""
    # Written so that NaN fails too; at M = inf no entry is positive.
    if not 1 < M < math.inf:
        raise ValueError("M must be > 1 and finite")
    if n < 2:
        raise ValueError("n must be >= 2")
    return tuple(
        math.exp(-4.0 * M * M * (m / n - 0.5) ** 2) for m in range(n)
    )


def profile_to_simplex(profile, power: float) -> tuple:
    """Normalize profile**power onto the simplex.  The peak is scaled to 1
    before powering, so a large power does not underflow the whole
    profile to zero."""
    # Written so that NaN fails too.
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")
    p = np.asarray(profile, dtype=float)
    if not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("profile entries must be finite and nonnegative")
    if not (p > 0).any():
        raise ValueError("profile has no mass")
    w = (p / p.max()) ** power
    return tuple((w / w.sum()).tolist())


def gaussian_witness_bound(n: int, M: float, k: int) -> float:
    """Lower bound on the critical exponent from the Gaussian profile.

    The profile enters through g proportional to f^(2^k / t); t is refined
    by fixed-point iteration from t = k + 1, whose first iterate for M in
    {1.5, 2, 3} is a solver seed's root, and every iterate is itself a
    valid bound, so the best one is returned."""
    prof = gaussian_witness(n, M)
    t = float(k + 1)
    best = 0.0
    for _ in range(_GAUSSIAN_ROUNDS):
        g = profile_to_simplex(prof, 2.0 ** k / t)
        t = witness_lower_bound(n, k, g)
        best = max(best, t)
    return best
