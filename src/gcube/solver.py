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
probe either finds the next witness or certifies the bracket.  A witness
that fails to carry the bound past its probe makes the next probe a
bisection midpoint instead.

The inner maximization is the soft spot because the objective is not
concave.  It is one deterministic batched EM (minorize-maximize) ascent,
the Baum-Eagon or Blahut-Arimoto update.  Write F(g) = sum_i c_i E_i with
the monomials E_i = prod_j g_j^(t Q_ij), and w = c * E / F, a distribution
over the groups.  Every q row sums to 1, so for any simplex point h
Jensen's inequality gives

    F(h) / F(g) = sum_i w_i exp(t sum_j Q_ij log(h_j / g_j))
               >= exp(t sum_j r_j log(h_j / g_j)),   r = Q^T w,

and at h = r the right side is exp(t KL(r || g)) >= 1.  The step g <- r
therefore raises F at every t, with no step size and no projection: r is
on the simplex because Q^T w sums to sum_i w_i = 1.  Its fixed points are
the points where the gradient of F is the same, t F, on the whole support.
A zero coordinate stays exactly zero, since every group that puts mass on
it has a zero monomial, so the ascent keeps to the face of its start.  A
vertex is a fixed point valued exactly 1: only its own diagonal group
has a nonzero monomial, and that group's q is the vertex.

The first probe of a solve starts the ascent at once from a pool of 14
rows at every n: five structured profiles (uniform, binomial and powered
Gaussians), 8 random points uniform on the simplex and the best seed's
witness; every later probe starts from the batch the previous probe ended
with, in the same shape and row order, so the previous witness is in it
and a certifying probe starts next to the local maxima.  The vertices are
not in the pool, so a probe reports max(best, 1) and, when that is 1,
counts the vertex (0, ..., 0, 1) among the rows tied at it.  A step is
only taken when its evaluated value is higher, so rounding never lowers
a row, the reported maximum is an exact evaluation and it is never below
1.  Each point is evaluated once: the monomials that value an accepted
step also give its next step.

Each ascent works in one workspace: it allocates every array it touches
once (the monomial logs, E * c, the candidates and their monomials, the
values and the masks), and every iteration writes into them through
ufunc `out=` arguments; the `G > 0` mask of the log kernel is the one
array an iteration still allocates.  Every operation keeps its operands
and their order, so the ascent gives the bits of the plain array
expressions.

The ascent stops after 200 iterations, or once it has settled for 30
consecutive iterations.  A maximization whose best value stays at 1
certifies the upper end of the bracket; it has settled when no row's
value rises by more than a relative 1e-15.  Once the best value is above
1, M(t) > 1 is already certified and the outer loop reads only the
argmax, for its witness root, so the ascent has settled when the best
value rises by no more than that.

The random points are normalized exponentials -log(1 - U), with U drawn
from `random.Random(seed).random()`: CPython keeps that sequence for a
given seed across versions, so the pool does not depend on the installed
NumPy's generators, and a solve imports no `numpy.random`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .terms import _merged_counts, check_simplex, term_matrix

# Identifies the outer loop and the search stages; results cached under an
# older version are not served for this one.
SOLVER_VERSION = 11

# The fixed search: seeded random starts and ascent iterations.
_MULTISTARTS = 8
_ASCENT_ITERATIONS = 200
# Settle rule: the ascent stops after this many consecutive iterations in
# which the best value, or while it is 1 every row's value, rose by no
# more than this relative amount.
_SETTLE_WINDOW = 30
_SETTLE_RTOL = 1e-15

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

    t is the midpoint of the final bracket, bracket_width its width and
    argmax the witness (a maximizer or a structured seed) that set the
    lower end.  The checks below are the whole rule for a valid result:
    the CLI serves a cached result only when it rebuilds into a pair."""

    k: int
    n: int
    t: float
    p: float
    bracket_width: float
    argmax: tuple

    def __post_init__(self):
        # A bool is an int, and JSON reads NaN and Infinity as floats.
        for x in (self.t, self.p, self.bracket_width, *self.argmax):
            if (isinstance(x, bool) or not isinstance(x, (int, float))
                    or not math.isfinite(x)):
                raise ValueError(f"expected a finite number, not {x!r}")
        check_simplex(self.argmax, self.n)
        if not self.t > 0:
            raise ValueError("t must be positive")
        # Written so that NaN fails too.
        if not abs(self.p * self.t - 2.0 ** self.k) <= 1e-12 * 2.0 ** self.k:
            raise ValueError("p * t must equal 2^k")
        if not 0 <= self.bracket_width < math.inf:
            raise ValueError("bracket_width must be nonnegative and finite")
        if self.t > self.k + 1 + 1e-9:
            raise ValueError("t exceeds the trivial upper bound k + 1")


# The settle tolerance as a 0-d array: a ufunc converts a Python float
# operand again on every call, and both give the same float64 result.
_RTOL = np.array(_SETTLE_RTOL)


def _ascend(G, t, tm, iters):
    # The EM step r = (E * c) Q / F of every row (see the module
    # docstring).  The monomials E that value a row also give its next
    # step, through E * c, which is all the loop keeps of them; an accepted
    # row's E * c is written over its old one.  The batch keeps its shape,
    # since BLAS results per row can change in the last bit with it.
    G = G.copy()
    t = np.array(t)
    Q, c = tm.Q, tm.c
    logs = np.empty_like(G)
    Ec = tm.monomials(G, t, logs=logs)
    vals = Ec @ c
    # c in every row, so that E * c is one contiguous loop.
    c_rows = np.tile(c, (len(G), 1))
    np.multiply(Ec, c_rows, out=Ec)
    cand = np.empty_like(G)
    cE = np.empty_like(Ec)
    cvals, rise, rise_tol = np.empty_like(vals), np.empty_like(vals), np.empty_like(vals)
    better, rising_rows = np.empty(len(G), dtype=bool), np.empty(len(G), dtype=bool)
    rows, vals_col = better[:, None], vals[:, None]
    best = np.maximum.reduce(vals)
    flat = 0
    # Bound once: at these sizes the attribute lookups are a measurable
    # share of an iteration.
    copyto, divide, greater = np.copyto, np.divide, np.greater
    matmul, multiply, subtract = np.matmul, np.multiply, np.subtract
    max_of, any_of = np.maximum.reduce, np.logical_or.reduce
    for _ in range(iters):
        # The row sums of (E * c) Q are those of E * c, F up to rounding,
        # since every q row sums to 1: dividing by F puts the candidate on
        # the simplex without a reduction.
        matmul(Ec, Q, out=cand)
        divide(cand, vals_col, out=cand)
        tm.monomials(cand, t, cE, logs)
        matmul(cE, c, out=cvals)
        # A step can only fail to rise by rounding; such a row stays put.
        greater(cvals, vals, out=better)
        # Only an ascent whose best value is 1 reads whether a row rises.
        rising = False
        if not best > 1.0:
            subtract(cvals, vals, out=rise)
            multiply(_RTOL, vals, out=rise_tol)
            greater(rise, rise_tol, out=rising_rows)
            rising = any_of(rising_rows)
        copyto(G, cand, where=rows)
        multiply(cE, c_rows, out=Ec, where=rows)
        copyto(vals, cvals, where=better)
        # Above 1 only the best value must settle; at 1 the ascent certifies
        # M(t) = 1, so every row must have stopped rising.
        prev, best = best, max_of(vals)
        settled = best - prev <= _SETTLE_RTOL * prev if best > 1.0 else not rising
        flat = flat + 1 if settled else 0
        if flat == _SETTLE_WINDOW:
            break
    return G, vals


def _structured_seeds(n, k):
    binom = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    gaussians = [profile_to_simplex(gaussian_witness(n, M), 2.0 ** k / (k + 1.0))
                 for M in (1.5, 2.0, 3.0)]
    return np.array([np.full(n, 1.0 / n), binom / binom.sum(), *gaussians])


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


def _start_pool(n, k, cfg, start=None, seeds=None):
    # The cold pool: structured profiles (`seeds`, built here when not
    # given), seeded random points and, when given, the simplex point
    # `start`.  No vertex: _probe accounts for them.
    if seeds is None:
        seeds = _structured_seeds(n, k)
    blocks = [seeds, _random_starts(n, cfg.rng_seed)]
    if start is not None:
        blocks.append(np.array([start], dtype=float))
    return np.vstack(blocks)


def _probe(n, k, t, G):
    # One maximization at t from the rows of G: (value, argmax, final
    # batch), the batch in G's shape and row order.  Every vertex is a
    # fixed point of the ascent valued exactly 1, so the value is at least
    # 1, and at 1 the smallest vertex (0, ..., 0, 1) is tied with the rows
    # there.
    G, vals = _ascend(G, t, term_matrix(n, k), _ASCENT_ITERATIONS)
    best_val = max(float(vals.max()), 1.0)
    tied = [tuple(g.tolist()) for g in G[vals == best_val]]
    if best_val == 1.0:
        tied.append((0.0,) * (n - 1) + (1.0,))
    return best_val, min(tied), G


def max_objective(n, k, t, cfg: SolverConfig | None = None, start=None):
    """Best found value of the objective over the simplex at exponent t.

    One EM ascent from the structured profiles, the seeded random points
    and, when given, the simplex point `start` (the previous witness).
    Returns (value, argmax): the value is max(best, 1), since every vertex
    values exactly 1, and the argmax the smallest point among the ascended
    rows tied at it and, when it is 1, the vertex (0, ..., 0, 1).  The
    value is a certified lower estimate of the true supremum (every
    reported value is an exact evaluation).  The ascent ends after 200
    steps, or once it has settled for 30: while the value is 1, no row
    rises by more than a relative 1e-15; once it is above 1, the value
    does not, which leaves the argmax within about 2e-8 of where the 200
    steps end.
    Deterministic for a fixed config and start."""
    cfg = cfg or SolverConfig()
    if not t > 0:
        raise ValueError("t must be positive")
    return _probe(n, k, t, _start_pool(n, k, cfg, start))[:2]


def check_problem(n: int, k: int, cfg: SolverConfig) -> None:
    """Raise ValueError for an (n, k, cfg) that solve_exponent refuses: n or
    k below 2, k above 1023, where 2^k overflows a float, and a tolerance
    below 2 * ulp(k + 1), where lo + tol/2 can round to lo and the bracket
    stop narrowing.  A sweep calls it for every point before its first
    solve, and `gcube exponent` before it reads its cache."""
    if n < 2 or k < 2:
        raise ValueError("n >= 2 and k >= 2 required")
    if k > _K_MAX:
        raise ValueError(f"k <= {_K_MAX} required: 2^k overflows a float at k = {k}")
    if cfg.t_tolerance < 2 * math.ulp(k + 1):
        raise ValueError(f"tolerance {cfg.t_tolerance!r} is below 2 * ulp({k + 1}) = "
                         f"{2 * math.ulp(k + 1)!r}, twice the float spacing of t")


def solve_exponent(n: int, k: int, cfg: SolverConfig | None = None) -> ExponentPair:
    """Smallest t <= k + 1 with M(t) = 1, by Dinkelbach's iteration.

    The upper end k + 1 is the trivial bound P_k(A) <= |A|^(k+1): the box
    is fixed by a and the k points a + h_i, so M(k + 1) = 1.  The lower end
    starts at the largest witness root among the structured seeds that are
    not point masses (at n = 2 the uniform seed, whose root is
    log2(2k + 2)).  Every maximization is a probe: one with M > 1 moves the
    lower end to its maximizer's root and the next probe to half a
    tolerance above it, one with M <= 1 becomes the upper end, and a
    witness that does not carry the lower end past its probe makes the
    next probe a bisection midpoint, so a stalling maximizer costs at most
    about twice the calls of plain bisection.  The start pool is built
    once: each probe ascends from the batch the previous one ended with.
    `argmax` is the witness that set the final lower end, a maximizer or a
    structured seed, never a vertex.
    `check_problem` runs before any maximization."""
    cfg = cfg or SolverConfig()
    check_problem(n, k, cfg)
    structured = _structured_seeds(n, k)
    seeds = [tuple(g.tolist()) for g in structured if g.max() <= _POINT_MASS]
    lo, witness = max((witness_lower_bound(n, k, g), g) for g in seeds)
    hi, bisect = float(k + 1), False
    batch = _start_pool(n, k, cfg, witness, structured)
    while hi - lo > cfg.t_tolerance:
        probe = 0.5 * (lo + hi) if bisect else lo + 0.5 * cfg.t_tolerance
        v, g, batch = _probe(n, k, probe, batch)
        if v > 1.0:
            witness = g
            root = witness_lower_bound(n, k, g, probe)
            bisect = not root > probe
            lo = min(max(root, probe), hi)
        else:
            hi, bisect = probe, False
    t = 0.5 * (lo + hi)
    return ExponentPair(
        k=k,
        n=n,
        t=t,
        p=2.0 ** k / t,
        bracket_width=hi - lo,
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
    pk = sum(_merged_counts(n, k)[1])
    return (math.log(pk) / math.log(n), float(k + 1))


def gaussian_witness(n: int, M: float) -> tuple:
    """Truncated discrete Gaussian profile exp(-4 M^2 (m/n - 1/2)^2) on
    {0, ..., n-1}."""
    if not M > 1:
        raise ValueError("M must be > 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    return tuple(
        math.exp(-4.0 * M * M * (m / n - 0.5) ** 2) for m in range(n)
    )


def profile_to_simplex(profile, power: float) -> tuple:
    """Normalize profile**power onto the simplex.  The peak is scaled to 1
    before powering, so a large power does not underflow the whole
    profile to zero."""
    p = np.asarray(profile, dtype=float)
    w = (p / p.max()) ** power
    s = w.sum()
    if not s > 0:
        raise ValueError("profile has no mass")
    return tuple((w / s).tolist())


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
