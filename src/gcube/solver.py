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
concave.  It is one deterministic batched projected-gradient ascent with
per-candidate backtracking.  The first probe of a solve starts it at once
from a pool of 14 rows at every n: five structured profiles (uniform,
binomial and powered Gaussians), 8 random points uniform on the simplex
and the best seed's witness; every later probe starts from the batch the
previous probe ended with, in the same shape and row order, so the
previous witness is in it and a certifying probe starts next to the local
maxima.  The vertices are not in the pool: each is a fixed point of the
ascent (a dead coordinate gets no gradient) valued exactly 1, so a probe
reports max(best, 1) and, when that is 1, counts the vertex (0, ..., 0, 1)
among the rows tied at it.  A step is only taken when it raises the
value, so the reported maximum is an exact evaluation and never below 1.
Each point is evaluated once: the monomials that value an accepted step
also give its next gradient.  All partial derivatives of the objective
are nonnegative, which keeps the ascent on the current face: the simplex
projection only ever removes mass.

Each ascent works in one workspace: it allocates every array it touches
once (the monomial logs, the masks, E * c and its product with Q, the
values and the step factors), and every iteration writes into them
through ufunc `out=` arguments; the `G > 0` mask of the log kernel is the
one array an iteration still allocates.  The projection keeps its sorted
rows, ratios and mask per thread for the latest batch shape, with its
index constants.  Every operation keeps its operands and their order, so
the ascent gives the bits of the plain array expressions.

The ascent stops when every step is below 1e-18, after 200 iterations,
or once it has settled for 30 consecutive iterations.  A maximization
whose best value stays at 1 certifies the upper end of the bracket; it
has settled when no row's value rises by more than a relative 1e-15.
Once the best value is above 1, M(t) > 1 is already certified and the
outer loop reads only the argmax, for its witness root, so the ascent has
settled when the best value rises by no more than that.

The random points are normalized exponentials -log(1 - U), with U drawn
from `random.Random(seed).random()`: CPython keeps that sequence for a
given seed across versions, so the pool does not depend on the installed
NumPy's generators, and a solve imports no `numpy.random`.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass

import numpy as np

from .gowers import energy_P
from .lattice import interval_set
from .terms import check_simplex, term_matrix

# Identifies the outer loop and the search stages; results cached under an
# older version are not served for this one.
SOLVER_VERSION = 10

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


@dataclass(frozen=True)
class SolverConfig:
    t_tolerance: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        # Written so that NaN fails too.
        if not 0 < self.t_tolerance < math.inf:
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
    lower end."""

    k: int
    n: int
    t: float
    p: float
    bracket_width: float
    argmax: tuple

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")
        if abs(self.p * self.t - 2.0 ** self.k) > 1e-12 * 2.0 ** self.k:
            raise ValueError("p * t must equal 2^k")
        if self.t > self.k + 1 + 1e-9:
            raise ValueError("t exceeds the trivial upper bound k + 1")


_COORD_FLOOR = 1e-15

_scratch = threading.local()

# The loop's constant operands as 0-d arrays: a ufunc converts a Python
# float operand again on every call, and both give the same float64 result.
_FLOOR = np.array(_COORD_FLOOR)
_RTOL = np.array(_SETTLE_RTOL)
_ZERO = np.array(0.0)
_ONE = np.array(1.0)
# Every row's first step, and the step stop: the ascent ends once every
# step is below it.
_STEP_START = 0.1
_STEP_STOP = 1e-18
# Step factors of a rejected and an accepted candidate.  Halving is exact
# and 1.3 only raises a step, so after i updates every step is at least
# 0.1 / 2^i, and the step stop cannot fire before this many updates.
_STEP_FACTORS = np.array([0.5, 1.3])
_STEP_STOP_UPDATES = math.ceil(math.log2(_STEP_START / _STEP_STOP))


def _projection_scratch(shape):
    # The projection's buffers for batches of this shape, kept per thread
    # for the latest shape (a solve projects one shape throughout): the
    # sorted rows, their ratios, the comparison mask and its reversed view,
    # the row thresholds and indices, and the constants, the divisors 1..n
    # of every row and each row's flat offset of its last place.  Operands
    # of the batch's own shape keep the ufunc loops contiguous.  The
    # projection writes every buffer before it reads it, so no value
    # carries from one call to the next.
    cached = getattr(_scratch, "projection", None)
    if cached is None or cached[0] != shape:
        rows, n = shape
        mask, theta = np.empty(shape, dtype=bool), np.empty(rows)
        cached = _scratch.projection = (
            shape, np.empty(shape), np.empty(shape), mask, mask[:, ::-1],
            theta, theta[:, None], np.empty(rows, dtype=np.intp),
            np.tile(np.arange(1.0, n + 1.0), (rows, 1)), np.arange(n - 1, rows * n, n),
        )
    return cached[1:]


def _project_rows(y):
    # Euclidean projection of each row onto the probability simplex, in
    # place.  Coordinates below the floor, negative ones included, are
    # snapped to exact zero (their gradient would overflow) and the row is
    # renormalized.  The rows are sorted as -y, so w and the ratios of its
    # cumulative sums are those of the descending sort, negated, which is
    # exact.
    (w, ratio, mask, reversed_mask, theta, theta_col, at, divisors,
     last) = _projection_scratch(y.shape)
    np.negative(y, out=w)
    w.sort(axis=1)
    np.add.accumulate(w, axis=1, out=ratio)
    np.add(ratio, _ONE, out=ratio)
    np.divide(ratio, divisors, out=ratio)
    # rho is the last place where the sorted row is above its ratio, and
    # the ratio there is the threshold: the first place of the reversed
    # mask, counted back from the row's last flat offset.
    np.less(w, ratio, out=mask)
    reversed_mask.argmax(axis=1, out=at)
    np.subtract(last, at, out=at)
    ratio.take(at, out=theta, mode="clip")
    np.add(y, theta_col, out=y)
    np.less(y, _FLOOR, out=mask)
    np.copyto(y, _ZERO, where=mask)
    np.add.reduce(y, axis=1, out=theta)
    np.divide(y, theta_col, out=y)
    return y


def _ascend(G, t, tm, iters):
    # Each candidate is evaluated once: the monomials E that value a row
    # also give its next gradient, through E * c, which is all the loop
    # keeps of them.  The batch keeps its shape throughout, since BLAS
    # results per row can change in the last bit with it.  Every array the
    # loop touches is allocated here, once per ascent, and each iteration
    # writes into them; the gradient is turned into the candidates in
    # place, and an accepted row's E * c is written over its old one.
    G = G.copy()
    t = np.array(t)
    Q, c = tm.Q, tm.c
    logs = np.empty_like(G)
    Ec = tm.monomials(G, t, logs=logs)
    vals = Ec @ c
    # c in every row, so that E * c is one contiguous loop.
    c_rows = np.tile(c, (len(G), 1))
    np.multiply(Ec, c_rows, out=Ec)
    cand, S = np.empty_like(G), np.empty_like(G)
    live = np.empty(G.shape, dtype=bool)
    cE = np.empty_like(Ec)
    cvals, rise, rise_tol = np.empty_like(vals), np.empty_like(vals), np.empty_like(vals)
    better, rising_rows = np.empty(len(G), dtype=bool), np.empty(len(G), dtype=bool)
    rows, accepted = better[:, None], better.view(np.uint8)
    step, factor = np.full(len(G), _STEP_START), np.empty(len(G))
    step_col = step[:, None]
    best = np.maximum.reduce(vals)
    flat = 0
    # Bound once: at these sizes the attribute lookups are a measurable
    # share of an iteration.
    add, copyto, divide, greater = np.add, np.copyto, np.divide, np.greater
    matmul, multiply, subtract = np.matmul, np.multiply, np.subtract
    max_of, any_of = np.maximum.reduce, np.logical_or.reduce
    for i in range(iters):
        # The gradient t (E * c) Q / G, zero at coordinates at or below the
        # floor: they count as being on the face, and the fractional powers
        # have unbounded slope there.
        matmul(Ec, Q, out=S)
        multiply(t, S, out=S)
        cand.fill(0.0)
        greater(G, _FLOOR, out=live)
        divide(S, G, out=cand, where=live)
        multiply(cand, step_col, out=cand)
        add(cand, G, out=cand)
        _project_rows(cand)
        tm.monomials(cand, t, cE, logs)
        matmul(cE, c, out=cvals)
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
        # A step grows by 1.3 where its candidate was accepted and halves
        # elsewhere.
        _STEP_FACTORS.take(accepted, out=factor, mode="clip")
        multiply(step, factor, out=step)
        if i + 1 >= _STEP_STOP_UPDATES and max_of(step) < _STEP_STOP:
            break
        # Above 1 only the best value must settle; at 1 the ascent certifies
        # M(t) = 1, so every row must have stopped rising.
        prev, best = best, max_of(vals)
        settled = best - prev <= _SETTLE_RTOL * prev if best > 1.0 else not rising
        flat = flat + 1 if settled else 0
        if flat == _SETTLE_WINDOW:
            break
    return G, vals


def _structured_seeds(n, k):
    seeds = [np.full((1, n), 1.0 / n)]
    binom = np.array([math.comb(n - 1, j) for j in range(n)], dtype=float)
    seeds.append((binom / binom.sum())[None, :])
    for M in (1.5, 2.0, 3.0):
        g = profile_to_simplex(gaussian_witness(n, M), 2.0 ** k / (k + 1.0))
        seeds.append(np.array([g]))
    return seeds


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
    blocks = [*seeds, _random_starts(n, cfg.rng_seed)]
    if start is not None:
        blocks.append(np.array([start], dtype=float))
    return np.vstack(blocks)


def _probe(n, k, t, G):
    # One maximization at t from the rows of G: (value, argmax, final
    # batch), the batch in G's shape and row order.  Every vertex values
    # exactly 1, so the value is at least 1, and at 1 the smallest vertex
    # (0, ..., 0, 1) is tied with the rows there.
    G, vals = _ascend(G, t, term_matrix(n, k), _ASCENT_ITERATIONS)
    best_val = max(float(vals.max()), 1.0)
    tied = [tuple(g.tolist()) for g in G[vals == best_val]]
    if best_val == 1.0:
        tied.append((0.0,) * (n - 1) + (1.0,))
    return best_val, min(tied), G


def max_objective(n, k, t, cfg: SolverConfig | None = None, start=None):
    """Best found value of the objective over the simplex at exponent t.

    One projected ascent from the structured profiles, the seeded random
    points and, when given, the simplex point `start` (the previous
    witness).  Returns (value, argmax): the value is max(best, 1), since
    every vertex values exactly 1, and the argmax the smallest point among
    the ascended rows tied at it and, when it is 1, the vertex
    (0, ..., 0, 1).  The value is a certified lower estimate of the true
    supremum (every reported value is an exact evaluation).  The ascent ends
    when it has settled for 30 iterations: while the value is 1, no row
    rises by more than a relative 1e-15; once it is above 1, the value
    does not, which moves the argmax by about 1e-8.
    Deterministic for a fixed config and start."""
    cfg = cfg or SolverConfig()
    if not t > 0:
        raise ValueError("t must be positive")
    return _probe(n, k, t, _start_pool(n, k, cfg, start))[:2]


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
    Two inputs raise ValueError before any maximization: k above 1023,
    where 2^k overflows a float, and a tolerance below 2 * ulp(k + 1),
    where lo + tol/2 can round to lo and the bracket stop narrowing."""
    cfg = cfg or SolverConfig()
    if n < 2 or k < 2:
        raise ValueError("n >= 2 and k >= 2 required")
    if k > _K_MAX:
        raise ValueError(f"k <= {_K_MAX} required: 2^k overflows a float at k = {k}")
    if cfg.t_tolerance < 2 * math.ulp(k + 1):
        raise ValueError(f"tolerance {cfg.t_tolerance!r} is below 2 * ulp({k + 1}) = "
                         f"{2 * math.ulp(k + 1)!r}, twice the float spacing of t")
    structured = _structured_seeds(n, k)
    seeds = [tuple(g.tolist()) for g in np.vstack(structured)
             if g.max() <= _POINT_MASS]
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
    the critical exponent."""
    pk = energy_P(interval_set(n), k)
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


def gaussian_witness_bound(n: int, M: float, k: int, rounds: int = 6) -> float:
    """Lower bound on the critical exponent from the Gaussian profile.

    The profile enters through g proportional to f^(2^k / t); t is refined
    by fixed-point iteration from t = k + 1, whose first iterate for M in
    {1.5, 2, 3} is a solver seed's root, and every iterate is itself a
    valid bound, so the best one is returned."""
    prof = gaussian_witness(n, M)
    t = float(k + 1)
    best = 0.0
    for _ in range(rounds):
        g = profile_to_simplex(prof, 2.0 ** k / t)
        t = witness_lower_bound(n, k, g)
        best = max(best, t)
    return best
