"""End-to-end benchmark for gcube.

    python3 bench/run.py --workload large-k --seed 1 --seconds 20 --trace 0

Runs one workload's fixed list of `gcube` commands per pass.  Each pass is
a fresh interpreter (bench/child.py) that imports gcube from this
checkout's src/ and calls gcube.cli.main in-process, so the package's
caches start cold as they do for every `gcube` command.  Passes run one at
a time, with OpenBLAS and OpenMP pinned to one thread: at least two, then
more until the next one would end after --seconds.  Every output is then
checked against bench/oracles.py, outside the timed region.

The last line of stdout is one JSON object with "correct", "attempted",
"failed" and "metrics": the end-to-end metrics with --trace 0, or the
per-layer metrics of a traced run with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

PASS_TIMEOUT_S = 150
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 10
SOLVE_DELTA = 1e-6
# The CLI's default --tol: t is the midpoint of a bisection bracket this wide.
SOLVE_TOL = 1e-9

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


# ---------------------------------------------------------------- workloads


class Solves:
    """`gcube exponent` over a fixed list of (n, k); the seed goes to the
    solver's multistart points."""

    def __init__(self, pairs, seed):
        self.pairs = pairs
        self.seed = seed
        self.commands = [
            ["exponent", "--n", str(n), "--k", str(k), "--format", "json",
             "--seed", str(seed)]
            for n, k in pairs
        ]
        self._checked = {}

    def _check_one(self, n, k, res):
        errs = []
        t, p = res["t"], res["p"]
        if (res["n"], res["k"]) != (n, k):
            errs.append(f"answered (n, k) = ({res['n']}, {res['k']})")
        if abs(p * t - 2.0 ** k) > 1e-12 * 2.0 ** k:
            errs.append(f"p * t = {p * t!r} != 2^{k}")
        if n == 2 and abs(t - math.log2(2 * k + 2)) > 1e-8:
            errs.append(f"t = {t!r} != log2({2 * k + 2})")
        if (n, k) == (3, 2) and abs(t - 2.7207109973) > 1e-9:
            errs.append(f"t = {t!r} != 2.7207109973")
        lower = math.log(oracles.interval_box_count(n, k)) / math.log(n)
        if not lower - SOLVE_TOL <= t <= k + 1:
            errs.append(f"t = {t!r} outside [log_n P_k = {lower!r}, {k + 1}]")
        terms = oracles.objective_terms(n, k)
        rng = np.random.default_rng([self.seed, n, k])
        below, point = oracles.best_point(terms, n, t - SOLVE_DELTA, rng)
        if not below > 1.0:
            errs.append(f"objective at t - {SOLVE_DELTA} peaks at {below!r} <= 1")
        above = oracles.sampled_max(terms, n, t + SOLVE_DELTA, rng, extra=[point])
        if not above <= 1.0 + 1e-12:
            errs.append(f"objective at t + {SOLVE_DELTA} reaches {above!r} > 1")
        return [f"exponent n={n} k={k}: {e}" for e in errs]

    def check(self, results):
        errs, ts = [], {}
        for (n, k), r in zip(self.pairs, results):
            if r["rc"] != 0:
                continue
            res = json.loads(r["stdout"])
            ts[n, k] = res["t"]
            key = (n, k, r["stdout"])
            if key not in self._checked:
                self._checked[key] = self._check_one(n, k, res)
            errs.extend(self._checked[key])
        # The cube {0..n-1}^d sits inside {0..n}^d, so t grows with n.
        for (n, k), t in ts.items():
            if (n + 1, k) in ts and ts[n + 1, k] < t - SOLVE_TOL:
                errs.append(f"t(n={n + 1}, k={k}) < t(n={n}, k={k})")
            if (n, k) == (4, 2) and t < 2.7207109973 - SOLVE_TOL:
                errs.append(f"t(4, 2) = {t!r} < t(3, 2)")
        return errs


# (d, side, points, k) of the inputs of the exact workload.  Each input is
# the image of a fixed base pattern under a seeded symmetry of the cube
# (an axis permutation and reflections, plus a translation for functions),
# so the seed moves the inputs but not the amount of work they take.
NORM_SHAPES = [(1, 12, 8, 4), (2, 4, 10, 3), (3, 3, 8, 2), (1, 16, 12, 3)]
SET_SHAPES = [(1, 24, 14, 4), (2, 6, 18, 3), (3, 3, 14, 2)]
ENERGY_KINDS = ("P", "E", "Etilde")
NORM_SHIFT = 3


def _base_pattern(index, d, side, m):
    cells = list(itertools.product(range(side), repeat=d))
    return random.Random(1000 + index).sample(cells, m)


def _cube_image(points, side, rng, shift=0):
    d = len(points[0])
    perm = rng.sample(range(d), d)
    flip = [rng.random() < 0.5 for _ in range(d)]
    offset = [rng.randrange(shift + 1) for _ in range(d)]
    return [tuple((side - 1 - p[a] if f else p[a]) + o
                  for a, f, o in zip(perm, flip, offset)) for p in points]


class Exact:
    """`gcube norm` and `gcube energy` on seeded inputs written in the
    package's JSON wire formats: complex functions with magnitudes in
    [0.1, 1.1] and uniform phases, and subsets of {0, ..., side-1}^d."""

    def __init__(self, seed, directory):
        rng = random.Random(seed)
        directory.mkdir(parents=True, exist_ok=True)
        self.commands, self.expected = [], []
        for i, (d, side, m, k) in enumerate(NORM_SHAPES):
            pts = _cube_image(_base_pattern(i, d, side, m), side, rng, NORM_SHIFT)
            vals = []
            for _ in pts:
                mag, phase = 0.1 + rng.random(), rng.uniform(0.0, 2.0 * math.pi)
                vals.append(complex(mag * math.cos(phase), mag * math.sin(phase)))
            path = directory / f"f{i}.json"
            path.write_text(json.dumps({"d": d, "entries": [
                {"p": list(p), "re": v.real, "im": v.imag} for p, v in zip(pts, vals)
            ]}))
            self.commands.append(["norm", "--f", str(path.relative_to(ROOT)), "--k", str(k),
                                  "--format", "json"])
            power = oracles.norm_power(pts, vals, d, side + NORM_SHIFT, k)
            self.expected.append(("norm", k, power))
        count = {"P": oracles.box_count, "E": oracles.energy_E,
                 "Etilde": oracles.energy_E_tilde}
        for i, (d, side, m, k) in enumerate(SET_SHAPES):
            pts = _cube_image(_base_pattern(len(NORM_SHAPES) + i, d, side, m), side, rng)
            path = directory / f"A{i}.json"
            path.write_text(json.dumps({"d": d, "n": side,
                                        "members": [list(p) for p in pts]}))
            for kind in ENERGY_KINDS:
                self.commands.append(["energy", "--set", str(path.relative_to(ROOT)), "--kind", kind,
                                      "--k", str(k), "--format", "json"])
                self.expected.append((kind, k, m, count[kind](pts, d, side, k)))

    def check(self, results):
        errs = []
        for argv, want, r in zip(self.commands, self.expected, results):
            if r["rc"] != 0:
                continue
            got = json.loads(r["stdout"])
            if want[0] == "norm":
                _, k, power = want
                norm = power ** (0.5 ** k)
                if not (abs(got["power"] - power) <= 1e-9 * power
                        and abs(got["norm"] - norm) <= 1e-9 * norm):
                    errs.append(f"{' '.join(argv)}: power {got['power']!r}, "
                                f"norm {got['norm']!r}; dense gives {power!r}")
            else:
                kind, k, m, value = want
                if (got["kind"], got["k"], got["size"], got["value"]) != (kind, k, m, value):
                    errs.append(f"{' '.join(argv)}: {got} != {kind} = {value} "
                                f"(size {m})")
        return errs


_SUITE_LINE = re.compile(r"^suite (\S+): PASS \((\d+) checks\)$", re.M)


class Verify:
    """`gcube verify --suite S` for every suite the CLI lists.  The suites
    take no input, so the seed changes nothing here."""

    def __init__(self):
        self.counts = oracles.suite_check_counts()
        self.commands = [["verify", "--suite", s] for s in sorted(self.counts)]
        # Asking for an unknown suite makes the CLI list the real ones.
        self.probe = [["verify", "--suite", "?"]]

    def check_probe(self, results):
        listed = results[0]["stderr"].rsplit("choices:", 1)[-1]
        listed = sorted(s.strip() for s in listed.split(","))
        if listed != sorted(self.counts):
            return [f"the CLI lists suites {listed}, the benchmark knows "
                    f"{sorted(self.counts)}"]
        return []

    def check(self, results):
        errs = []
        for (_, _, suite), r in zip(self.commands, results):
            if r["rc"] != 0:
                continue
            found = _SUITE_LINE.findall(r["stdout"])
            if found != [(suite, str(self.counts[suite]))]:
                errs.append(f"verify {suite}: printed {r['stdout']!r}, expected "
                            f"PASS with {self.counts[suite]} checks")
        return errs


LARGE_K = [(n, k) for n in (2, 3) for k in (2, 3, 4, 6, 8, 12, 16)]
LARGE_N = [(n, 2) for n in range(4, 9)]


WORKLOADS = {
    "large-k": lambda seed: Solves(LARGE_K, seed),
    "large-n": lambda seed: Solves(LARGE_N, seed),
    "exact": lambda seed: Exact(seed, OUT / "inputs" / f"seed{seed}"),
    "verify": lambda seed: Verify(),
}

# ---------------------------------------------------------------- passes


def run_pass(commands, trace):
    """Run the commands in a fresh interpreter; return its payload with the
    pass's wall time and set-up time added."""
    env = dict(os.environ, **CHILD_ENV)
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT), "1" if trace else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(json.dumps(commands).encode(),
                                    timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"a pass ran longer than {PASS_TIMEOUT_S} s") from None
    ended = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"pass interpreter exited {proc.returncode}: "
                         f"{err.decode(errors='replace').strip()}")
    payload = json.loads(out.decode().splitlines()[-1])
    payload["pass_s"] = ended - spawned
    payload["setup_s"] = payload["imported"] - spawned
    return payload


# ---------------------------------------------------------------- per layer

LAYER_METRICS = [
    ("solver.max_objective.calls", "count", "lower"),
    ("solver.max_objective.mean_ms", "ms", "lower"),
    ("solver.max_objective.s", "s", "lower"),
    ("solver.solve_exponent.self_s", "s", "lower"),
    ("terms.term_groups.calls", "count", "lower"),
    ("terms.term_groups.s", "s", "lower"),
    ("terms.objective.calls", "count", "lower"),
    ("terms.objective.s", "s", "lower"),
    ("gowers.gowers_norm_pow.calls", "count", "lower"),
    ("gowers.gowers_norm_pow.s", "s", "lower"),
    ("gowers.energy_P.calls", "count", "lower"),
    ("gowers.energy_P.s", "s", "lower"),
    ("gowers.energy_E.calls", "count", "lower"),
    ("gowers.energy_E.s", "s", "lower"),
    ("gowers.energy_E_tilde.calls", "count", "lower"),
    ("gowers.energy_E_tilde.s", "s", "lower"),
    ("gowers.gowers_norm_recursive.s", "s", "lower"),
    ("gowers.gowers_inner_product.s", "s", "lower"),
    ("entropy.verify_majorization_lemma.s", "s", "lower"),
    ("entropy.verify_entropy_corollary.s", "s", "lower"),
    ("entropy.pmf_signed_sum.calls", "count", "lower"),
    ("entropy.pmf_signed_sum.distinct_ratio", "ratio", "higher"),
    ("lattice.load.s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(payload):
    """Per-layer figures of one traced pass."""
    spans = payload["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]

    calls, total, self_s = {}, {}, {}
    for i, (name, _, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    v = {}
    for metric, _, _ in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            v[metric] = calls.get(span, 0)
        elif kind == "s":
            v[metric] = total.get(span, 0.0)
        elif kind == "self_s":
            v[metric] = self_s.get(span, 0.0)
    n_obj = calls.get("solver.max_objective", 0)
    v["solver.max_objective.mean_ms"] = (
        1e3 * total["solver.max_objective"] / n_obj if n_obj else 0.0)
    n_pmf = calls.get("entropy.pmf_signed_sum", 0)
    v["entropy.pmf_signed_sum.distinct_ratio"] = (
        payload["distinct_args"]["entropy.pmf_signed_sum"] / n_pmf if n_pmf else 0.0)
    v["verify.checks"] = sum(
        int(c) for r in payload["commands"] for _, c in _SUITE_LINE.findall(r["stdout"]))
    return v


# ---------------------------------------------------------------- main


def measure(name, seed, seconds, trace):
    if not (ROOT / "src" / "gcube" / "cli.py").is_file():
        raise BenchError(f"no gcube sources under {ROOT / 'src'}")
    workload = WORKLOADS[name](seed)
    errors = []

    # Untimed warm-up: compiles the bytecode caches, so every timed pass
    # imports the way an installed package does.
    probe = getattr(workload, "probe", [])
    warm = run_pass(probe, False)
    if probe:
        errors += workload.check_probe(warm["commands"])

    # An interpreter that only imports gcube follows every pass, so the
    # set-up samples spread over the whole run.
    plain, traced, setup = [], [], []
    begin = time.monotonic()
    while True:
        plain.append(run_pass(workload.commands, False))
        setup += [plain[-1]["setup_s"], run_pass([], False)["setup_s"]]
        if trace:
            traced.append(run_pass(workload.commands, True))
        elapsed = time.monotonic() - begin
        if len(plain) >= MIN_PASSES and elapsed + elapsed / len(plain) > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run_pass([], False)["setup_s"])

    attempted = failed = 0
    for p in plain + traced:
        attempted += len(p["commands"])
        for argv, r in zip(workload.commands, p["commands"]):
            if r["rc"] != 0:
                failed += 1
                print(f"failed: gcube {' '.join(argv)}: rc={r['rc']} "
                      f"{r['stderr'].strip()}", file=sys.stderr)
        try:
            errors += workload.check(p["commands"])
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"unreadable output: {type(exc).__name__}: {exc}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "commands": workload.commands,
        "passes": [{key: p[key] for key in ("pass_s", "setup_s", "peak_rss_kb")}
                   | {"seconds": [r["seconds"] for r in p["commands"]]}
                   for p in plain],
        "setup_s": setup,
    }, indent=1))
    if trace:
        per_pass = [layer_values(p) for p in traced]
        # The lower median is the figure of one traced pass, so counts stay
        # whole numbers.
        metrics = {key: statistics.median_low(v[key] for v in per_pass)
                   for key in per_pass[0]}
        metrics["trace.pass_s"] = statistics.median(p["pass_s"] for p in traced)
        metrics["trace.overhead_s"] = (
            metrics["trace.pass_s"] - statistics.median(p["pass_s"] for p in plain))
        units = {m: u for m, u, _ in LAYER_METRICS}
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "commands": workload.commands,
            "missing_sites": traced[0]["missing_sites"],
            "passes": [p["spans"] for p in traced],
        }))
    else:
        metrics = {
            "pass_s": statistics.median(p["pass_s"] for p in plain),
            "op_p50_s": statistics.median(
                r["seconds"] for p in plain for r in p["commands"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in plain),
        }
        units = {"pass_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    for i, argv in enumerate(workload.commands):
        times = [p["commands"][i]["seconds"] for p in plain]
        print(f"{statistics.median(times):9.4f} s  gcube {' '.join(argv)}",
              file=sys.stderr)
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
