"""Command line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
numeric failure.  JSON and CSV output carry 17 significant digits for
round-trip safety; human output uses 10.  Identical invocations with
identical seed and tolerance produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import sys

# Each command's names, by the layer that defines them.  main binds a
# command's names as module globals before it runs, so that a command
# loads only its own layers and `import gcube.cli` loads none: norm and
# energy never load entropy, numpy or `dataclasses` (with `inspect`), and
# table1 and verify never load the solver.  A read of one of these names
# from outside the module (PEP 562) binds every command's names at once.
# A name already set, such as a wrapper put in from outside, is never
# overwritten.  _ENERGY, the energy kinds' functions, is built from gowers.
_EXACT = {".lattice": ("load_function", "load_set"),
          ".gowers": ("gowers_norm_recursive", "_ENERGY")}
_LAYERS = {
    "norm": _EXACT,
    "energy": _EXACT,
    "entropy": {".entropy": ("binomial_entropy", "binomial_entropy_bounds",
                             "decreasing_rearrangement", "entropy", "pmf_signed_sum")},
    "exponent": {".solver": ("SOLVER_VERSION", "ExponentPair", "SolverConfig",
                             "check_problem", "solve_exponent")},
    "terms": {".terms": ("term_walk",)},
    "table1": {".asymptotics": ("leading_coefficient_rows",)},
    "asym": {".asymptotics": ("asymptotic_sweep",), ".solver": ("SolverConfig",)},
    "verify": {".verify": ("SUITES",)},
}
_NAMES = frozenset(name for layers in _LAYERS.values()
                   for names in layers.values() for name in names)


def __getattr__(name):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAYERS)
    # asymptotics binds its solver names on first use as well; bind them now,
    # before a wrapper put on a layer's function could become one of them.
    importlib.import_module(".asymptotics", __package__).bind_solver_names()
    return globals()[name]


def _resolve(module, name):
    if name == "_ENERGY":
        return {"P": module.energy_P, "E": module.energy_E, "Etilde": module.energy_E_tilde}
    return getattr(module, name)


def _bind(commands):
    loaded = len(sys.modules)
    for command in commands:
        for module, names in _LAYERS[command].items():
            missing = [name for name in names if name not in globals()]
            if missing:
                layer = importlib.import_module(module, __package__)
                for name in missing:
                    globals()[name] = _resolve(layer, name)
    if len(sys.modules) > loaded:
        # An import leaves thousands of objects in generations 0 and 1 with
        # a gen-1 collection due; left alone, it lands on a later command
        # (1.0 ms in the fifth `exponent` of one process at k = 2, n = 4..8).
        # Collecting generations 0 and 1 now charges it to the command that
        # imports.
        gc.collect(1)


EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
# The bounds below refuse, before any work, inputs whose time grows past
# about a second on a 2-core VM; each lies above what the verify suites use
# (m <= 1000, n <= 8).  `terms` prints one line per row of the term table
# at k = n - 1; its JSON took 0.76-1.22 s (median 0.84 s of 4) and 4.3 MB
# at n = 26, 1.03-1.33 s and 5.7 MB at n = 27.
TERMS_N_MAX = 26
# `entropy --binomial M` sums M / 2 terms of M-bit binomials: 1.25-1.34 s
# one-shot (1.08-1.13 s in-process) at M = 100,000, about M^2.
BINOMIAL_M_MAX = 100_000
# `entropy --signed` bounded by the span |h_1| + ... + |h_m| of the sum; its
# worst case is all |h_i| = 1 (m = span, 2^m denominators): 0.82 s at 2,000
# and 5.6 s at 4,000, about span^3.
SIGNED_SPAN_MAX = 2_000
# `table1` builds H_1, ..., H_{n-1} by Pascal rows: 0.65-0.95 s one-shot
# (0.46-0.48 s in-process) at n = 2,000, about n^3.
TABLE1_N_MAX = 2_000


def tolerance(text):
    value = float(text)
    if not 0 < value <= 1e-3:
        raise argparse.ArgumentTypeError("tolerance must lie in (0, 1e-3]")
    return value


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def int_list(text):
    """A comma-separated list of ints, such as `2,3,4`."""
    return [int(v) for v in text.split(",")]


def _f10(x):
    return format(float(x), ".10g")


def dumps17(obj):
    """Deterministic JSON with floats at 17 significant digits."""
    if isinstance(obj, float):
        return format(obj, ".17g")
    if type(obj) is int:  # as json.dumps writes it; not a bool
        return str(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps17(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps17(v) for v in obj) + "]"
    return json.dumps(obj)


def _emit(args, record, human, columns=()):
    """Print a command's record in the requested format; return EXIT_OK.

    JSON is the record through dumps17.  CSV is a header of `columns` and a
    row per record (a list of records is a table), each cell through
    dumps17.  Human output is the lines of `human(record)`.  Only the
    requested form is built, and it goes to stdout.
    """
    if args.format == "csv":
        rows = record if isinstance(record, list) else [record]
        lines = [",".join(columns)]
        lines += [",".join(dumps17(row[c]) for c in columns) for row in rows]
    elif args.format == "json":
        lines = [dumps17(record)]
    else:
        lines = human(record)
    for line in lines:
        print(line)
    return EXIT_OK


def build_parser():
    # Each subcommand takes only the flags it reads; these parents hold the
    # flags that several of them share.
    tables = argparse.ArgumentParser(add_help=False)
    tables.add_argument("--format", choices=("human", "json", "csv"), default="human")
    records = argparse.ArgumentParser(add_help=False)
    records.add_argument("--format", choices=("human", "json"), default="human")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=tolerance, default=1e-9, help="solver tolerance")
    solver.add_argument("--seed", type=nonnegative_int, default=0, help="rng seed")

    p = argparse.ArgumentParser(
        prog="gcube",
        description="Box norms, additive energies, and critical exponents "
                    "on discrete cubes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("norm", parents=[records], help="box norm of a function")
    s.add_argument("--f", required=True, help="function JSON file")
    s.add_argument("--k", type=int, required=True)

    s = sub.add_parser("energy", parents=[records], help="exact set energies")
    s.add_argument("--set", required=True, help="set JSON file")
    s.add_argument("--kind", choices=("P", "E", "Etilde"), required=True)
    s.add_argument("--k", type=int, required=True)

    s = sub.add_parser("exponent", parents=[tables, solver],
                       help="critical exponent pair")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--cache", default=None, help="append-only JSONL result cache")

    s = sub.add_parser("entropy", parents=[records], help="entropy utilities")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--binomial", type=int, metavar="M")
    g.add_argument("--signed", type=int_list, metavar="H1,H2,...",
                   help="coefficients h_i; write --signed=-1,2 when h_1 < 0")

    s = sub.add_parser("terms", parents=[records],
                       help="the term table's (m, b) rows with q vectors")
    s.add_argument("--n", type=int, required=True)

    s = sub.add_parser("table1", parents=[tables], help="leading coefficient table")
    s.add_argument("--n-max", type=int, default=6, dest="n_max")

    s = sub.add_parser("asym", parents=[tables, solver], help="(n, k) grid sweep")
    s.add_argument("--n", type=int_list, required=True, metavar="N1,N2,...")
    s.add_argument("--k", type=int_list, required=True, metavar="K1,K2,...")

    s = sub.add_parser("verify", help="run a verification suite")
    s.add_argument("--suite", required=True)

    return p


# main parses with one parser per process, built on its first call:
# parse_args keeps no state between calls, and the build costs about as
# much as a small command.
_parser = functools.cache(build_parser)


def cmd_norm(args):
    f = load_function(args.f)
    power = gowers_norm_recursive(f, args.k)
    record = {"k": args.k, "power": power, "norm": power ** (0.5 ** args.k)}
    return _emit(args, record, lambda r: (f"norm_power = {_f10(r['power'])}",
                                          f"norm = {_f10(r['norm'])}"))


def cmd_energy(args):
    A = load_set(args.set)
    value = _ENERGY[args.kind](A, args.k)
    record = {"kind": args.kind, "k": args.k, "size": A.size, "value": value}
    return _emit(args, record, lambda r: (str(r["value"]),))


def _solver_config(args):
    return SolverConfig(t_tolerance=args.tol, rng_seed=args.seed)


def _cache_key(scfg, k, n):
    """The fields that pick a cache entry for `exponent --k k --n n`.  The
    tolerance stays out: the entry's own `tol` decides reuse, so a looser
    request can be served by a tighter entry."""
    return {"command": "exponent", "k": k, "n": n, "seed": scfg.rng_seed,
            "solver_version": SOLVER_VERSION}


def _cache_lookup(path, key, tol):
    """The pair of the last entry whose fields equal `key`, in type too,
    solved at a tolerance in (0, tol], whose result is for the key's (k, n)
    and holds exactly an ExponentPair's fields, which rebuild into a pair;
    None if there is none.  Every other line is skipped, one that is not
    UTF-8 or nests too deep included."""
    try:
        with open(path, "rb") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        return None
    hit = None
    for raw in lines:
        try:
            # Decoded here, not by json.loads, which would take bytes as
            # UTF-16 or UTF-32 by their first bytes.
            entry = json.loads(raw.decode("utf-8"))
            # type() too: JSON false equals 0, and 2.0 equals 2.
            if any(type(entry[f]) is not type(v) or entry[f] != v
                   for f, v in key.items()) or not 0 < entry["tol"] <= tol:
                continue
            r = entry["result"]
            if (r["k"], r["n"]) != (key["k"], key["n"]):
                continue
            # k and n from the key, so that a JSON 2.0 never prints as k.
            hit = ExponentPair(**{**r, "k": key["k"], "n": key["n"],
                                  "argmax": tuple(r["argmax"])})
        except (ValueError, KeyError, TypeError, RecursionError):
            continue
    return hit


def cmd_exponent(args):
    from dataclasses import fields

    scfg = _solver_config(args)
    check_problem(args.n, args.k, scfg)
    cache_key = _cache_key(scfg, args.k, args.n)
    cached = _cache_lookup(args.cache, cache_key, args.tol) if args.cache else None
    pair = cached or solve_exponent(args.n, args.k, scfg)
    # The fields in order, without the deep copy of asdict: the record
    # only reads them.
    record = {f.name: getattr(pair, f.name) for f in fields(pair)}
    if args.cache and cached is None:
        with open(args.cache, "a") as fh:
            fh.write(dumps17({**cache_key, "tol": args.tol, "result": record}) + "\n")
    return _emit(args, record,
                 lambda r: [f"{key} = {_f10(r[key])}" for key in ("t", "p", "bracket")],
                 columns=("k", "n", "t", "p", "bracket"))


def cmd_entropy(args):
    if args.binomial is not None:
        m = args.binomial
        if m > BINOMIAL_M_MAX:
            raise ValueError(
                f"entropy supports --binomial <= {BINOMIAL_M_MAX}, got {m}"
            )
        h = binomial_entropy(m)
        lo, hi = binomial_entropy_bounds(m)
        record = {"m": m, "entropy": h, "lower": lo, "upper": hi}
        return _emit(args, record, lambda r: (f"H_{r['m']} = {_f10(r['entropy'])}",
                                              f"lower = {_f10(r['lower'])}",
                                              f"upper = {_f10(r['upper'])}"))
    coeffs = args.signed
    span = sum(abs(v) for v in coeffs)
    if span > SIGNED_SPAN_MAX:
        raise ValueError(
            f"entropy supports --signed with |h_1| + ... + |h_m| <= "
            f"{SIGNED_SPAN_MAX}, got {span}"
        )
    pmf = pmf_signed_sum(coeffs)
    record = {
        "coefficients": coeffs,
        "offset": pmf.support_offset,
        "masses": [str(m) for m in pmf.masses],
        "rearrangement": [str(m) for m in decreasing_rearrangement(pmf)],
        "entropy": entropy(pmf),
    }
    return _emit(args, record, lambda r: (
        f"offset = {r['offset']}",
        "masses = " + " ".join(r["masses"]),
        "rearrangement = " + " ".join(r["rearrangement"]),
        f"entropy = {_f10(r['entropy'])}",
    ))


def cmd_terms(args):
    if not 2 <= args.n <= TERMS_N_MAX:
        raise ValueError(f"terms supports 2 <= --n <= {TERMS_N_MAX}, got {args.n}")
    rows = [{"l": len(m), "m": list(m), "b": b, "tuples": tuples, "q": list(counts)}
            for b, m, counts, tuples in term_walk(args.n, args.n - 1)]
    return _emit(args, {"n": args.n, "rows": rows}, lambda r: [
        f"l={row['l']} m={row['m']} b={row['b']} tuples={row['tuples']} "
        f"q=({', '.join(map(str, row['q']))})/{2 ** row['l']}"
        for row in r["rows"]
    ])


def cmd_table1(args):
    if args.n_max > TABLE1_N_MAX:
        raise ValueError(f"table1 supports --n-max <= {TABLE1_N_MAX}, got {args.n_max}")
    rows = [{"n": n, "coefficient": v} for n, v in leading_coefficient_rows(args.n_max)]
    return _emit(args, rows,
                 lambda rs: [f"n = {r['n']}: {_f10(r['coefficient'])}" for r in rs],
                 columns=("n", "coefficient"))


def cmd_asym(args):
    from dataclasses import asdict

    rows = [asdict(r) for r in asymptotic_sweep(args.n, args.k, _solver_config(args))]
    return _emit(args, rows, lambda rs: [
        f"n = {r['n']}, k = {r['k']}: t = {_f10(r['t_solver'])}, p = {_f10(r['p'])}, "
        f"formula = {_f10(r['t_formula'])}, gap = {_f10(r['gap'])}"
        for r in rs
    ], columns=tuple(rows[0]))


def cmd_verify(args):
    suite = SUITES.get(args.suite)
    if suite is None:
        print(f"unknown suite {args.suite!r}; choices: {', '.join(sorted(SUITES))}",
              file=sys.stderr)
        return EXIT_USAGE
    rep = suite()
    for failure in rep.failures:
        print(f"FAIL: {failure}")
    status = "PASS" if rep.passed else "FAIL"
    print(f"suite {args.suite}: {status} ({rep.cases} checks)")
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAIL


_DISPATCH = {
    "norm": cmd_norm,
    "energy": cmd_energy,
    "exponent": cmd_exponent,
    "entropy": cmd_entropy,
    "terms": cmd_terms,
    "table1": cmd_table1,
    "asym": cmd_asym,
    "verify": cmd_verify,
}


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _bind([args.command])
        return _DISPATCH[args.command](args)
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
