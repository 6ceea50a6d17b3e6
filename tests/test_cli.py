import argparse
import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import gcube
import gcube.asymptotics as asymptotics
import gcube.cli as cli
import gcube.solver as solver_module
import gcube.terms as terms_module
from gcube.entropy import VerificationReport
from gcube.lattice import (
    CubeSet,
    function_to_json,
    indicator,
    set_to_json,
)
from gcube.solver import SolverConfig, solve_exponent
from gcube.terms import pmf_of_tuple


def write_function(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(json.dumps(function_to_json(f)))
    return str(path)


def write_set(tmp_path, name, A):
    path = tmp_path / name
    path.write_text(json.dumps(set_to_json(A)))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_binary(tmp_path, capsys):
    path = write_function(tmp_path, "binary01.json", indicator([(0,), (1,)]))
    code, out, _ = run(capsys, ["norm", "--f", path, "--k", "2"])
    assert code == 0
    assert "norm_power = 6" in out


def test_norm_delta_and_ternary(tmp_path, capsys):
    from gcube.lattice import delta

    path = write_function(tmp_path, "delta.json", delta())
    code, out, _ = run(capsys, ["norm", "--f", path, "--k", "3"])
    assert code == 0 and "norm_power = 1" in out
    path = write_function(tmp_path, "tern012.json", indicator([(0,), (1,), (2,)]))
    code, out, _ = run(capsys, ["norm", "--f", path, "--k", "2"])
    assert code == 0 and "norm_power = 19" in out


def test_norm_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["norm", "--f", str(bad), "--k", "2"])
    assert code == 2
    assert err


def test_norm_missing_flag(capsys):
    code, _, _ = run(capsys, ["norm", "--k", "2"])
    assert code == 2


def test_energy_square(tmp_path, capsys):
    A = CubeSet(2, 2, frozenset([(0, 0), (0, 1), (1, 0), (1, 1)]))
    path = write_set(tmp_path, "A.json", A)
    code, out, _ = run(capsys, ["energy", "--set", path, "--kind", "P", "--k", "2"])
    assert code == 0
    assert out.strip() == "36"
    code, out, _ = run(
        capsys, ["energy", "--set", path, "--kind", "Etilde", "--k", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 100  # (2^3 + 2)^2


def test_non_finite_norm_exits_3(tmp_path, capsys):
    # At k = 5 abs(s) ** 2 overflows; at k = 6 the complex products reach
    # inf without raising.  Both must fail, not print inf.
    from gcube.lattice import LatticeFunction

    f = LatticeFunction(1, {(0,): 1e10, (1,): 1e10})
    path = write_function(tmp_path, "big.json", f)
    for k in ("5", "6"):
        code, out, err = run(capsys, ["norm", "--f", path, "--k", k, "--format", "json"])
        assert code == 3 and out == ""
        assert "numeric failure" in err


def test_k_above_recursion_limit_exits_2(tmp_path, capsys):
    from gcube.lattice import delta

    path = write_function(tmp_path, "delta.json", delta())
    code, out, err = run(capsys, ["norm", "--f", path, "--k", "2000"])
    assert code == 2 and out == "" and err.startswith("error:")
    path = write_set(tmp_path, "A.json", CubeSet(1, 2, frozenset([(0,), (1,)])))
    code, out, err = run(capsys, ["energy", "--set", path, "--kind", "P", "--k", "2000"])
    assert code == 2 and out == "" and err.startswith("error:")


def test_energy_kinds_above_recursion_limit_exit_2(tmp_path, capsys):
    # E and Etilde refuse k = K_RECURSION_MAX + 1 before any work, as P does.
    path = write_set(tmp_path, "A.json", CubeSet(1, 3, frozenset([(0,), (1,), (2,)])))
    for kind in ("E", "Etilde"):
        code, out, err = run(capsys, ["energy", "--set", path, "--kind", kind, "--k", "257"])
        assert code == 2 and out == "" and err.startswith("error:")


def test_energy_E_above_power_size_bound_exits_2(tmp_path, capsys):
    # The size check runs before the power, so a full 3 x 3 x 3 cube at
    # k = 64 fails at once; a small 1-D set still answers at k = 256.
    cube = CubeSet(3, 3, frozenset(
        (x, y, z) for x in range(3) for y in range(3) for z in range(3)
    ))
    path = write_set(tmp_path, "cube.json", cube)
    code, out, err = run(capsys, ["energy", "--set", path, "--kind", "E", "--k", "64"])
    assert code == 2 and out == "" and err.startswith("error:")
    path = write_set(tmp_path, "pair.json", CubeSet(1, 2, frozenset([(0,), (1,)])))
    code, out, _ = run(capsys, ["energy", "--set", path, "--kind", "E", "--k", "256",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == math.comb(512, 256)


def test_exponent_json_fields(capsys):
    code, out, _ = run(capsys, ["exponent", "--k", "2", "--n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"k", "n", "t", "p", "bracket", "argmax"}
    assert payload["t"] == pytest.approx(math.log2(6), abs=1e-6)
    assert len(payload["argmax"]) == 2


def test_exponent_byte_identical(capsys):
    argv = ["exponent", "--k", "2", "--n", "2", "--format", "json", "--seed", "1"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_exponent_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    argv = ["exponent", "--k", "2", "--n", "2", "--format", "json", "--cache", str(cache)]
    code1, out1, _ = run(capsys, argv)
    assert code1 == 0
    lines = cache.read_text().strip().split("\n")
    assert len(lines) == 1
    code2, out2, _ = run(capsys, argv)
    assert code2 == 0 and out2 == out1
    assert len(cache.read_text().strip().split("\n")) == 1  # hit, no new line
    # a tighter tolerance must not reuse the stale entry
    code3, _, _ = run(capsys, argv + ["--tol", "1e-10"])
    assert code3 == 0
    assert len(cache.read_text().strip().split("\n")) == 2


# Well-formed JSON of the wrong shape is skipped like an undecodable line:
# the solve runs and its entry is appended.
def test_exponent_cache_skips_wrong_shapes(tmp_path, capsys, monkeypatch):
    argv = ["exponent", "--k", "2", "--n", "2", "--format", "json"]
    _, fresh, _ = run(capsys, argv)
    solves = []
    inner = cli.solve_exponent

    def counted(*args):
        solves.append(args)
        return inner(*args)

    monkeypatch.setattr(cli, "solve_exponent", counted)
    entry = {**cli._cache_key(SolverConfig(), 2, 2), "tol": 1e-9}
    wrong = {**json.loads(fresh), "t": 9.0}
    # An entry of the former format, keyed by a config hash, whose result
    # would be served under the current key.
    old_format = {"command": "exponent", "k": 2, "n": 2, "cfg_hash": "0123456789abcdef",
                  "tol": 1e-9, "result": json.loads(fresh)}
    lines = [
        "[1, 2]",
        json.dumps(entry),
        json.dumps({**entry, "tol": "1e-9", "result": wrong}),
        json.dumps({**entry, "tol": None, "result": wrong}),
        json.dumps({**entry, "result": [9.0]}),
        json.dumps({**entry, "result": {k: v for k, v in wrong.items() if k != "argmax"}}),
        json.dumps(old_format),
        # JSON false equals 0, but is not the seed 0.
        json.dumps({**entry, "seed": False, "result": json.loads(fresh)}),
    ]
    for i, line in enumerate(lines):
        cache = tmp_path / f"cache{i}.jsonl"
        cache.write_text(line + "\n")
        code, out, err = run(capsys, argv + ["--cache", str(cache)])
        assert (code, out, err) == (0, fresh, ""), line
        assert len(solves) == i + 1, line
        kept, appended = cache.read_text().splitlines()
        assert kept == line
        assert json.loads(appended) == {**entry, "result": json.loads(fresh)}


def _cache_case(tmp_path, capsys, monkeypatch, line):
    # Runs `exponent --n 2 --k 2 --format json` on a cache holding `line` alone;
    # returns (stdout, solves run, cache lines after the run).
    solves = []
    inner = cli.solve_exponent

    def counted(*args):
        solves.append(args)
        return inner(*args)

    monkeypatch.setattr(cli, "solve_exponent", counted)
    cache = tmp_path / "cache.jsonl"
    cache.write_text(line + "\n")
    code, out, err = run(capsys, ["exponent", "--k", "2", "--n", "2", "--format", "json",
                                  "--cache", str(cache)])
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli, "solve_exponent", inner)
    return out, len(solves), cache.read_text().splitlines()


def _cache_entry(capsys, **changes):
    # A well-formed entry for (n, k) = (2, 2) at the default config, with
    # the result of a real solve; `changes` replace entry or result keys.
    _, fresh, _ = run(capsys, ["exponent", "--k", "2", "--n", "2", "--format", "json"])
    result = json.loads(fresh)
    entry = {**cli._cache_key(SolverConfig(), 2, 2), "tol": 1e-9, "result": result}
    for key, value in changes.items():
        (result if key in result else entry)[key] = value
    return fresh, entry


def _assert_skipped(tmp_path, capsys, monkeypatch, fresh, line):
    out, solves, lines = _cache_case(tmp_path, capsys, monkeypatch, line)
    assert out == fresh, line
    assert solves == 1, line
    assert lines[0] == line and json.loads(lines[1])["result"] == json.loads(fresh)


def test_exponent_cache_serves_a_valid_entry(tmp_path, capsys, monkeypatch):
    fresh, entry = _cache_entry(capsys, tol=1e-10)
    line = json.dumps(entry)
    out, solves, lines = _cache_case(tmp_path, capsys, monkeypatch, line)
    assert (out, solves, lines) == (fresh, 0, [line])


# Python's json reads -Infinity and NaN; a tolerance must lie in (0, tol].
@pytest.mark.parametrize("tol", ["-Infinity", "NaN", "Infinity", "0", "0.0", "-1e-09"])
def test_exponent_cache_skips_tolerance_outside_range(tmp_path, capsys, monkeypatch, tol):
    fresh, entry = _cache_entry(capsys, t=9.5, p=4 / 9.5)
    line = json.dumps(entry).replace('"tol": 1e-09', f'"tol": {tol}')
    assert f'"tol": {tol}' in line
    _assert_skipped(tmp_path, capsys, monkeypatch, fresh, line)


# t above k + 1, though p * t = 2^k.
def test_exponent_cache_skips_t_above_trivial_bound(tmp_path, capsys, monkeypatch):
    fresh, entry = _cache_entry(capsys, t=9.5, p=4 / 9.5)
    _assert_skipped(tmp_path, capsys, monkeypatch, fresh, json.dumps(entry))


def test_exponent_cache_skips_p_times_t_off(tmp_path, capsys, monkeypatch):
    fresh, entry = _cache_entry(capsys, p=1.5)
    _assert_skipped(tmp_path, capsys, monkeypatch, fresh, json.dumps(entry))


def test_exponent_cache_skips_nonpositive_t(tmp_path, capsys, monkeypatch):
    fresh, entry = _cache_entry(capsys, t=-2.0, p=-2.0)
    _assert_skipped(tmp_path, capsys, monkeypatch, fresh, json.dumps(entry))


@pytest.mark.parametrize("changes", [
    {"t": "2.5", "p": 1.6},
    {"t": True},
    {"bracket": -1e-10},
    {"bracket": None},
    {"argmax": 0.5},
    {"argmax": [0.5, "0.5"]},
    {"k": 3},
    {"argmax": [0.5]},
    {"argmax": [-3.0, 7.0, 1e300]},
    {"extra": 0},
    # 401-digit JSON integers, past the float range.
    {"t": 10**400},
    {"bracket": 10**400},
    {"argmax": [10**400, 0.5]},
])
def test_exponent_cache_skips_results_that_do_not_rebuild(
        tmp_path, capsys, monkeypatch, changes):
    fresh, entry = _cache_entry(capsys)
    entry["result"].update(changes)
    _assert_skipped(tmp_path, capsys, monkeypatch, fresh, json.dumps(entry))


def test_exponent_cache_skips_nonfinite_result(tmp_path, capsys, monkeypatch):
    fresh, entry = _cache_entry(capsys)
    for key in ("t", "p", "bracket"):
        line = json.dumps({**entry, "result": {**entry["result"], key: math.nan}})
        _assert_skipped(tmp_path, capsys, monkeypatch, fresh, line)


# A line that is not UTF-8, or that nests past the interpreter's recursion
# limit, is skipped like any other bad line, and the entry after it is
# still served.
@pytest.mark.parametrize("bad", [b"\xff\xfe garbage", b"[" * 100_000],
                         ids=["not-utf-8", "nested"])
def test_exponent_cache_skips_undecodable_lines(tmp_path, capsys, monkeypatch, bad):
    fresh, entry = _cache_entry(capsys)
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(bad + b"\n" + json.dumps(entry).encode() + b"\n")
    monkeypatch.setattr(cli, "solve_exponent", None)
    code, out, err = run(capsys, ["exponent", "--k", "2", "--n", "2", "--format", "json",
                                  "--cache", str(cache)])
    assert (code, out, err) == (0, fresh, "")


# A cache does not widen the inputs `exponent` accepts: with an entry on
# file under the requested key, a tolerance below 2 * ulp(k + 1) and a k
# whose 2^k overflows still exit 2 with the message of a run without it.
@pytest.mark.parametrize("k,tol", [(2, "1e-17"), (2000, "1e-9")])
def test_exponent_cache_keeps_input_checks(tmp_path, capsys, k, tol):
    _, fresh, _ = run(capsys, ["exponent", "--k", "2", "--n", "3", "--format", "json"])
    entry = {**cli._cache_key(SolverConfig(), k, 3), "tol": 1e-18,
             "result": {**json.loads(fresh), "k": k}}
    cache = tmp_path / "cache.jsonl"
    cache.write_text(cli.dumps17(entry) + "\n")
    argv = ["exponent", "--k", str(k), "--n", "3", "--tol", tol, "--format", "json"]
    plain = run(capsys, argv)
    assert plain[0] == 2 and plain[2].startswith("error: ")
    assert run(capsys, argv + ["--cache", str(cache)]) == plain
    assert cache.read_text() == cli.dumps17(entry) + "\n"


_SRC = str(Path(__file__).resolve().parents[1] / "src")
# Modules a solve has no use for: numpy's generators, and the libcrypto
# chain secrets -> hmac -> hashlib that importing numpy.random pulls in.
_HEAVY_MODULES = ("numpy.random", "secrets", "hmac", "hashlib")


def _run_fresh(script, *argv):
    """Run `script` in a fresh interpreter that imports gcube from src/;
    return its last line of stdout, parsed as JSON."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(argv):
    """Which of _HEAVY_MODULES a fresh interpreter holds after one gcube
    command."""
    script = ("import json, sys\n"
              "import gcube.cli\n"
              "code = gcube.cli.main(sys.argv[1:])\n"
              f"print(json.dumps([m for m in {_HEAVY_MODULES!r} if m in sys.modules]))\n"
              "sys.exit(code)\n")
    return _run_fresh(script, *argv)


@pytest.mark.parametrize("argv", [["exponent", "--n", "3", "--k", "2"],
                                  ["asym", "--n", "3", "--k", "2,4"],
                                  ["asym", "--n", "2,3", "--k", "2"]])
def test_solve_loads_no_generator_or_crypto(argv):
    assert _modules_after(argv) == []


def test_cache_loads_no_crypto(tmp_path):
    argv = ["exponent", "--n", "3", "--k", "2", "--cache", str(tmp_path / "cache.jsonl")]
    assert _modules_after(argv) == []


def test_exact_commands_never_import_numpy(tmp_path):
    f = write_function(tmp_path, "f.json", indicator([(0,), (1,)]))
    A = write_set(tmp_path, "A.json", CubeSet(1, 2, frozenset([(0,), (1,)])))
    exact = [["norm", "--f", f, "--k", "2"],
             *(["energy", "--set", A, "--kind", kind, "--k", "2"]
               for kind in ("P", "E", "Etilde")),
             ["entropy", "--binomial", "5"], ["entropy", "--signed", "1,2"],
             ["table1", "--n-max", "3"]]
    numeric = [["exponent", "--k", "2", "--n", "2"], ["verify", "--suite", "binary"],
               ["terms", "--n", "3"], ["asym", "--n", "2", "--k", "2"]]
    script = ("import contextlib, io, json, sys\n"
              "import gcube\n"
              "import gcube.cli\n"
              "seen = ['numpy' in sys.modules]\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = gcube.cli.main(argv)\n"
              "    seen.append([code, 'numpy' in sys.modules])\n"
              "print(json.dumps(seen))\n")
    seen = _run_fresh(script, json.dumps(exact + numeric))
    assert seen == [False] + [[0, False]] * len(exact) + [[0, True]] * len(numeric)


# The layers, and the stdlib and numpy modules that only layers import.
_WATCHED = ("dataclasses", "fractions", "inspect", "numpy", *(f"gcube.{m}" for m in (
    "lattice", "gowers", "entropy", "terms", "solver", "asymptotics", "verify")))
# entropy's value classes are dataclasses, which import inspect; those of
# lattice and gowers are not.
_ENTROPY = ["dataclasses", "fractions", "gcube.entropy", "inspect"]
_SOLVER = sorted(_ENTROPY + ["gcube.solver", "gcube.terms", "numpy"])


@pytest.mark.parametrize("module,argv,loaded", [
    ("gcube", [], []),
    ("gcube.cli", [], []),
    ("gcube.cli", ["norm", "--f", "{f}", "--k", "2"], ["gcube.gowers", "gcube.lattice"]),
    *(("gcube.cli", ["energy", "--set", "{A}", "--kind", kind, "--k", "2"],
       ["gcube.gowers", "gcube.lattice"]) for kind in ("P", "E", "Etilde")),
    ("gcube.cli", ["entropy", "--binomial", "5"], _ENTROPY),
    ("gcube.cli", ["entropy", "--signed", "1,2"], _ENTROPY),
    ("gcube.cli", ["exponent", "--k", "2", "--n", "2"], _SOLVER),
    ("gcube.cli", ["terms", "--n", "3"], sorted(_ENTROPY + ["gcube.terms", "numpy"])),
    ("gcube.cli", ["table1", "--n-max", "3"], sorted(_ENTROPY + ["gcube.asymptotics"])),
    ("gcube.cli", ["asym", "--n", "2", "--k", "2"], sorted(_SOLVER + ["gcube.asymptotics"])),
    ("gcube.cli", ["verify", "--suite", "binary"],
     sorted(_ENTROPY + ["gcube.asymptotics", "gcube.gowers", "gcube.lattice",
                        "gcube.terms", "gcube.verify", "numpy"])),
])
def test_each_command_loads_only_its_layers(tmp_path, module, argv, loaded):
    files = {"f": write_function(tmp_path, "f.json", indicator([(0,), (1,)])),
             "A": write_set(tmp_path, "A.json", CubeSet(1, 2, frozenset([(0,), (1,)])))}
    script = ("import contextlib, io, json, sys\n"
              f"import {module}\n"
              "code = 0\n"
              "if sys.argv[1:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = gcube.cli.main(sys.argv[1:])\n"
              f"print(json.dumps([code, [m for m in {_WATCHED!r} if m in sys.modules]]))\n")
    code, seen = _run_fresh(script, *(a.format(**files) for a in argv))
    assert code == 0 and sorted(seen) == loaded


# `gcube.entropy` is the entropy layer, as every other layer's name is its
# module: the package exports no name of its own under it.
def test_package_entropy_is_the_module():
    script = ("import importlib, json, warnings\n"
              "warnings.simplefilter('error')\n"
              "import gcube\n"
              "from gcube import entropy\n"
              "import gcube.entropy as E\n"
              "module = importlib.import_module('gcube.entropy')\n"
              "print(json.dumps([gcube.entropy is module, entropy is module, E is module,\n"
              "                  gcube.entropy.signed_sum_counts((1,)) == (0, (1, 1))]))\n")
    assert _run_fresh(script) == [True, True, True, True]


# Every name `gcube` exports, by the module that defines it.
_EXPORTS = {
    "lattice": ("CubeSet", "LatticeFunction", "convolve", "delta", "indicator",
                "interval_set", "lp_norm", "tensor_power"),
    "gowers": ("GowersSystem", "energy_E", "energy_E_tilde", "energy_P",
               "gowers_inner_product", "gowers_norm_pow", "gowers_norm_recursive"),
    "entropy": ("PMFVector", "binomial_entropy", "binomial_entropy_bounds",
                "decreasing_rearrangement", "entropy_bits", "majorizes", "pmf_signed_sum",
                "verify_entropy_corollary", "verify_majorization_lemma"),
    "terms": ("enumerate_tuple_classes", "objective", "pmf_of_tuple", "term_groups",
              "ternary_objective_check"),
    "solver": ("ExponentPair", "SolverConfig", "gaussian_witness", "max_objective",
               "profile_to_simplex", "solve_exponent", "trivial_bounds",
               "witness_lower_bound"),
    "asymptotics": ("AsymptoticReport", "asymptotic_sweep", "large_k_main_term",
                    "large_n_lower_main_term", "leading_coefficient",
                    "leading_coefficient_rows"),
}

# Exports that only tests call.  Two are brute-force oracles that tests check
# the fast paths against (the objective by direct enumeration, the PMF of one
# tuple class); `delta` is the unit mass the tests build functions on.
_TEST_ONLY_EXPORTS = {"ternary_objective_check", "pmf_of_tuple", "delta"}


def test_every_export_has_a_caller():
    # A caller is any use of the name in a layer other than the package's
    # own table, or in the bench: a name, an attribute, an import, or a
    # string that names it (the bench's tracer sites).
    root = Path(__file__).resolve().parents[1]
    files = [path for path in sorted((root / "src" / "gcube").glob("*.py"))
             if path.name != "__init__.py"]
    files += sorted((root / "bench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used.add(node.value)
    assert sorted(set(gcube._LAZY) - used - _TEST_ONLY_EXPORTS) == []
    assert set(gcube._LAZY) == {name for names in _EXPORTS.values() for name in names}
    # The exception names only exports that need it.
    assert _TEST_ONLY_EXPORTS <= set(gcube._LAZY) - used


def test_package_names_resolve_on_first_use():
    script = ("import importlib, json, sys\n"
              "import gcube\n"
              "bad = [] if 'numpy' not in sys.modules else ['numpy at import']\n"
              "for module, names in json.loads(sys.argv[1]).items():\n"
              "    for name in names:\n"
              "        if name not in dir(gcube):\n"
              "            bad.append(f'{name} not in dir')\n"
              "        ns = {}\n"
              "        exec(f'from gcube import {name}', ns)\n"
              "        own = getattr(importlib.import_module(f'gcube.{module}'), name)\n"
              "        if not getattr(gcube, name) is ns[name] is own:\n"
              "            bad.append(f'{name} is not gcube.{module}.{name}')\n"
              "print(json.dumps(bad))\n")
    assert _run_fresh(script, json.dumps(_EXPORTS)) == []


# bench/tracer.py reads and replaces cli's solver and suite names before any
# command has bound them; the binding on a command's first run keeps the
# wrappers.  Reading one name loads every numpy layer, so a wrapper put on a
# layer's function afterwards (the tracer's terms.term_groups) is not what
# another layer (verify) imports.
def test_wrappers_set_before_binding_survive():
    script = ("import contextlib, io, json, sys\n"
              "import gcube.cli as cli\n"
              "calls = []\n"
              "def counting(fn):\n"
              "    def counted(*args, **kwargs):\n"
              "        calls.append(fn.__name__)\n"
              "        return fn(*args, **kwargs)\n"
              "    return counted\n"
              "setattr(cli, 'solve_exponent', counting(getattr(cli, 'solve_exponent')))\n"
              "calls += [m for m in ('gcube.asymptotics', 'gcube.solver', 'gcube.terms',\n"
              "                      'gcube.verify') if m in sys.modules]\n"
              "suites = dict(cli.SUITES)\n"
              "suites['binary'] = counting(suites['binary'])\n"
              "cli.SUITES = suites\n"
              "codes = []\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes.append(cli.main(['exponent', '--k', '2', '--n', '2']))\n"
              "    codes.append(cli.main(['verify', '--suite', 'binary']))\n"
              "print(json.dumps([codes, calls]))\n")
    assert _run_fresh(script) == [[0, 0], ["gcube.asymptotics", "gcube.solver", "gcube.terms",
                                           "gcube.verify", "solve_exponent", "binary_suite"]]


# The same holds for asymptotics, which binds its solver and term-table names
# on first use: a read of one cli name binds them too, so a wrapper put on
# terms.term_groups afterwards never replaces the cached function whose
# cache asym clears.
def test_wrapper_after_binding_misses_asymptotics():
    script = ("import contextlib, io, json\n"
              "import gcube.cli as cli\n"
              "import gcube.terms as terms\n"
              "cli.SUITES\n"
              "fn = terms.term_groups\n"
              "terms.term_groups = lambda *args: fn(*args)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(['asym', '--n', '2', '--k', '2'])\n"
              "print(json.dumps(code))\n")
    assert _run_fresh(script) == 0


def test_cache_key_covers_config_and_version(monkeypatch):
    # _cache_key reads the solver names cli binds on a command's first run.
    cli._bind(["exponent"])
    base = SolverConfig()
    reference = cli._cache_key(base, 2, 2)
    assert cli._cache_key(dataclasses.replace(base, t_tolerance=1e-6), 2, 2) == reference
    for field in dataclasses.fields(SolverConfig):
        if field.name == "t_tolerance":
            continue
        value = getattr(base, field.name)
        changed = (not value) if isinstance(value, bool) else value + 1
        other = dataclasses.replace(base, **{field.name: changed})
        assert cli._cache_key(other, 2, 2) != reference, field.name
    monkeypatch.setattr(cli, "SOLVER_VERSION", cli.SOLVER_VERSION + 1)
    assert cli._cache_key(base, 2, 2) != reference


def test_exponent_bracket_failure_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ArithmeticError("forced")

    monkeypatch.setattr(cli, "solve_exponent", boom)
    code, _, err = run(capsys, ["exponent", "--k", "2", "--n", "2"])
    assert code == 3
    assert "numeric failure" in err


def test_entropy_binomial(capsys):
    code, out, _ = run(capsys, ["entropy", "--binomial", "2"])
    assert code == 0
    assert "H_2 = 1.5" in out
    code, out, _ = run(capsys, ["entropy", "--binomial", "4", "--format", "json"])
    payload = json.loads(out)
    assert payload["entropy"] == pytest.approx(2.0306390622, abs=1e-9)
    assert payload["lower"] < payload["entropy"] < payload["upper"]


def test_entropy_signed(capsys):
    code, out, _ = run(capsys, ["entropy", "--signed", "1,-1,2"])
    assert code == 0
    assert "offset = -1" in out
    assert "entropy =" in out
    code, out, _ = run(capsys, ["entropy", "--signed", "1,1", "--format", "json"])
    payload = json.loads(out)
    assert payload["masses"] == ["1/4", "1/2", "1/4"]
    assert payload["rearrangement"] == ["1/2", "1/4", "1/4"]


def test_entropy_flag_validation(capsys):
    code, _, err = run(capsys, ["entropy"])
    assert code == 2 and "usage:" in err
    code, _, err = run(capsys, ["entropy", "--binomial", "2", "--signed", "1"])
    assert code == 2 and "usage:" in err
    code, _, err = run(capsys, ["entropy", "--signed", "1,zap"])
    assert code == 2 and "usage:" in err


def test_terms_json(capsys):
    code, out, _ = run(capsys, ["terms", "--n", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    sizes = Counter()
    for row in payload["rows"]:
        sizes[row["l"]] += row["tuples"]
    assert sizes == {0: 4, 1: 12, 2: 16, 3: 8}
    assert set(payload["rows"][0]) == {"l", "m", "b", "tuples", "q"}


def test_terms_q_matches_pmf_of_tuple(capsys):
    # The listing prints each row's counts over 2^l from b; pmf_of_tuple
    # builds the Fractions of the all-positive tuple (b, m) on its own.
    n = 6
    _, out, _ = run(capsys, ["terms", "--n", str(n), "--format", "json"])
    for row in json.loads(out)["rows"]:
        q = [Fraction(c, 2 ** row["l"]) for c in row["q"]]
        want = pmf_of_tuple(n, row["b"], row["m"])
        assert want[row["b"]:row["b"] + len(q)] == tuple(q), row
        assert sum(want) == sum(q) == 1, row


def test_table1(capsys):
    code, out, _ = run(capsys, ["table1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == "n = 2: 1"
    assert "1.333333333" in lines[1]
    code, out, _ = run(capsys, ["table1", "--n-max", "4", "--format", "json"])
    payload = json.loads(out)
    assert [row["n"] for row in payload] == [2, 3, 4]


def test_asym_csv(capsys):
    code, out, _ = run(capsys, ["asym", "--n", "2", "--k", "3,2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,n,t_solver,p,t_formula,gap,lower13,lower,upper"
    assert len(lines) == 3
    assert lines[1].startswith("2,2,") and lines[2].startswith("3,2,")
    code, out, _ = run(capsys, ["asym", "--n", "2", "--k", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload[0]["gap"] == pytest.approx(math.log2(1.5), abs=1e-6)


def test_asym_solves_each_k_once(monkeypatch, capsys):
    solved = []

    def counting(n, k, cfg=None):
        solved.append(k)
        return solve_exponent(n, k, cfg)

    monkeypatch.setattr(asymptotics, "solve_exponent", counting)
    code, out, _ = run(capsys, ["asym", "--n", "3", "--k", "2,3,2", "--format", "csv"])
    assert code == 0
    assert solved == [2, 3]
    rows = out.strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "3"]


def test_asym_bad_k_list(capsys):
    code, _, _ = run(capsys, ["asym", "--n", "2", "--k", "2;3"])
    assert code == 2


def test_asym_checks_every_k_before_solving(monkeypatch, capsys):
    monkeypatch.setattr(asymptotics, "solve_exponent", _refuse("solve_exponent"))
    code, out, err = run(capsys, ["asym", "--n", "40", "--k", "2,3,1024"])
    assert code == 2 and not out and err.startswith("error:") and "1023" in err


# A point that fails the solver's input checks stops the sweep before any
# solve, even when it comes after points that would solve.
def test_asym_checks_every_n_before_solving(monkeypatch, capsys):
    monkeypatch.setattr(asymptotics, "solve_exponent", _refuse("solve_exponent"))
    code, out, err = run(capsys, ["asym", "--n", "2,1", "--k", "2"])
    assert code == 2 and out == "" and "n >= 2 and k >= 2 required" in err


def test_asym_grid_rows_in_n_k_order(capsys):
    code, out, _ = run(capsys, ["asym", "--n", "3,2", "--k", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [(r["n"], r["k"]) for r in rows] == [(2, 2), (3, 2)]
    assert [r["t_solver"] for r in rows] == pytest.approx(
        [2.5849625010, 2.7207109976], abs=1e-9)


# `lower` is log_n P_k({0, ..., n-1}) from the term table, so it has no
# k <= 256 limit of the box-count recursion: P_300({0, 1}) = 602.
def test_asym_p_and_lower_past_k_256(capsys):
    code, out, _ = run(capsys, ["asym", "--n", "2", "--k", "2,300", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["k"] for r in rows] == [2, 300]
    for r in rows:
        assert r["p"] * r["t_solver"] == pytest.approx(2.0 ** r["k"], rel=1e-9)
    assert rows[1]["lower"] == pytest.approx(math.log2(602), rel=1e-12)


def test_verify_pass_and_unknown(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "binary"])
    assert code == 0
    assert "suite binary: PASS" in out
    code, _, err = run(capsys, ["verify", "--suite", "nonsense"])
    assert code == 2
    assert "unknown suite" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing():
        rep = VerificationReport("fake")
        rep.record(False, "synthetic counterexample")
        return rep

    monkeypatch.setitem(cli.SUITES, "binary", failing)
    code, out, _ = run(capsys, ["verify", "--suite", "binary"])
    assert code == 1
    assert "synthetic counterexample" in out


def test_run_config_validation(capsys):
    code, _, err = run(capsys, ["asym", "--n", "2", "--k", "2", "--tol", "0.5"])
    assert code == 2 and "tolerance" in err


def test_tolerance_below_float_spacing_exits_2(monkeypatch, capsys):
    def no_max(*args, **kwargs):
        raise AssertionError("maximization ran")

    monkeypatch.setattr(solver_module, "_probe", no_max)
    code, out, err = run(capsys, ["exponent", "--n", "2", "--k", "2", "--tol", "1e-17"])
    assert code == 2 and not out and "tolerance" in err


def test_k_above_float_range_exits_2(monkeypatch, capsys):
    def no_max(*args, **kwargs):
        raise AssertionError("maximization ran")

    monkeypatch.setattr(solver_module, "_probe", no_max)
    code, out, err = run(capsys, ["exponent", "--n", "2", "--k", "1024"])
    assert code == 2 and not out and "1023" in err


def test_unread_flags_rejected(tmp_path, capsys):
    path = write_function(tmp_path, "delta.json", indicator([(0,)]))
    for argv in (
        ["verify", "--suite", "binary", "--seed", "1"],
        ["table1", "--tol", "1e-9"],
        ["norm", "--f", path, "--k", "2", "--format", "csv"],
        ["exponent", "--k", "2", "--n", "2", "--json"],
        ["exponent", "--k", "2", "--n", "2", "--csv"],
        ["terms", "--n", "3", "--json"],
        ["asym", "--n", "2", "--k", "2", "--csv", "out.csv"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert not out and "usage:" in err and "error" in err


def _refuse(name):
    def worker(*args):
        raise AssertionError(f"{name} ran above its limit")
    return worker


# A term table above terms.TERM_TABLE_BYTES_MAX exits 2 before any table is
# built: at a huge n by the closed-form lower bound, else by the exact count.
@pytest.mark.parametrize("argv", [
    ["exponent", "--k", "2", "--n", "160"],
    ["exponent", "--k", "2", "--n", "100000"],
    ["exponent", "--k", "1023", "--n", "1100"],
    ["asym", "--n", "4,160", "--k", "2"],
])
def test_term_table_above_limit_exits_2(monkeypatch, capsys, argv):
    for module in (terms_module, solver_module):
        monkeypatch.setattr(module, "term_groups", _refuse("term_groups"))
    code, out, err = run(capsys, argv)
    assert code == 2 and not out and err.startswith("error: the term table")
    assert f"above the {terms_module.TERM_TABLE_BYTES_MAX}-byte bound" in err


@pytest.mark.parametrize("n", [1, 0, -2, cli.TERMS_N_MAX + 1])
def test_terms_n_outside_limits_exits_2(monkeypatch, capsys, n):
    monkeypatch.setattr(cli, "term_walk", _refuse("term_walk"))
    code, out, err = run(capsys, ["terms", "--n", str(n)])
    assert code == 2 and not out and err.startswith("error:")


def test_readme_states_terms_bound():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert cli.TERMS_N_MAX == 26
    assert f"`terms --n` lies in [2, {cli.TERMS_N_MAX}]" in readme


# dumps17 writes every value but a float as json.dumps does; ints take a
# shorter path, which bools, being ints, must not.
def test_dumps17_writes_non_floats_as_json_does():
    values = [0, -7, 2 ** 70, True, False, None, "q", [1, [2, True]], {"b": 3}]
    assert cli.dumps17(values) == json.dumps(values, separators=(",", ":"))


def test_limits_lie_above_the_verify_suites():
    assert cli.BINOMIAL_M_MAX >= 1000
    assert cli.SIGNED_SPAN_MAX >= 7
    assert cli.TABLE1_N_MAX >= 8


def test_binomial_m_above_limit_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "binomial_entropy", _refuse("binomial_entropy"))
    m = cli.BINOMIAL_M_MAX + 1
    code, out, err = run(capsys, ["entropy", "--binomial", str(m)])
    assert code == 2 and not out and err.startswith("error:") and str(m) in err
    monkeypatch.setattr(cli, "binomial_entropy", lambda m: 1.0)
    code, _, _ = run(capsys, ["entropy", "--binomial", str(cli.BINOMIAL_M_MAX)])
    assert code == 0


def test_signed_span_above_limit_exits_2(monkeypatch, capsys):
    bound = cli.SIGNED_SPAN_MAX
    code, out, _ = run(capsys, ["entropy", "--signed", str(bound), "--format", "json"])
    assert code == 0 and len(json.loads(out)["masses"]) == bound + 1
    monkeypatch.setattr(cli, "pmf_signed_sum", _refuse("pmf_signed_sum"))
    for signed in (f"{bound},1", f"-{bound - 1},-2", ",".join(["1"] * (bound + 1))):
        code, out, err = run(capsys, ["entropy", f"--signed={signed}"])
        assert code == 2 and not out and err.startswith("error:"), signed
        assert str(bound + 1) in err


def test_table1_n_max_above_limit_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "leading_coefficient_rows", _refuse("table1"))
    code, out, err = run(capsys, ["table1", "--n-max", str(cli.TABLE1_N_MAX + 1)])
    assert code == 2 and not out and err.startswith("error:")
    monkeypatch.setattr(cli, "leading_coefficient_rows", lambda n_max: [(2, 1.0)])
    code, out, _ = run(capsys, ["table1", "--n-max", str(cli.TABLE1_N_MAX)])
    assert code == 0 and out == "n = 2: 1\n"


def test_terms_human_renders_json_payload(capsys):
    _, out, _ = run(capsys, ["terms", "--n", "5", "--format", "json"])
    lines = [f"l={r['l']} m={r['m']} b={r['b']} tuples={r['tuples']} "
             f"q=({', '.join(str(c) for c in r['q'])})/{2 ** r['l']}"
             for r in json.loads(out)["rows"]]
    code, human, _ = run(capsys, ["terms", "--n", "5"])
    assert code == 0
    assert human == "\n".join(lines) + "\n"


# main parses with one parser per process.  A sequence of calls through it
# prints what each call prints with a parser of its own.
def test_repeated_main_calls_share_the_parser(capsys):
    sequence = [
        ["exponent", "--k", "2"],
        ["exponent", "--k", "2", "--n", "2"],
        ["exponent", "--k", "2", "--n", "2", "--format", "json"],
        ["exponent", "--k", "2", "--n", "2"],
        ["exponent", "--k", "2", "--n", "2", "--format", "csv"],
        ["asym", "--n", "2", "--k", "2,3", "--format", "csv"],
        ["verify", "--suite", "?"],
        ["verify", "--suite", "binary"],
    ]
    cli._parser.cache_clear()
    shared = [run(capsys, argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 2, 0]
    assert shared[3][1] == shared[1][1] and shared[3][1].startswith("t = ")
    alone = []
    for argv in sequence:
        cli._parser.cache_clear()
        alone.append(run(capsys, argv))
    assert shared == alone


@pytest.mark.parametrize("kind,blob", [
    ("f", {"d": 1, "entries": [{"p": [0.5], "re": 1.0}, {"p": [1.9], "re": 1.0}]}),
    ("f", {"d": 1, "entries": [{"p": [True], "re": 1.0}]}),
    ("f", {"d": 1.5, "entries": [{"p": [0], "re": 1.0}]}),
    ("f", {"d": 1, "entries": [{"p": [0], "re": 1.0}, {"p": [0], "re": 2.0}]}),
    ("set", {"d": 1, "n": 2.5, "members": [[0]]}),
    ("set", {"d": 1, "n": 2, "members": [[0], [1], [0]]}),
    ("f", {"d": 1, "entries": [{"p": [0], "re": "2", "im": True}]}),
    ("f", {"d": 1, "entries": [{"p": [0], "re": 2.0, "im": "0"}]}),
    ("f", {"d": 1, "entries": [{"p": [0], "re": float("nan")}]}),
    ("f", {"d": 1, "entries": [{"p": [0], "re": float("inf")}]}),
    ("f", {"d": 1, "entries": [{"p": [0], "re": 1.0, "im": float("-inf")}]}),
])
def test_malformed_input_json_exits_2(tmp_path, capsys, kind, blob):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(blob))
    argv = (["norm", "--f", str(path)] if kind == "f"
            else ["energy", "--set", str(path), "--kind", "P"])
    code, out, err = run(capsys, argv + ["--k", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed ")


# Input nested past the interpreter's recursion limit is malformed input,
# not a failed verification.
@pytest.mark.parametrize("kind,what", [("f", "function"), ("set", "set")])
def test_deeply_nested_input_json_exits_2(tmp_path, capsys, kind, what):
    path = tmp_path / "in.json"
    path.write_text("[" * 100_000)
    argv = (["norm", "--f", str(path)] if kind == "f"
            else ["energy", "--set", str(path), "--kind", "P"])
    code, out, err = run(capsys, argv + ["--k", "2"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed {what} JSON: ")


def test_signed_first_value_negative(capsys):
    code, out, _ = run(capsys, ["entropy", "--signed=-1,2"])
    assert code == 0
    assert out.startswith("offset = -1\n")


# bench/tracer.py swaps a wrapper onto each of these names in gcube.cli (a
# new dict for _ENERGY and SUITES); a command that bound one of them at
# import time would bypass it.
@pytest.mark.parametrize("name,key,argv", [
    ("solve_exponent", None, ["exponent", "--k", "2", "--n", "2"]),
    ("_ENERGY", "P", ["energy", "--set", "{A}", "--kind", "P", "--k", "2"]),
    ("_ENERGY", "E", ["energy", "--set", "{A}", "--kind", "E", "--k", "2"]),
    ("_ENERGY", "Etilde", ["energy", "--set", "{A}", "--kind", "Etilde", "--k", "2"]),
    ("load_function", None, ["norm", "--f", "{f}", "--k", "2"]),
    ("load_set", None, ["energy", "--set", "{A}", "--kind", "P", "--k", "2"]),
    ("pmf_signed_sum", None, ["entropy", "--signed", "1,1"]),
    ("SUITES", "binary", ["verify", "--suite", "binary"]),
])
def test_traced_names_are_looked_up_per_call(tmp_path, capsys, monkeypatch,
                                             name, key, argv):
    files = {"f": write_function(tmp_path, "f.json", indicator([(0,), (1,)])),
             "A": write_set(tmp_path, "A.json", CubeSet(1, 2, frozenset([(0,), (1,)])))}
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return counted

    if key is None:
        monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
    else:
        table = dict(getattr(cli, name))
        table[key] = counting(table[key])
        monkeypatch.setattr(cli, name, table)
    code, _, _ = run(capsys, [a.format(**files) for a in argv])
    assert code == 0
    assert len(calls) == 1


def _subcommand_flags():
    # {subcommand: its option strings}, read from the parser itself.
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: set(p._option_string_actions) - {"-h", "--help"}
            for name, p in sub.choices.items()}


def test_readme_library_block_matches_library():
    # Runs the calls of README's "Library" block and checks the values its
    # comments give.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#") for line in block.splitlines() if line.strip()]
    assert [comment.strip() for *_, comment in lines[2:]] == [
        "6.0", "19, exact integer", "t = 2.72071099764..., p * t = 4"]
    namespace = {}
    exec("\n".join(code for code, *_ in lines[:2]), namespace)
    assert eval(lines[2][0], namespace) == 6.0
    assert eval(lines[3][0], namespace) == 19
    exec(lines[4][0], namespace)
    pair = namespace["pair"]
    assert pair.t == pytest.approx(2.72071099764, rel=1e-9)
    assert pair.p * pair.t == pytest.approx(4.0, rel=1e-12)


def test_readme_command_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = _subcommand_flags()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE)
    assert {name for name, _ in rows} == set(flags)
    for name, cell in rows:
        listed = set(re.findall(r"--[a-z][a-z-]*", cell))
        assert listed <= flags[name], (name, listed - flags[name])
    for name, options in flags.items():
        for flag in options:
            assert re.search(re.escape(flag) + r"(?![\w-])", readme), (name, flag)
