"""The exact text each subcommand prints, in every format it accepts.

Exact commands are pinned byte for byte on small fixed inputs.  Solver
digits are not pinned: for `exponent` and `asym` the JSON, CSV and human
forms must show one record, at 17 and 10 significant digits.
"""

import argparse
import json

import pytest

import gcube.cli as cli

FUNCTION = {"d": 1, "entries": [
    {"p": [0], "re": 1.0, "im": 0.5},
    {"p": [2], "re": -0.25, "im": 0.0},
    {"p": [3], "re": 0.5, "im": -1.0},
]}
SET = {"d": 2, "n": 3, "members": [[0, 0], [0, 1], [1, 1], [2, 0], [2, 2]]}

TERMS_3_HUMAN = """\
l=1 size=6
  a=0 h=[1] q=(1/2, 1/2, 0)
  a=0 h=[2] q=(1/2, 0, 1/2)
  a=1 h=[-1] q=(1/2, 1/2, 0)
  a=1 h=[1] q=(0, 1/2, 1/2)
  a=2 h=[-2] q=(1/2, 0, 1/2)
  a=2 h=[-1] q=(0, 1/2, 1/2)
l=2 size=4
  a=0 h=[1, 1] q=(1/4, 1/2, 1/4)
  a=1 h=[-1, 1] q=(1/4, 1/2, 1/4)
  a=1 h=[1, -1] q=(1/4, 1/2, 1/4)
  a=2 h=[-1, -1] q=(1/4, 1/2, 1/4)
"""

TERMS_3_JSON = (
    '{"n":3,"classes":[{"l":1,"size":6,"tuples":['
    '{"a":0,"h":[1],"q":["1/2","1/2","0"]},'
    '{"a":0,"h":[2],"q":["1/2","0","1/2"]},'
    '{"a":1,"h":[-1],"q":["1/2","1/2","0"]},'
    '{"a":1,"h":[1],"q":["0","1/2","1/2"]},'
    '{"a":2,"h":[-2],"q":["1/2","0","1/2"]},'
    '{"a":2,"h":[-1],"q":["0","1/2","1/2"]}]},'
    '{"l":2,"size":4,"tuples":['
    '{"a":0,"h":[1,1],"q":["1/4","1/2","1/4"]},'
    '{"a":1,"h":[-1,1],"q":["1/4","1/2","1/4"]},'
    '{"a":1,"h":[1,-1],"q":["1/4","1/2","1/4"]},'
    '{"a":2,"h":[-1,-1],"q":["1/4","1/2","1/4"]}]}]}\n'
)

GOLDEN = [
    (["norm", "--f", "{f}", "--k", "2"],
     "norm_power = 10.00390625\nnorm = 1.778453045\n"),
    (["norm", "--f", "{f}", "--k", "2", "--format", "human"],
     "norm_power = 10.00390625\nnorm = 1.778453045\n"),
    (["norm", "--f", "{f}", "--k", "3", "--format", "json"],
     '{"k":3,"power":19.604507446289062,"norm":1.4505893743883069}\n'),
    (["energy", "--set", "{A}", "--kind", "P", "--k", "2"], "49\n"),
    (["energy", "--set", "{A}", "--kind", "E", "--k", "3"], "701\n"),
    (["energy", "--set", "{A}", "--kind", "Etilde", "--k", "2", "--format", "json"],
     '{"kind":"Etilde","k":2,"size":5,"value":49}\n'),
    (["energy", "--set", "{A}", "--kind", "E", "--k", "3", "--format", "json"],
     '{"kind":"E","k":3,"size":5,"value":701}\n'),
    (["entropy", "--binomial", "5"],
     "H_5 = 2.198192411\nlower = 2.158059633\nupper = 2.228059633\n"),
    (["entropy", "--binomial", "5", "--format", "json"],
     '{"m":5,"entropy":2.1981924110430979,"lower":2.1580596326243224,'
     '"upper":2.2280596326243223}\n'),
    (["entropy", "--signed", "1,-1,2"],
     "offset = -1\nmasses = 1/8 1/4 1/4 1/4 1/8\n"
     "rearrangement = 1/4 1/4 1/4 1/8 1/8\nentropy = 2.25\n"),
    (["entropy", "--signed=-1,2", "--format", "json"],
     '{"coefficients":[-1,2],"offset":-1,"masses":["1/4","1/4","1/4","1/4"],'
     '"rearrangement":["1/4","1/4","1/4","1/4"],"entropy":2}\n'),
    (["terms", "--n", "3"], TERMS_3_HUMAN),
    (["terms", "--n", "3", "--format", "json"], TERMS_3_JSON),
    (["table1", "--n-max", "4"],
     "n = 2: 1\nn = 3: 1.333333333\nn = 4: 1.656288982\n"),
    (["table1", "--n-max", "4", "--format", "json"],
     '[{"n":2,"coefficient":1},{"n":3,"coefficient":1.3333333333333333},'
     '{"n":4,"coefficient":1.6562889815145492}]\n'),
    (["table1", "--n-max", "4", "--format", "csv"],
     "n,coefficient\n2,1\n3,1.3333333333333333\n4,1.6562889815145492\n"),
]


@pytest.fixture
def inputs(tmp_path):
    f, A = tmp_path / "f.json", tmp_path / "A.json"
    f.write_text(json.dumps(FUNCTION))
    A.write_text(json.dumps(SET))
    return {"f": str(f), "A": str(A)}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv,want", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_exact_commands_print_pinned_text(capsys, inputs, argv, want):
    argv = [a.format(**inputs) for a in argv]
    assert run(capsys, argv) == (0, want, "")


def _cell(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _csv_rows(text):
    header, *rows = text.splitlines()
    keys = header.split(",")
    return keys, [dict(zip(keys, row.split(","))) for row in rows]


def test_exponent_forms_show_one_record(capsys):
    argv = ["exponent", "--k", "2", "--n", "2"]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    record = json.loads(out)
    code, csv_text, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    keys, rows = _csv_rows(csv_text)
    assert keys == ["k", "n", "t", "p", "bracket"]
    assert rows == [{key: _cell(record[key]) for key in keys}]
    human = "".join(f"{key} = {record[key]:.10g}\n" for key in ("t", "p", "bracket"))
    assert run(capsys, argv) == (0, human, "")
    assert run(capsys, argv + ["--format", "human"]) == (0, human, "")


def test_asym_forms_show_one_record(capsys):
    argv = ["asym", "--n", "2", "--k", "3,2"]
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    records = json.loads(out)
    assert [r["k"] for r in records] == [2, 3]
    code, csv_text, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    keys, rows = _csv_rows(csv_text)
    assert keys == ["k", "n", "t_solver", "p", "t_formula", "gap", "lower13", "lower",
                    "upper"]
    assert rows == [{key: _cell(r[key]) for key in keys} for r in records]
    human = "".join(
        f"n = {r['n']}, k = {r['k']}: t = {r['t_solver']:.10g}, p = {r['p']:.10g}, "
        f"formula = {r['t_formula']:.10g}, gap = {r['gap']:.10g}\n" for r in records
    )
    assert run(capsys, argv) == (0, human, "")


def test_emit_builds_only_the_requested_form(capsys):
    def refuse(record):
        raise AssertionError("human lines built for another format")

    args = argparse.Namespace(format="json")
    assert cli._emit(args, {"k": 2, "t": 0.1}, refuse, ("k", "t")) == cli.EXIT_OK
    args.format = "csv"
    assert cli._emit(args, [{"k": 2, "t": 0.1}], refuse, ("k", "t")) == cli.EXIT_OK
    assert capsys.readouterr().out == '{"k":2,"t":0.10000000000000001}\nk,t\n2,0.10000000000000001\n'
