"""Runs the experiment scripts in-process on small inputs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_exponent_table_prints_t(monkeypatch, capsys):
    script = SCRIPTS / "exponent_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n", "2,3", "--k", "2"])
    runpy.run_path(str(script), run_name="__main__")
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    # Columns n, k, t, p, lower, upper, sec; the seconds vary between runs.
    assert [row.split()[2] for row in rows] == ["2.5849625010", "2.7207109976"]


# p at 10 significant digits, as the CLI's human output prints it: at
# k = 300 a fixed-point p would be a 90-digit column.
def test_exponent_table_prints_p_in_one_column(monkeypatch, capsys):
    script = SCRIPTS / "exponent_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n", "2", "--k", "2,300"])
    runpy.run_path(str(script), run_name="__main__")
    header, *rows = [line.split() for line in capsys.readouterr().out.strip().split("\n")]
    assert len(header) == 7 and [len(row) for row in rows] == [7, 7]
    for row, k in zip(rows, (2, 300)):
        assert float(row[3]) * float(row[2]) == pytest.approx(2.0 ** k, rel=1e-9)


# The CLI's argument checks: a usage error with exit 2, before any solve.
@pytest.mark.parametrize("flag,value", [("--tol", "0"), ("--seed", "-1"), ("--n", "x")])
def test_exponent_table_rejects_argument(monkeypatch, capsys, flag, value):
    script = SCRIPTS / "exponent_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n", "2", "--k", "2", flag, value])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


# A point that fails the solver's input checks stops the script before the
# table header, even when it comes after points that would solve.
def test_exponent_table_checks_grid_before_table(monkeypatch, capsys):
    script = SCRIPTS / "exponent_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n", "2,1", "--k", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "n >= 2 and k >= 2 required" in err
