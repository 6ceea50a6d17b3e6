"""Runs the experiment scripts in-process on small inputs."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_exponent_table_prints_t(monkeypatch, capsys):
    script = SCRIPTS / "exponent_table.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--n", "2,3", "--k", "2"])
    runpy.run_path(str(script), run_name="__main__")
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    # Columns n, k, t, p, lower, upper, sec; the seconds vary between runs.
    assert [row.split()[2] for row in rows] == ["2.5849625010", "2.7207109976"]
