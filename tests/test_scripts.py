"""Argument checks of the exponent table that `gcube asym` prints over an
(n, k) grid: a usage error with exit 2, before any solve."""

import pytest

import gcube.cli as cli


@pytest.mark.parametrize("flag,value", [("--tol", "0"), ("--seed", "-1"), ("--n", "x")])
def test_exponent_table_rejects_argument(capsys, flag, value):
    code = cli.main(["asym", "--n", "2", "--k", "2", flag, value])
    out = capsys.readouterr()
    assert code == 2
    assert not out.out and "usage:" in out.err
