"""The suite's pytest settings: a failing hypothesis test is reported as a
failure, and the run goes on to the tests after it."""

import os
import subprocess
import sys

_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "pyproject.toml")


# Hypothesis raises a DeprecationWarning while it reports a failing example;
# under `filterwarnings = ["error"]` alone that is INTERNALERROR (exit code
# 3), which ends the run.
def test_failing_given_test_ends_only_itself(tmp_path):
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given\n"
        "import hypothesis.strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", _CONFIG,
         "--rootdir", str(tmp_path), "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]
