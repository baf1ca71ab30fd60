"""The suite's own pytest settings, applied to a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = """\
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_and_the_session_runs_on(tmp_path):
    # On a failure hypothesis writes a patch through libcst, whose import warns. Were that
    # warning an error, the session would end in INTERNALERROR before test_passes ran.
    (tmp_path / "test_probe.py").write_text(ONE_FAILING_ONE_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1], result.stdout
