"""The suite's own pytest settings, as a failing test meets them."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_warns():
    warnings.warn("a phasebit call is deprecated", DeprecationWarning)
'''


def test_a_failing_hypothesis_test_reports_its_example_and_deprecations_still_fail(tmp_path):
    # on failure hypothesis may print its example through libcst, which warns that
    # mypy_extensions.TypedDict is deprecated; under "error::DeprecationWarning" alone
    # that warning ends the run in INTERNALERROR instead of the falsifying example
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "2 failed" in out, out
    assert done.returncode == 1, out
