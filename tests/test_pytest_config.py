"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_first(x):
    assert x != x


@settings(database=None, max_examples=5)
@given(st.integers())
def test_second(x):
    assert x != x
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Reporting a Hypothesis failure warns on the way; under the suite's
    # warnings-are-errors setting that must not stop the run at the first one.
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_failing.py::test_first" in done.stdout
    assert "FAILED test_failing.py::test_second" in done.stdout
    assert "2 failed" in done.stdout
    assert done.returncode == 1
