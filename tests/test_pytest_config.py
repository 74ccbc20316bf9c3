"""The suite's pytest configuration reports every test.

pyproject.toml turns warnings into errors.  To show a failing example,
hypothesis imports libcst, which imports mypy_extensions, whose import warns
that its TypedDict is deprecated; as an error that warning would abort the
run at the first failing property, and no later test would report.
"""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY_AND_PASSING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY_AND_PASSING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
