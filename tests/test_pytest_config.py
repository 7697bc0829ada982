"""The repository's pytest configuration keeps reporting after a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_plain_passes():
    pass
'''


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # Reporting a failing example imports libcst, whose DeprecationWarning
    # `filterwarnings = ["error"]` alone turns into an INTERNALERROR (exit 3)
    # that ends the session before the later tests run.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
