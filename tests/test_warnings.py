"""The warnings-as-errors setting and hypothesis's failure report together:
a failing property test must not end the session, and a warning must still
fail the test that raises it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTY_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


@settings(max_examples=5, database=None)
@given(st.integers())
def test_passes(x):
    assert x == x
'''

WARNING_TEST = '''
import warnings


def test_warns():
    warnings.warn("deprecated", DeprecationWarning)
'''


def _pytest(tmp_path, source):
    """Run pytest, with this suite's settings and conftest, on one test file
    holding ``source``; returns its output."""
    path = tmp_path / "test_probe.py"
    path.write_text(source)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    return proc.stdout + proc.stderr


def test_failing_property_test_leaves_the_session_running(tmp_path):
    out = _pytest(tmp_path, PROPERTY_TESTS)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out


def test_warning_still_fails_its_test(tmp_path):
    out = _pytest(tmp_path, WARNING_TEST)
    assert "1 failed" in out and "DeprecationWarning" in out, out
