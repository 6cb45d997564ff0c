"""The warnings-as-errors setting and hypothesis's failure report together:
a failing property test must not end the session, and a warning must still
fail the test that raises it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# one child session runs all three probes, as the interpreter and its numpy
# and hypothesis imports are most of its time
PROBE_TESTS = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


@settings(max_examples=5, database=None)
@given(st.integers())
def test_passes(x):
    assert x == x


def test_warns():
    warnings.warn("deprecated", DeprecationWarning)
'''


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """The output of pytest, with this suite's settings and conftest, on one
    test file holding the probes."""
    tmp_path = tmp_path_factory.mktemp("probe")
    path = tmp_path / "test_probe.py"
    path.write_text(PROBE_TESTS)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    return proc.stdout + proc.stderr


def test_failing_property_test_leaves_the_session_running(out):
    assert "INTERNALERROR" not in out
    assert "2 failed, 1 passed" in out, out
    assert "FAILED test_probe.py::test_fails" in out, out
    assert "FAILED test_probe.py::test_passes" not in out, out


def test_warning_still_fails_its_test(out):
    assert "FAILED test_probe.py::test_warns" in out, out
    assert "DeprecationWarning" in out, out
