"""The project's pytest configuration reports a failing test as a failure.

Each test writes a deliberately failing test file, or a mistyped copy of
the configuration, to a temporary directory and runs pytest on it in a
subprocess, with this project's pyproject.toml or that copy as its
configuration.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None, max_examples=20)
@given(x=st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""

MISTYPED_MARKER = """
import pytest


@pytest.mark.slwo
def test_marked():
    pass
"""


PASSING = """
def test_passes():
    pass
"""


def _run_pytest(tmp_path, source, config=PYPROJECT):
    test_file = tmp_path / "test_subject.py"
    test_file.write_text(source)
    command = [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path)]
    command += ["-p", "no:cacheprovider", "-q", str(test_file)]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    return result.returncode, result.stdout + result.stderr


def test_failing_property_reports_its_falsifying_example(tmp_path):
    """A failing @given test fails with its falsifying example.  On a
    failure hypothesis imports libcst to write a patch for the example,
    and that import warns in mypy_extensions; the configuration's
    error::DeprecationWarning filter must not turn the warning into an
    INTERNALERROR that ends the session."""
    code, output = _run_pytest(tmp_path, FAILING_PROPERTY)
    assert code == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output


def test_mistyped_marker_is_a_collection_error(tmp_path):
    """--strict-markers: a marker not declared in pyproject.toml stops
    collection, so a mistyped `slow` cannot run its test in tier 1."""
    code, output = _run_pytest(tmp_path, MISTYPED_MARKER)
    assert code == 2, output
    assert "'slwo' not found in `markers` configuration option" in output


def test_mistyped_ini_key_stops_the_run(tmp_path):
    """strict_config: an ini key pytest does not know, here `testpath`
    for `testpaths`, stops pytest before any test runs, instead of
    warning and running with the setting ignored."""
    text = PYPROJECT.read_text()
    assert "\ntestpaths = " in text
    config = tmp_path / "pyproject.toml"
    config.write_text(text.replace("\ntestpaths = ", "\ntestpath = "))
    code, output = _run_pytest(tmp_path, PASSING, config)
    assert code == 4, output
    assert "Unknown config option: testpath" in output and "1 passed" not in output
