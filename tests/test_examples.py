"""Regression tests: every example script runs to completion."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))
# Subprocesses never see pytest's warning filter; a deprecated spelling
# creeping back into an example must fail here instead.
PYTHON = [sys.executable, "-W", "error::DeprecationWarning"]


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS,
                         ids=[s.stem for s in EXAMPLE_SCRIPTS])
def test_example_runs(script):
    completed = subprocess.run(
        [*PYTHON, str(script)], capture_output=True, text=True,
        timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), "example produced no output"


def test_examples_exist():
    assert len(EXAMPLE_SCRIPTS) >= 3  # deliverable (b): at least three


def test_quickstart_shows_owl():
    completed = subprocess.run(
        [*PYTHON, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True, text=True, timeout=120)
    assert "rdf:RDF" in completed.stdout
    assert "thing.product.brand = " in completed.stdout


def test_paper_example_reports_three_sources():
    completed = subprocess.run(
        [*PYTHON, str(EXAMPLES_DIR / "watch_catalog_integration.py")],
        capture_output=True, text=True, timeout=120)
    assert "'DB_ID_45', 'wpage_81'" in completed.stdout.replace(
        '"', "'") or "DB_ID_45" in completed.stdout
    assert "Provider" in completed.stdout or "provider" in completed.stdout
