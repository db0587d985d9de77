"""The CI workflow's guards each fail on a planted violation.

``tools/check_guards.py`` copies ``src/`` and ``tools/`` to a scratch
directory and runs every guard step of ``.github/workflows/ci.yml``
there (each ``! grep`` and each ``tools/check_*.py`` checker, such as
the package layers), clean and then with each of its violations planted;
this runs it from the repository root, as CI does.
"""

import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("bash") is None or
                    shutil.which("grep") is None,
                    reason="the guards are bash + grep scripts")
def test_every_guard_fails_on_its_planted_violation():
    completed = subprocess.run(
        [sys.executable, "tools/check_guards.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 problems" in completed.stdout
