"""The suite's leak check (``tests/conftest.py``, ``leak_check``) fails a
module that leaves a thread running or a descriptor open, and spares one
marked ``leaks``.  Each case runs a planted module in a nested pytest;
what it plants hangs off this module, which stops or closes it after."""

from __future__ import annotations

import os
import threading

import pytest

#: the planted thread waits on this; the planted descriptors land here
PLANTED_STOP = threading.Event()
PLANTED_DESCRIPTORS: list[int] = []

CONFTEST = "from tests.conftest import leak_check  # noqa: F401\n"

PLANTED_THREAD = """
import threading

import pytest

from tests.test_leak_check import PLANTED_STOP
{mark}

def test_starts_a_thread_it_never_stops():
    threading.Thread(target=PLANTED_STOP.wait, name="planted-leak",
                     daemon=True).start()
"""

PLANTED_DESCRIPTOR = """
import os

from tests.test_leak_check import PLANTED_DESCRIPTORS


def test_opens_a_descriptor_it_never_closes():
    PLANTED_DESCRIPTORS.append(os.open(os.devnull, os.O_RDONLY))
"""


@pytest.fixture
def planted(pytester, monkeypatch):
    """Run a planted module in a nested pytest, then undo what it did."""
    monkeypatch.setattr("tests.conftest.LEAK_GRACE_SECONDS", 0.1)

    def run(source: str):
        pytester.makeconftest(CONFTEST)
        pytester.makepyfile(test_planted=source)
        return pytester.runpytest_inprocess("-p", "no:cacheprovider")
    yield run
    PLANTED_STOP.set()
    for thread in threading.enumerate():
        if thread.name == "planted-leak":
            thread.join(2)
    PLANTED_STOP.clear()
    while PLANTED_DESCRIPTORS:
        os.close(PLANTED_DESCRIPTORS.pop())


def test_a_leaked_thread_fails_its_module(planted):
    result = planted(PLANTED_THREAD.format(mark=""))
    result.assert_outcomes(passed=1, errors=1)
    assert ("test_planted.py leaked 1 thread(s) still running: "
            "['planted-leak']") in result.stdout.str()


def test_a_leaks_mark_spares_its_module(planted):
    result = planted(PLANTED_THREAD.format(
        mark='pytestmark = pytest.mark.leaks("planted on purpose")'))
    result.assert_outcomes(passed=1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="nothing lists this process's descriptors")
def test_a_leaked_descriptor_fails_its_module(planted):
    result = planted(PLANTED_DESCRIPTOR)
    result.assert_outcomes(passed=1, errors=1)
    assert "test_planted.py leaked 1 more open file descriptor(s)" \
        in result.stdout.str()
