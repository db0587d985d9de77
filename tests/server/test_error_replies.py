"""ERROR and RETRY_AFTER replies: the client reads their fields strictly.

``code`` and ``error`` must be strings when present (absent, they
default); ``retry_after`` must be a finite number of seconds, at least 0,
since a caller hands it to ``time.sleep``.  Anything else is a
:class:`CodecError`, like any other malformed reply field.
"""

from __future__ import annotations

import pytest

from repro.errors import CodecError
from repro.server import S2SClient
from repro.server.protocol import RemoteServerError, ServerBusyError
from tests.server.test_frame_fuzz import ReplyServer, welcome_then


def status_with(answer):
    """What ``client.status()`` raises against a server answering
    ``answer``."""
    server = ReplyServer(answer)
    try:
        with S2SClient("127.0.0.1", server.port, timeout=5.0) as client:
            with pytest.raises(Exception) as excinfo:
                client.status()
            return excinfo.value
    finally:
        server.close()


@pytest.mark.parametrize("fields", [
    {"code": 5}, {"code": None}, {"code": ["AUTH"]}, {"error": 5},
    {"code": "AUTH", "error": None}, {"error": {"text": "boom"}},
], ids=["code-int", "code-null", "code-list", "error-int", "error-null",
        "error-object"])
def test_a_malformed_error_frame_is_a_codec_error(fields):
    assert type(status_with(welcome_then("ERROR", **fields))) is CodecError


@pytest.mark.parametrize("delay", [float("nan"), -3, -0.5, float("inf"),
                                   float("-inf")],
                         ids=["nan", "minus-three", "minus-half", "inf",
                              "minus-inf"])
def test_a_retry_after_that_cannot_be_slept_is_a_codec_error(delay):
    error = status_with(welcome_then("RETRY_AFTER", retry_after=delay))
    assert type(error) is CodecError


@pytest.mark.parametrize("fields, code, message", [
    ({"code": "AUTH", "error": "bad token"}, "AUTH", "[AUTH] bad token"),
    ({}, "INTERNAL", "[INTERNAL] unknown error"),
])
def test_a_well_formed_error_frame_keeps_its_fields(fields, code, message):
    error = status_with(welcome_then("ERROR", **fields))
    assert type(error) is RemoteServerError
    assert (error.code, str(error)) == (code, message)


@pytest.mark.parametrize("delay", [0, 0.0, 0.25, 2, 2**40])
def test_a_finite_retry_after_is_backpressure(delay):
    error = status_with(welcome_then("RETRY_AFTER", retry_after=delay,
                                     queue_depth=3))
    assert type(error) is ServerBusyError
    assert (error.retry_after, error.queue_depth) == (delay, 3)
