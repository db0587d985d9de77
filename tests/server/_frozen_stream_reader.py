"""Frozen reference for frame reading — the frame fuzz's oracle.

This is the asyncio ``read_frame`` of ``repro/server/protocol.py``
exactly as it stood in release 2.18, the last release whose server ran
an event loop; 2.19 replaced it with one blocking reader over a socket.
``test_frame_fuzz.py`` feeds both the same byte streams, torn at every
offset, and requires the same frames and the same ending.  Not edited.
"""

from __future__ import annotations

import asyncio
import struct

from repro.server.protocol import (MAX_FRAME_BYTES, OversizedFrameError,
                                   TornFrameError, decode_body)

_HEADER = struct.Struct(">I")


async def read_frame(reader: asyncio.StreamReader, *,
                     max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """One frame from the stream; ``None`` on clean EOF at a boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # orderly close between frames
        raise TornFrameError(
            f"connection closed {len(exc.partial)} bytes into a frame "
            f"header") from exc
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise OversizedFrameError(
            f"declared frame length {length} exceeds the {max_bytes}-byte "
            f"limit")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TornFrameError(
            f"connection closed {len(exc.partial)}/{length} bytes into a "
            f"frame body") from exc
    return decode_body(body)
