"""Length+CRC32 framing: the one record envelope every log-shaped file uses.

A frame is a big-endian header — payload length (4 bytes), CRC32 of the
payload (4 bytes) — followed by the payload itself.  Three users share it:

* the write-ahead log file (:mod:`repro.wal.filelog`), where a frame's file
  offset is its LSN, so the header size is part of LSN arithmetic;
* the cold-history archive store (:mod:`repro.archive.store`), whose record
  type byte travels inside the CRC-covered payload;
* the service wire protocol (:mod:`repro.service.protocol`), which feeds
  socket bytes through the incremental :class:`FrameDecoder`.

The paper's restart rule lives in :func:`scan`: a log scan stops at the
first malformed record — an empty frame, a frame the data ends inside of,
or a payload whose CRC32 mismatches — so a torn or bit-garbled tail is
detected rather than guessed at, and everything before it is the clean
prefix.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator

from repro.errors import TornFrameError

HEADER = struct.Struct(">II")      # payload length, crc32(payload)
HEADER_SIZE = HEADER.size
MAX_FRAME = 16 * 1024 * 1024       # a stream refuses absurd lengths early


def encode(payload: bytes) -> bytes:
    """Wrap a payload in the length+CRC header."""
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan(data: bytes, offset: int = 0) -> Iterator[tuple[int, bytes]]:
    """Yield ``(offset, payload)`` for each intact frame from ``offset`` on.

    Stops silently at the first empty, short or CRC-failing frame; the
    caller's clean prefix ends where the last yielded frame ends.
    """
    while offset + HEADER_SIZE <= len(data):
        length, crc = HEADER.unpack_from(data, offset)
        end = offset + HEADER_SIZE + length
        if length == 0 or end > len(data):
            return
        payload = data[offset + HEADER_SIZE : end]
        if zlib.crc32(payload) != crc:
            return
        yield offset, payload
        offset = end


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunk stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append bytes; return every payload that completed.

        Raises :class:`TornFrameError` on a CRC mismatch or an impossible
        length — after that, the stream cannot be trusted (there is no way
        to find the next frame boundary) and the connection must close.
        """
        self._buf.extend(data)
        payloads: list[bytes] = []
        while True:
            if len(self._buf) < HEADER_SIZE:
                return payloads
            length, crc = HEADER.unpack_from(self._buf)
            if length > MAX_FRAME:
                raise TornFrameError(
                    f"frame claims {length} bytes (max {MAX_FRAME}); "
                    "framing sync lost"
                )
            if len(self._buf) < HEADER_SIZE + length:
                return payloads
            payload = bytes(self._buf[HEADER_SIZE:HEADER_SIZE + length])
            if zlib.crc32(payload) != crc:
                raise TornFrameError(
                    "frame payload failed its CRC32 check; framing sync lost"
                )
            del self._buf[:HEADER_SIZE + length]
            payloads.append(payload)

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
