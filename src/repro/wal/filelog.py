"""A file-backed log manager: durability across process restarts.

:class:`~repro.wal.log.LogManager` keeps the log in memory, which is ideal
for tests and benchmarks (its ``crash()`` models lost unforced records
exactly).  :class:`FileLogManager` extends it with a real log file:

* every append buffers the framed record; ``force`` writes and fsyncs the
  buffered suffix, so the durable prefix on disk matches ``flushed_lsn``;
* each on-disk frame is a :mod:`repro.framing` frame (length + CRC32 +
  record bytes), so a torn or bit-garbled tail is *detected*, not just
  guessed at: the load scan stops at the first frame that is empty, short
  or CRC-failing, or whose record bytes fail to decode;
* the master checkpoint LSN lives in a small side file, written atomically
  (the "durable master record" a real engine keeps in the log header);
* opening an existing path replays the file into memory — a process that
  died without a clean shutdown recovers by running the normal
  analysis/redo/undo over the reloaded log.

A torn tail (a partially-written final record after a real OS crash) is
truncated on load, mirroring how real log scans stop at the first
malformed record.
"""

from __future__ import annotations

import os

from repro import framing
from repro.errors import LogFormatError, WALError
from repro.faults.failpoints import fire
from repro.wal.log import LogManager, _NO_MUTEX
from repro.wal.records import LogRecord


class FileLogManager(LogManager):
    """LogManager whose durable prefix lives in a real file."""

    # Keeps LSN arithmetic equal to file offsets.
    FRAME_BYTES = framing.HEADER_SIZE

    def __init__(self, path: str | os.PathLike) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self._master_path = self.path + ".master"
        preexisting = os.path.exists(self.path)
        if preexisting:
            self._load()
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
        else:
            self._file = open(self.path, "w+b")
            self._file.write(bytes(self.HEADER_BYTES))
            self._file.flush()
        self._pending: list[bytes] = []   # framed records not yet on disk

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        if len(data) < self.HEADER_BYTES:
            raise WALError(f"{self.path}: shorter than the log header")
        offset = self.HEADER_BYTES
        for lsn, raw in framing.scan(data, offset):
            try:
                LogRecord.decode(raw)
            except LogFormatError:
                break
            self._lsns.append(lsn)
            self._raws.append(raw)
            offset = lsn + self.FRAME_BYTES + len(raw)
        self._end_lsn = offset
        self._flushed_lsn = offset
        if offset < len(data):
            # Truncate the torn tail so appends continue cleanly.
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)
        if os.path.exists(self._master_path):
            with open(self._master_path, "rb") as fh:
                master = int.from_bytes(fh.read(8), "big")
            if master and master < self._flushed_lsn:
                self._master_checkpoint_lsn = master

    # -- appending / forcing ---------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        # The mutex (an RLock, shared with the base class) covers the
        # append-then-frame sequence so concurrent appends cannot interleave
        # between LSN assignment and the pending-frame push.
        with self.mutex or _NO_MUTEX:
            lsn = super().append(record)
            self._pending.append(framing.encode(self._raws[-1]))
            return lsn

    def force(self, upto_lsn: int | None = None) -> None:
        with self.mutex or _NO_MUTEX:
            target = self._end_lsn if upto_lsn is None \
                else min(upto_lsn, self._end_lsn)
            if target <= self._flushed_lsn:
                return
            if self._pending:
                fire("filelog.write")
                self._file.write(b"".join(self._pending))
                self._pending.clear()
                self._file.flush()
                fire("filelog.fsync")
                os.fsync(self._file.fileno())
            super().force(upto_lsn)

    def set_master_checkpoint(self, lsn: int) -> None:
        super().set_master_checkpoint(lsn)
        tmp = self._master_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(lsn.to_bytes(8, "big"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._master_path)

    # -- crash / close -----------------------------------------------------------------

    def crash(self) -> None:
        """Simulated crash: the unforced suffix never reached the file."""
        self._pending.clear()
        super().crash()

    def close(self) -> None:
        """Release underlying resources (idempotent)."""
        if not self._file.closed:
            self.force()
            self._file.close()
