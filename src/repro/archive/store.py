"""Append-only archive store: blocks and manifest snapshots in one log.

The store is deliberately WAL-shaped.  It holds a single append-only
sequence of framed records of two kinds — **block** records (one archived
history page each, see :mod:`repro.archive.delta`) and **manifest**
records (a JSON snapshot of the run/ref tables) — with an explicit
durable/unsynced boundary:

* :meth:`append_block` / :meth:`append_manifest` only buffer;
* :meth:`sync` makes everything appended so far durable (file variant:
  write + flush + fsync);
* :meth:`crash` discards the unsynced tail, exactly like ``WriteAheadLog``
  in the fault harness.

Recovery needs no separate manifest file: reopening the store scans the
durable records and adopts the **last manifest snapshot**.  Records
appended after that snapshot are orphans — blocks nothing references, or
a manifest that never became the newest durable one — and are harmless:
the migration protocol (see :mod:`repro.archive.manager`) only links a
TSB-tree page to an archive ref *after* the manifest describing that ref
has been synced.

Records are addressed by **logical index** (their position in the record
sequence), which stays stable across reopen because the durable prefix is
immutable.  The file variant writes each record as one
:mod:`repro.framing` frame whose CRC-covered payload is ``type(1) + body``,
and stops its opening scan at the first torn or corrupt frame, exactly as
the WAL does — a damaged type byte is a damaged frame, never a misread
record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro import framing
from repro.clock import Timestamp
from repro.errors import StorageError

RECORD_BLOCK = 0
RECORD_MANIFEST = 1

MANIFEST_FORMAT = 1


def _frames(records: list[tuple[int, bytes]]) -> bytes:
    """The file bytes of ``records``: one frame each, type byte inside."""
    return b"".join(
        framing.encode(bytes((rtype,)) + payload) for rtype, payload in records
    )


class ArchiveStoreError(StorageError):
    """The archive store or one of its records is unusable."""


@dataclass
class BlockMeta:
    """Location and fences of one block within a run."""

    record: int          # logical record index in the store
    length: int          # compressed payload bytes
    raw_bytes: int       # used_bytes of the archived page (pre-compression)
    key_low: bytes
    key_high: bytes
    t_low: Timestamp     # archived page's split_ts
    t_high: Timestamp    # archived page's end_ts (exclusive)

    def to_doc(self) -> list:
        return [
            self.record, self.length, self.raw_bytes,
            self.key_low.hex(), self.key_high.hex(),
            [self.t_low.ttime, self.t_low.sn],
            [self.t_high.ttime, self.t_high.sn],
        ]

    @classmethod
    def from_doc(cls, doc: list) -> "BlockMeta":
        record, length, raw_bytes, klo, khi, tlo, thi = doc
        return cls(
            record=record, length=length, raw_bytes=raw_bytes,
            key_low=bytes.fromhex(klo), key_high=bytes.fromhex(khi),
            t_low=Timestamp(tlo[0], tlo[1]), t_high=Timestamp(thi[0], thi[1]),
        )


@dataclass
class RunMeta:
    """One archive run: a fenced group of blocks at one merge level."""

    run_id: int
    level: int
    blocks: list[BlockMeta] = field(default_factory=list)

    @property
    def key_low(self) -> bytes:
        return min((b.key_low for b in self.blocks), default=b"")

    @property
    def key_high(self) -> bytes:
        return max((b.key_high for b in self.blocks), default=b"")

    @property
    def t_low(self) -> Timestamp:
        return min((b.t_low for b in self.blocks), default=Timestamp.MIN)

    @property
    def t_high(self) -> Timestamp:
        return max((b.t_high for b in self.blocks), default=Timestamp.MIN)

    @property
    def stored_bytes(self) -> int:
        return sum(b.length for b in self.blocks)

    @property
    def raw_bytes(self) -> int:
        return sum(b.raw_bytes for b in self.blocks)

    def to_doc(self) -> dict:
        return {
            "id": self.run_id,
            "level": self.level,
            "blocks": [b.to_doc() for b in self.blocks],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "RunMeta":
        return cls(
            run_id=doc["id"],
            level=doc["level"],
            blocks=[BlockMeta.from_doc(b) for b in doc["blocks"]],
        )


class ArchiveStore:
    """The append-only record log, in-memory or file-backed.

    ``path=None`` keeps everything in memory (the crash-simulation case);
    otherwise records persist at ``path`` with the frame format above.
    Either way the records list holds every known record in order, and
    ``durable_count`` marks how many of them survive :meth:`crash`.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._records: list[tuple[int, bytes]] = []
        self.durable_count = 0
        self._file = None
        if path is not None:
            self._open_file()

    # -- persistence -------------------------------------------------------

    def _open_file(self) -> None:
        # A sidecar left behind means a compaction wrote its replacement
        # log but crashed before the atomic swap: the live file is still
        # the authority, the sidecar is garbage.
        if os.path.exists(self.path + ".compact"):
            os.remove(self.path + ".compact")
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                data = fh.read()
            offset = 0
            for start, payload in framing.scan(data):
                self._records.append((payload[0], payload[1:]))
                offset = start + framing.HEADER_SIZE + len(payload)
            self.durable_count = len(self._records)
            # Reopen truncated to the clean prefix so appends land after it.
            self._file = open(self.path, "r+b")
            self._file.truncate(offset)
            self._file.seek(offset)
        else:
            self._file = open(self.path, "w+b")

    # -- appending ---------------------------------------------------------

    def _append(self, rtype: int, payload: bytes) -> int:
        self._records.append((rtype, payload))
        return len(self._records) - 1

    def append_block(self, payload: bytes) -> int:
        """Buffer one block record; returns its logical record index."""
        return self._append(RECORD_BLOCK, payload)

    def append_manifest(self, doc: dict) -> int:
        """Buffer one manifest snapshot record."""
        payload = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
        return self._append(RECORD_MANIFEST, payload)

    def sync(self) -> None:
        """Make every buffered record durable (file: write+flush+fsync)."""
        if self._file is not None and self.durable_count < len(self._records):
            self._file.write(
                _frames(self._records[self.durable_count :])
            )
            self._file.flush()
            os.fsync(self._file.fileno())
        self.durable_count = len(self._records)

    def crash(self) -> None:
        """Simulate power loss: drop the unsynced tail."""
        del self._records[self.durable_count :]

    # -- compaction --------------------------------------------------------

    def rewrite_prepare(self, records: list[tuple[int, bytes]]) -> None:
        """Write the replacement log to a fsynced sidecar (file variant).

        First half of compaction's two-phase swap: after this returns the
        full replacement exists durably at ``path + ".compact"`` but the
        live log is untouched — a crash here is invisible (the sidecar is
        deleted on reopen).
        """
        if self._file is None:
            return
        with open(self.path + ".compact", "wb") as tmp:
            tmp.write(_frames(records))
            tmp.flush()
            os.fsync(tmp.fileno())

    def rewrite_commit(self, records: list[tuple[int, bytes]]) -> None:
        """Atomically adopt the prepared replacement log.

        File variant: ``os.replace`` of the sidecar over the live file —
        the filesystem guarantees readers see either the old log or the
        new one, never a splice.  The in-memory variant swaps the record
        list in one assignment, modelling the same atomicity.  Every
        adopted record is durable (the sidecar was fsynced), so
        ``durable_count`` covers the whole new sequence.
        """
        if self._file is not None:
            self._file.close()
            os.replace(self.path + ".compact", self.path)
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
        self._records = [(rtype, payload) for rtype, payload in records]
        self.durable_count = len(self._records)

    # -- reading -----------------------------------------------------------

    def read_block(self, record: int) -> bytes:
        """Payload of block record ``record`` (durable or still buffered)."""
        if not 0 <= record < len(self._records):
            raise ArchiveStoreError(f"archive record {record} does not exist")
        rtype, payload = self._records[record]
        if rtype != RECORD_BLOCK:
            raise ArchiveStoreError(f"archive record {record} is not a block")
        return payload

    def last_manifest(self) -> dict | None:
        """The newest *durable* manifest snapshot, or None."""
        for rtype, payload in reversed(self._records[: self.durable_count]):
            if rtype == RECORD_MANIFEST:
                return json.loads(payload.decode())
        return None

    # -- accounting --------------------------------------------------------

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def appended_bytes(self) -> int:
        """Total payload bytes ever appended (live + dead + unsynced)."""
        return sum(len(payload) for _, payload in self._records)

    def close(self) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None
