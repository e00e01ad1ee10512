"""Cold-history archive tiering: codec, migration, crash and quarantine.

The invariant under test everywhere: migrating history off the TSB tree
into the delta-compressed archive must be *observationally invisible* —
every as-of point read, history scan and range scan answers identically
before and after migration, across crashes in the middle of migration,
and (degraded, not wrong) when a stored block is damaged.
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.archive.delta import decode_block, encode_block
from repro.archive.store import ArchiveStore, RECORD_BLOCK
from repro.clock import Timestamp
from repro.core.engine import ImmortalDB
from repro.core.integrity import integrity_report, verify_integrity
from repro.core.rowcodec import ColumnType
from repro.errors import PageQuarantinedError
from repro.faults.models import tear_log_tail
from repro.faults.crashtest import (
    CrashTestConfig,
    enumerate_crossings,
    replay_crash_point,
)
from repro.repair.quarantine import Degraded
from repro.storage.constants import ARCHIVE_PID_BIT, NO_PAGE
from repro.storage.page import DataPage

ARCHIVE_FAST = {"cold_ms": 200.0, "pages_per_step": 64, "auto": False}


def _build(seed: int = 0, *, rounds: int = 30, keys: int = 8,
           pad: int = 500, **db_kwargs) -> tuple[ImmortalDB, object, list]:
    """A db with enough updated history to force time splits, plus marks."""
    db = ImmortalDB(archive=dict(ARCHIVE_FAST), **db_kwargs)
    table = db.create_table(
        "hist", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    filler = "v" * pad
    marks = []
    alive: set[int] = set()
    for r in range(rounds):
        for k in range(keys):
            with db.transaction() as txn:
                value = f"{filler}:s{seed}:r{r}:k{k}"
                if k not in alive:
                    table.insert(txn, {"k": k, "v": value})
                    alive.add(k)
                elif (r + k + seed) % 11 == 3:
                    table.delete(txn, k)
                    alive.discard(k)
                else:
                    table.update(txn, k, {"v": value})
        db.advance_time(60)
        marks.append(db.now())
    db.checkpoint(flush=True)
    return db, table, marks


def _answers(db: ImmortalDB, table, marks, keys: int = 8) -> dict:
    point = {
        (i, k): table.read_as_of(ts, k)
        for i, ts in enumerate(marks) for k in range(keys)
    }
    history = {k: table.history(k) for k in range(keys)}
    scans = {
        i: sorted(
            (row["k"], row["v"]) for row in table.scan_as_of(ts)
        )
        for i, ts in enumerate(marks[:: max(1, len(marks) // 6)])
    }
    return {"point": point, "history": history, "scans": scans}


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


class TestBlockCodec:
    def test_round_trip_is_byte_identical(self):
        """decode(encode(page)) rebuilds the exact on-disk image."""
        db, table, _ = _build()
        checked = 0
        for leaf in table.btree.leaves():
            pid = leaf.history_page_id
            while pid != NO_PAGE and not pid & ARCHIVE_PID_BIT:
                page = db.buffer.get_page(pid)
                clone = decode_block(encode_block(page), page.page_id)
                assert clone.to_bytes() == page.to_bytes()
                checked += 1
                pid = page.history_page_id
        assert checked >= 5, "workload produced too few history pages"
        db.close()

    def test_blocks_compress_cold_history(self):
        """Versions of one key differ by a few bytes: ≥2x on the wire."""
        db, table, _ = _build(pad=500)
        ratios = []
        for leaf in table.btree.leaves():
            pid = leaf.history_page_id
            while pid != NO_PAGE and not pid & ARCHIVE_PID_BIT:
                page = db.buffer.get_page(pid)
                ratios.append(page.used_bytes / len(encode_block(page)))
                pid = page.history_page_id
        assert ratios and min(ratios) > 1.0
        assert sum(ratios) / len(ratios) >= 2.0
        db.close()

    def test_damaged_blob_raises_page_format_error(self):
        from repro.errors import PageFormatError
        db, table, _ = _build(rounds=10)
        leaf = next(iter(table.btree.leaves()))
        page = db.buffer.get_page(leaf.history_page_id)
        blob = encode_block(page)
        for bad in (b"", blob[:-9], b"\x00" * 16, zlib.compress(b"junk")):
            with pytest.raises(PageFormatError):
                decode_block(bad, page.page_id)
        db.close()


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------


class TestArchiveStore:
    def test_crash_drops_unsynced_tail(self):
        store = ArchiveStore()
        a = store.append_block(b"one")
        store.sync()
        store.append_block(b"two")
        store.append_manifest({"x": 1})
        store.crash()
        assert store.record_count == 1
        assert store.read_block(a) == b"one"
        assert store.last_manifest() is None

    # Tails for the frame-damage sweeps: a zlib block, which the manifest
    # decoder must never be handed, and a newer manifest, which must never
    # be silently skipped while its damaged frame stays in the store.
    TAILS = (zlib.compress(b"cold history " * 8), {"refs": [7]})

    @staticmethod
    def _store_with_tail(path: str, *tail) -> tuple[int, int]:
        """[block, manifest] synced, then each ``tail`` record synced.

        A tail record is bytes (a block) or a dict (a manifest).  Returns
        the file size before and after the first tail frame.
        """
        store = ArchiveStore(path)
        store.append_block(b"alpha")
        store.append_manifest({"refs": []})
        sizes = []
        for record in tail:
            store.sync()
            sizes.append(os.path.getsize(path))
            if isinstance(record, dict):
                store.append_manifest(record)
            else:
                store.append_block(record)
        store.close()
        sizes.append(os.path.getsize(path))
        return sizes[0], sizes[1]

    @staticmethod
    def _assert_clean_prefix(path: str, prefix: int) -> None:
        """Reopen keeps exactly [block, manifest]; appends land after it."""
        reopened = ArchiveStore(path)
        assert reopened.record_count == 2
        assert reopened.read_block(0) == b"alpha"
        assert reopened.last_manifest() == {"refs": []}
        assert os.path.getsize(path) == prefix
        after = reopened.append_block(b"after")
        reopened.close()
        final = ArchiveStore(path)
        assert final.record_count == 3
        assert final.read_block(after) == b"after"
        final.close()

    def test_file_reopen_ignores_torn_tail(self, tmp_path):
        path = str(tmp_path / "arch")
        prefix, size = self._store_with_tail(path, b"omega")
        tear_log_tail(path, drop_bytes=size - prefix)
        with open(path, "ab") as fh:  # torn frame: header, no payload
            fh.write(b"\x00\x00\x00\x00\x09")
        self._assert_clean_prefix(path, prefix)
        # The sweep the WAL runs: every truncation point of the final
        # frame, and one flipped bit at each of its bytes.
        for n, tail in enumerate(self.TAILS):
            prefix, size = self._store_with_tail(str(tmp_path / f"t{n}"), tail)
            for cut in range(1, size - prefix + 1):
                path = str(tmp_path / f"t{n}-cut{cut}")
                self._store_with_tail(path, tail)
                tear_log_tail(path, drop_bytes=cut)
                self._assert_clean_prefix(path, prefix)
            for offset in range(prefix, size):
                path = str(tmp_path / f"t{n}-flip{offset}")
                self._store_with_tail(path, tail)
                tear_log_tail(path, garble_at=offset)
                self._assert_clean_prefix(path, prefix)

    def test_flipped_type_byte_is_a_malformed_frame(self, tmp_path):
        """The record type is covered by the frame's CRC like its payload.

        Damage lands mid-store here, with a newer manifest after it.
        Flipping the low bit of whichever byte holds the type turns the
        block into a manifest; that must read as a malformed frame, so the
        scan stops and truncates there rather than adopting the records
        beyond it.
        """
        block, manifest = self.TAILS
        prefix, size = self._store_with_tail(
            str(tmp_path / "t"), block, manifest
        )
        for offset in range(prefix, size):
            path = str(tmp_path / f"flip{offset}")
            self._store_with_tail(path, block, manifest)
            tear_log_tail(path, garble_at=offset)
            self._assert_clean_prefix(path, prefix)


# ---------------------------------------------------------------------------
# migration equivalence
# ---------------------------------------------------------------------------


class TestMigrationEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_reads_identical_after_migration(self, seed):
        db, table, marks = _build(seed)
        before = _answers(db, table, marks)
        moved = db.archive.drain()
        assert moved > 0
        assert db.stats()["archive_pages_freed"] == moved
        assert _answers(db, table, marks) == before
        assert verify_integrity(db) == []
        db.close()

    def test_equivalence_with_route_cache(self):
        db, table, marks = _build(asof_route_cache=True)
        before = _answers(db, table, marks)
        db.archive.drain()
        assert _answers(db, table, marks) == before
        # A second pass comes from the warmed route/page-view caches.
        assert _answers(db, table, marks) == before
        db.close()

    def test_migration_survives_crash_recovery(self):
        db, table, marks = _build()
        before = _answers(db, table, marks)
        db.archive.drain()
        db.crash()
        db.recover()
        table = db.table("hist")
        assert _answers(db, table, marks) == before
        assert verify_integrity(db) == []
        db.close()

    def test_freed_pages_are_reused(self):
        db, table, _ = _build()
        moved = db.archive.drain()
        assert moved > 0
        freed = set(db.disk.free_list.to_list())
        assert len(freed) == moved
        page_count = db.disk.page_count
        # New history growth should consume the freed pids, smallest first.
        expected_first = min(freed)
        for r in range(12):
            for k in range(8):
                with db.transaction() as txn:
                    try:
                        table.update(txn, k, {"v": "y" * 500 + str(r)})
                    except Exception:
                        table.insert(txn, {"k": k, "v": "y" * 500 + str(r)})
            db.advance_time(60)
        db.checkpoint(flush=True)
        assert db.disk.stats.free_reuses > 0
        # Reuse absorbed the growth: far fewer fresh pages than history added.
        assert db.disk.page_count - page_count < db.disk.stats.free_reuses + 12
        assert expected_first not in db.disk.free_list
        db.close()

    def test_storage_shrinks_at_least_2x(self):
        db, _, _ = _build(pad=400)
        db.archive.drain()
        s = db.stats()
        assert s["archive_bytes_raw"] >= 2 * s["archive_bytes_stored"]
        db.close()

    def test_levelled_merge_consolidates_runs(self):
        db, _, _ = _build(rounds=40)
        db.archive.config.pages_per_step = 2   # many small level-0 runs
        merge_at = db.archive.config.merge_threshold
        db.archive.drain()
        assert db.archive.stats.merges > 0
        levels = {}
        for run in db.archive.runs.values():
            levels[run.level] = levels.get(run.level, 0) + 1
        assert all(count < merge_at for count in levels.values())
        # Refs must still resolve after remapping.
        for i in range(len(db.archive.refs)):
            page = db.archive.materialize(ARCHIVE_PID_BIT | i)
            assert isinstance(page, DataPage)
        db.close()

    def test_auto_mode_migrates_during_checkpoints(self):
        db = ImmortalDB(
            archive={"cold_ms": 200.0, "pages_per_step": 8, "auto": True}
        )
        table = db.create_table(
            "auto", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        for r in range(30):
            for k in range(8):
                with db.transaction() as txn:
                    if r == 0:
                        table.insert(txn, {"k": k, "v": "z" * 500})
                    else:
                        table.update(txn, k, {"v": "z" * 500 + str(r)})
            db.advance_time(60)
            if r % 5 == 4:
                db.checkpoint()
        assert db.stats()["archive_pages_migrated"] > 0
        db.close()

    def test_defaults_have_no_archive_side_effects(self):
        db = ImmortalDB()
        assert db.archive is None
        assert db.disk.free_list is None
        table = db.create_table(
            "plain", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "x"})
        db.checkpoint(flush=True)
        # The catalog blob must stay byte-identical to the pre-archive
        # format (no "free_pids" key) so figure baselines cannot move.
        assert b"free_pids" not in db.catalog.to_blob()
        assert db.stats()["archive_pages_migrated"] == 0
        db.close()


# ---------------------------------------------------------------------------
# durability across reopen (file-backed)
# ---------------------------------------------------------------------------


class TestFileBackedArchive:
    def test_reopen_serves_archived_history(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path=path, archive=dict(ARCHIVE_FAST))
        table = db.create_table(
            "hist", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        marks = []
        for r in range(25):
            for k in range(6):
                with db.transaction() as txn:
                    if r == 0:
                        table.insert(txn, {"k": k, "v": f"{'p' * 500}:{r}"})
                    else:
                        table.update(txn, k, {"v": f"{'p' * 500}:{r}:{k}"})
            db.advance_time(60)
            marks.append(db.now())
        db.checkpoint(flush=True)
        before = _answers(db, table, marks, keys=6)
        assert db.archive.drain() > 0
        tick = db.clock.tick
        db.close()

        db2 = ImmortalDB(path=path, archive=dict(ARCHIVE_FAST))
        db2.clock.advance_ms((tick + 1) * 20)
        table2 = db2.table("hist")
        assert _answers(db2, table2, marks, keys=6) == before
        assert db2.stats()["archive_block_reads"] > 0
        assert verify_integrity(db2) == []
        db2.close()


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------


class TestCompaction:
    def test_compact_reclaims_dead_bytes_invisibly(self):
        db, table, marks = _build(rounds=40)
        db.archive.config.pages_per_step = 2   # many small runs -> merges
        db.archive.config.merge_threshold = 4
        db.archive.drain()
        assert db.archive.stats.merges > 0
        before_bytes = db.archive.store.appended_bytes
        before_answers = _answers(db, table, marks)
        reclaimed = db.archive.compact()
        assert reclaimed > 0
        assert db.archive.store.appended_bytes < before_bytes
        # Merge leftovers and stale manifests are gone; live blocks plus
        # exactly one fresh manifest remain.
        assert db.archive.dead_bytes < before_bytes - db.archive.bytes_stored
        assert db.archive.store.record_count == len(db.archive.refs) + 1
        # Every ref still resolves and every answer is unchanged.
        for pid in _archived_ref_pids(db):
            assert isinstance(db.archive.materialize(pid), DataPage)
        assert _answers(db, table, marks) == before_answers
        assert verify_integrity(db) == []
        s = db.stats()
        assert s["archive_compactions"] == 1
        assert s["archive_bytes_reclaimed"] == reclaimed
        db.close()

    def test_compact_ratio_triggers_from_step(self):
        db, table, marks = _build(rounds=40)
        db.archive.config.pages_per_step = 2
        db.archive.config.merge_threshold = 4
        db.archive.config.compact_ratio = 0.2
        db.archive.config.compact_min_bytes = 256
        db.archive.drain()
        assert db.archive.stats.compactions > 0
        assert db.archive.stats.bytes_reclaimed > 0
        assert verify_integrity(db) == []
        db.close()

    def test_compact_survives_crash_recovery(self):
        """The fresh manifest alone must reconstruct the archive."""
        db, table, marks = _build()
        db.archive.drain()
        db.archive.compact()
        before = _answers(db, table, marks)
        db.crash()
        db.recover()
        assert _answers(db, db.table("hist"), marks) == before
        assert verify_integrity(db) == []
        db.close()

    def test_file_backed_compact_swaps_atomically(self, tmp_path):
        import os

        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path=path, archive=dict(ARCHIVE_FAST))
        table = db.create_table(
            "hist", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        marks = []
        for r in range(25):
            for k in range(6):
                with db.transaction() as txn:
                    if r == 0:
                        table.insert(txn, {"k": k, "v": f"{'p' * 500}:{r}"})
                    else:
                        table.update(txn, k, {"v": f"{'p' * 500}:{r}:{k}"})
            db.advance_time(60)
            marks.append(db.now())
        db.checkpoint(flush=True)
        db.archive.config.pages_per_step = 2
        db.archive.config.merge_threshold = 4
        db.archive.drain()
        before = _answers(db, table, marks, keys=6)
        store_path = path + ".archive"
        size_before = os.path.getsize(store_path)
        assert db.archive.compact() > 0
        assert os.path.getsize(store_path) < size_before
        assert not os.path.exists(store_path + ".compact")
        tick = db.clock.tick
        db.close()

        db2 = ImmortalDB(path=path, archive=dict(ARCHIVE_FAST))
        db2.clock.advance_ms((tick + 1) * 20)
        assert _answers(db2, db2.table("hist"), marks, keys=6) == before
        assert verify_integrity(db2) == []
        db2.close()

    def test_stale_sidecar_ignored_on_reopen(self, tmp_path):
        """A compaction that died before the swap leaves only garbage."""
        import os

        path = str(tmp_path / "store.archive")
        store = ArchiveStore(path)
        store.append_block(b"live block payload")
        store.sync()
        store.close()
        with open(path + ".compact", "wb") as fh:
            fh.write(b"half-written replacement from a dead compaction")
        reopened = ArchiveStore(path)
        assert not os.path.exists(path + ".compact")
        assert reopened.record_count == 1
        assert reopened.read_block(0) == b"live block payload"
        reopened.close()


# ---------------------------------------------------------------------------
# crash-during-migration sweep
# ---------------------------------------------------------------------------


class TestCrashDuringMigration:
    def test_every_archive_crossing_recovers_clean(self):
        """Crash at each archive.migrate.* / archive.read.* crossing."""
        config = CrashTestConfig(
            archive=True, route_cache=True, transactions=60
        )
        names = enumerate_crossings(config)
        crossings = [
            i for i, name in enumerate(names) if name.startswith("archive.")
        ]
        assert crossings, "workload never reached the archive seams"
        stages = {names[i].rsplit(".", 1)[-1] for i in crossings}
        assert {"select", "append", "sync", "relink", "free"} <= stages
        # The crashtest archive config sets compact_ratio, so the sweep
        # also kills the process inside the compaction protocol.
        compact_stages = {
            names[i].rsplit(".", 1)[-1]
            for i in crossings if names[i].startswith("archive.compact.")
        }
        assert {"begin", "write", "sync", "swap", "done"} <= compact_stages
        failures = []
        for crossing in crossings:
            report = replay_crash_point(config, crossing)
            if not report.ok:
                failures.append((crossing, report.name, report.problems))
        assert not failures, failures


# ---------------------------------------------------------------------------
# quarantine and degraded reads
# ---------------------------------------------------------------------------


def _archived_ref_pids(db) -> list[int]:
    return [ARCHIVE_PID_BIT | i for i in range(len(db.archive.refs))]


def _tamper_block(db, ref_pid: int) -> None:
    """Corrupt the stored bytes behind one archive ref."""
    run_id, block_idx = db.archive.refs[ref_pid & ~ARCHIVE_PID_BIT]
    record = db.archive.runs[run_id].blocks[block_idx].record
    rtype, payload = db.archive.store._records[record]
    assert rtype == RECORD_BLOCK
    db.archive.store._records[record] = (rtype, b"\xde\xad" + payload[2:])


class TestQuarantine:
    def test_damaged_block_quarantines_not_corrupts(self):
        db, table, marks = _build()
        db.archive.drain()
        victim = _archived_ref_pids(db)[0]
        _tamper_block(db, victim)
        with pytest.raises(PageQuarantinedError):
            db.archive.materialize(victim)
        assert victim in db.archive.quarantined
        assert db.archive.stats.quarantined == 1
        # Old reads now degrade (falsy, typed) instead of failing or lying.
        results = [
            table.read_as_of(ts, k)
            for ts in marks for k in range(8)
        ]
        degraded = [r for r in results if isinstance(r, Degraded)]
        assert degraded, "no read routed through the damaged block"
        assert all(not r for r in degraded)
        db.close()

    def test_quarantine_clears_on_recovery(self):
        db, table, marks = _build()
        db.archive.drain()
        victim = _archived_ref_pids(db)[0]
        _tamper_block(db, victim)
        with pytest.raises(PageQuarantinedError):
            db.archive.materialize(victim)
        db.crash()      # the tamper lives in the durable store: it stays,
        db.recover()    # but the quarantine verdict is re-earned on demand
        assert victim not in db.archive.quarantined
        with pytest.raises(PageQuarantinedError):
            db.archive.materialize(victim)
        db.close()


# ---------------------------------------------------------------------------
# integrity cross-checks
# ---------------------------------------------------------------------------


class TestIntegrityCrossChecks:
    def test_clean_archive_reports_no_findings(self):
        db, _, _ = _build()
        db.archive.drain()
        report = integrity_report(db)
        assert [f for f in report.findings if f.kind == "archive"] == []
        db.close()

    def test_fence_mismatch_is_detected(self):
        db, _, _ = _build()
        db.archive.drain()
        run_id, block_idx = db.archive.refs[0]
        meta = db.archive.runs[run_id].blocks[block_idx]
        meta.t_high = Timestamp(meta.t_high.ttime + 999, 0)
        findings = [
            f for f in integrity_report(db).findings if f.kind == "archive"
        ]
        assert findings and any("fence" in f.detail for f in findings)
        db.close()

    def test_unreadable_block_is_detected(self):
        db, _, _ = _build()
        db.archive.drain()
        _tamper_block(db, ARCHIVE_PID_BIT | 0)
        findings = [
            f for f in integrity_report(db).findings if f.kind == "archive"
        ]
        assert findings
        db.close()

    def test_dangling_ref_is_detected(self):
        db, _, _ = _build()
        db.archive.drain()
        db.archive.refs[0] = (999_999, 0)
        findings = [
            f for f in integrity_report(db).findings if f.kind == "archive"
        ]
        assert findings
        db.close()
