"""Crash-point exploration harness tests.

Runs a smaller-than-default workload (so the suite stays fast) through the
full enumerate → crash-at-each-point → recover → verify protocol, and
checks the harness's own machinery: oracle bookkeeping, deterministic
enumeration, crossing sampling, and the CLI repro path.
"""

from __future__ import annotations

from collections import Counter

import dataclasses

import pytest

from repro.faults.crashtest import (
    CrashTestConfig,
    ShadowOracle,
    _sample,
    build_db,
    enumerate_crossings,
    explore,
    main,
    replay_crash_point,
    run_workload,
)
from repro.storage.constants import NO_PAGE
from repro.storage.page import DataPage, decode_page
from repro.wal.records import MultiPageImage

# Small but seam-complete: enough transactions for several checkpoints and
# marks, a tight buffer for evictions, fat values for page pressure.
SMALL = CrashTestConfig(
    seed=0, transactions=18, keys=8, checkpoint_every=5, mark_every=3,
    buffer_pages=6, value_pad=500,
)


class TestShadowOracle:
    def test_commit_applies_pending(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        assert oracle.acceptable_states() == [{}, {1: "a"}]
        oracle.commit_observed()
        assert oracle.acceptable_states() == [{1: "a"}]

    def test_delete_mutation(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        oracle.commit_observed()
        oracle.begin({1: None})
        assert oracle.acceptable_states() == [{1: "a"}, {}]
        oracle.commit_observed()
        assert oracle.committed == {}

    def test_noop_pending_collapses_acceptable_states(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        oracle.commit_observed()
        oracle.begin({1: "a"})   # overwrite with the identical value
        assert oracle.acceptable_states() == [{1: "a"}]

    def test_marks_snapshot_committed_state(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        oracle.commit_observed()
        oracle.mark("t1")
        oracle.begin({1: "b"})
        oracle.commit_observed()
        assert oracle.marks == [("t1", {1: "a"})]


class TestEnumeration:
    def test_enumeration_is_deterministic(self):
        assert enumerate_crossings(SMALL) == enumerate_crossings(SMALL)

    def test_different_seeds_produce_different_workloads(self):
        # The trace of failpoint *names* can coincide across seeds at small
        # scale; the committed data must not.
        def final_state(seed: int):
            config = CrashTestConfig(
                seed=seed, transactions=18, keys=8, checkpoint_every=5,
                mark_every=3, buffer_pages=6, value_pad=500,
            )
            db, table = build_db(config)
            oracle = ShadowOracle()
            run_workload(db, table, config, oracle)
            return oracle.committed

        assert final_state(0) != final_state(1)

    def test_covers_all_required_seams(self):
        seams = Counter(
            name.split(".")[0] for name in enumerate_crossings(SMALL)
        )
        for seam in ("txn", "log", "buffer", "checkpoint", "disk"):
            assert seams[seam] > 0, f"no crossings on seam {seam!r}"


class TestSample:
    def test_all_points_when_under_budget(self):
        assert _sample(5, 10) == [0, 1, 2, 3, 4]
        assert _sample(5, 0) == [0, 1, 2, 3, 4]

    def test_even_spread_includes_endpoints(self):
        picked = _sample(100, 10)
        assert len(picked) == 10
        assert picked[0] == 0 and picked[-1] == 99
        assert picked == sorted(picked)


class TestReplay:
    def test_single_crash_point_recovers_clean(self):
        report = replay_crash_point(SMALL, 10)
        assert report.crashed
        assert report.ok, report.problems

    def test_unreachable_crossing_reported(self):
        report = replay_crash_point(SMALL, 10**6)
        assert not report.crashed
        assert not report.ok
        assert "never reached" in report.problems[0]


class TestExploration:
    def test_end_to_end_fifty_plus_points(self):
        total = len(enumerate_crossings(SMALL))
        assert total >= 50, (
            f"workload too small: only {total} crossings; the exploration "
            f"test needs >= 50 to satisfy the acceptance criterion"
        )
        result = explore(SMALL, max_points=60)
        assert len(result.explored) >= 50
        assert result.ok, [
            (r.crossing, r.name, r.problems) for r in result.failures
        ]
        seams = {name.split(".")[0] for name in result.by_name}
        assert {"txn", "log", "buffer", "checkpoint", "disk"} <= seams

    def test_progress_callback_sees_every_point(self):
        seen: list[int] = []
        explore(SMALL, max_points=5,
                progress=lambda done, total, report: seen.append(done))
        assert seen == [1, 2, 3, 4, 5]


class TestCLI:
    ARGS = ["--transactions", "18", "--keys", "8"]

    def test_single_point_repro_mode(self, capsys):
        rc = main(["--seed", "0", *self.ARGS, "--crash-point", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_sweep_mode(self, capsys):
        rc = main(["--seed", "0", *self.ARGS, "--max-points", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crossings enumerated" in out
        assert "zero integrity or as-of-equivalence violations" in out

    def test_unreachable_point_exits_nonzero(self, capsys):
        rc = main(["--seed", "0", *self.ARGS, "--crash-point", "999999"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestBatchedFlushCrossings:
    """PR 6: crash points inside the batched write-back path."""

    BATCHED = dataclasses.replace(SMALL, eviction="2q", flush_batch=3)

    def test_flushbatch_crossings_enumerated(self):
        names = enumerate_crossings(self.BATCHED)
        for point in ("buffer.flushbatch.submit",
                      "buffer.flushbatch.write",
                      "buffer.flushbatch.done"):
            assert point in names, f"no crossing at {point}"
        # The per-page path stays in use too (flush_page / unbatched exits).
        assert not any(n.startswith("buffer.flushbatch")
                       for n in enumerate_crossings(SMALL))

    def test_crashes_inside_flush_batches_recover_clean(self):
        names = enumerate_crossings(self.BATCHED)
        points = [i for i, name in enumerate(names)
                  if name.startswith("buffer.flushbatch")]
        assert len(points) >= 3
        # A crash between the batch's single force and any of its page
        # writes leaves a durable prefix; redo must rebuild the rest.
        for crossing in points[:12]:
            report = replay_crash_point(self.BATCHED, crossing)
            assert report.crashed, names[crossing]
            assert report.ok, (names[crossing], report.problems)

    def test_split_pages_never_reach_disk_before_their_smo(self):
        """A page pointing at a split-made page is written only once the
        split's SMO record is durable.

        A split installs a brand-new page (history page, right sibling, or
        moved root leaf), and that admission may evict and batch-write cold
        dirty pages.  Were the rebuilt leaf swapped in first, a batch could
        carry it to disk pointing at a page no durable log record creates,
        and a crash right then left a dangling history link.
        """
        config = dataclasses.replace(
            CrashTestConfig(seed=0), eviction="2q", flush_batch=4
        )
        db, table = build_db(config)
        logged: dict[int, int] = {}      # page id -> LSN of the SMO making it
        append = db.log.append

        def tracking_append(record):
            lsn = append(record)
            if isinstance(record, MultiPageImage):
                for pid in record.affected_pages():
                    logged.setdefault(pid, lsn)
            return lsn

        write_page = db.disk.write_page
        writes = 0

        def checked_write(pid, raw):
            nonlocal writes
            page = decode_page(raw)
            if isinstance(page, DataPage):
                for target in (page.history_page_id, page.next_leaf_id):
                    if target == NO_PAGE:
                        continue
                    assert target in logged, (pid, target)
                    assert logged[target] < db.log.flushed_lsn, (pid, target)
            writes += 1
            write_page(pid, raw)

        db.log.append = tracking_append
        db.disk.write_page = checked_write
        run_workload(db, table, config, ShadowOracle())
        assert writes > 0 and db.buffer.stats.flush_batches > 0

    def test_repro_args_round_trip_new_flags(self):
        args = self.BATCHED.repro_args(crossing=7)
        assert "--eviction 2q" in args
        assert "--flush-batch 3" in args
