"""Crash-point exploration: crash everywhere, recover, verify — repeatably.

The harness answers the paper's hardest question empirically: does lazy
timestamping (whose persistence is *never* logged) plus ARIES-style
recovery keep the database — current state **and** history — correct when
the process dies at an arbitrary instruction, not just at a quiescent
transaction boundary?

Protocol:

1. **Enumerate** — run a seeded workload once with a tracing
   :class:`~repro.faults.failpoints.FailpointRegistry` installed, recording
   every failpoint crossing (commit stages, log appends/forces, buffer
   flushes/evictions, checkpoint phases, page writes).
2. **Explore** — for each crossing *k*, re-run the identical workload from
   scratch, crash (raise ``SimulatedCrash``) at crossing *k*, then run
   ``db.crash()`` / ``db.recover()`` and check:

   * ``verify_integrity(db, strict=True)`` stays clean;
   * the current state equals the shadow oracle's committed model (with the
     one permitted ambiguity: a transaction whose commit record may or may
     not have become durable before the crash);
   * every as-of mark captured before the crash still reproduces exactly.

3. **Replay** — any failure prints a one-line repro command carrying only
   the seed and the crossing index.

Run it: ``PYTHONPATH=src python -m repro.faults.crashtest --seed 0``.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.clock import Timestamp
from repro.core.engine import ImmortalDB
from repro.errors import ConnectionLostError
from repro.core.integrity import IntegrityError, verify_integrity
from repro.core.rowcodec import ColumnType
from repro.core.table import Table
from repro.faults.failpoints import FailpointRegistry, SimulatedCrash, installed
from repro.faults.models import (
    FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    FaultyDisk,
    FaultyWire,
)
from repro.repair.scrub import Scrubber
from repro.storage.disk import InMemoryDisk

TABLE = "crash"

#: stored-image corruption modes exercised by the media-fault sweep
CORRUPT_MODES = ("bitrot", "garbage", "zero")


@dataclass(frozen=True)
class CrashTestConfig:
    """One deterministic workload: everything derives from the seed."""

    seed: int = 0
    # The defaults are sized so one run crosses every interesting seam:
    # ~700-byte rows over 24 hot keys force time splits, a key split, and a
    # root growth, and 8 buffer frames force mid-transaction evictions.
    transactions: int = 90
    keys: int = 24
    checkpoint_every: int = 7
    mark_every: int = 5
    buffer_pages: int = 8
    value_pad: int = 700
    group_commit_window: int = 1
    route_cache: bool = False
    # Buffer-management knobs under test since PR 6: a non-default eviction
    # policy changes *which* page is mid-flight when the crash lands, and
    # flush_batch > 1 routes write-backs through the batched path, putting
    # crossings between a batch's single log force and each page write.
    eviction: str = "lru"
    flush_batch: int = 0
    # Media-fault mode: run on a FaultyDisk with checksums, write
    # verification, transient-IO retry and media recovery enabled; instead
    # of crashing at a crossing, inject a one-shot disk fault there and
    # demand the run *completes* correctly, then corrupt a stored page and
    # demand the scrubber restores it byte-identically.
    media_faults: bool = False
    # Archive mode (PR 7): cold-history tiering on, with a horizon short
    # enough that checkpoints migrate pages mid-workload — adding
    # archive.migrate.* / archive.read.* crossings so crashes land inside
    # the migration protocol (between append/sync/relink/free) and during
    # block materialization.
    archive: bool = False
    # Service mode (PR 8): drive the workload through the sans-IO service
    # core over the loopback wire (real framing, real sessions, real
    # admission), so crashes land at the service.* seams too — between a
    # commit and its client-visible ack, inside ingest batching, during a
    # disconnect abort.  The oracle becomes strictly ack-based: only a
    # response the client actually decoded counts as committed.
    service: bool = False
    # Service-fault mode: instead of crashing, arm one network fault
    # (kind = crossing % 4: torn frame, dropped response, slow-loris,
    # duplicate delivery) at the crossing; the client's retry discipline
    # plus the server's idempotency cache must absorb it — the workload
    # completes and matches the oracle *exactly*.
    service_faults: bool = False
    # Shard mode (PR 10): run the workload against a range-sharded
    # ShardRouter (N engines, shared timestamp authority, presumed-abort
    # 2PC for cross-shard writes).  Every third mutation touches two
    # shards atomically, so crashes land inside the 2PC protocol — between
    # prepare forces, around the coordinator's decision force, during the
    # commit fan-out — and recovery must honour the ack-based contract
    # *cluster-wide*: an acked mutation is visible on every shard, an
    # un-acked one is all-or-nothing (never split across shards).
    shards: int = 0

    def repro_args(self, crossing: int) -> str:
        parts = [f"--seed {self.seed}"]
        if self.media_faults:
            parts.append("--media-faults")
        if self.service:
            parts.append("--service")
        if self.service_faults:
            parts.append("--service-faults")
        if self.transactions != CrashTestConfig.transactions:
            parts.append(f"--transactions {self.transactions}")
        if self.keys != CrashTestConfig.keys:
            parts.append(f"--keys {self.keys}")
        if self.group_commit_window != CrashTestConfig.group_commit_window:
            parts.append(f"--group-commit {self.group_commit_window}")
        if self.route_cache:
            parts.append("--route-cache")
        if self.eviction != CrashTestConfig.eviction:
            parts.append(f"--eviction {self.eviction}")
        if self.flush_batch != CrashTestConfig.flush_batch:
            parts.append(f"--flush-batch {self.flush_batch}")
        if self.archive:
            parts.append("--archive")
        if self.shards:
            parts.append(f"--shards {self.shards}")
        parts.append(f"--crash-point {crossing}")
        return " ".join(parts)


class ShadowOracle:
    """Pure-Python model of what must survive a crash.

    ``committed`` tracks durably-acknowledged commits; ``pending`` the single
    in-flight mutation.  A crash inside commit processing leaves exactly two
    legal outcomes (commit record durable or not), so acceptance is "current
    state ∈ {committed, committed+pending}".  As-of marks are only taken
    between transactions, so they must always reproduce exactly.

    With **group commit** (``group_mode``), a driver-observed commit is only
    *volatile*: its mutation moves to the ``enqueued`` list and reaches
    ``committed`` when the engine's durable-commit hook fires
    (:meth:`on_durable`).  A crash can then lose any un-acked suffix of the
    batch, so the acceptable states widen to every prefix of ``enqueued``
    applied on top of ``committed`` (plus ``pending`` at the end).
    """

    def __init__(self) -> None:
        self.committed: dict[int, str] = {}
        self.marks: list[tuple[Timestamp, dict[int, str]]] = []
        self.pending: dict[int, str | None] | None = None
        self.group_mode = False
        self.enqueued: list[dict[int, str | None]] = []

    def begin(self, mutation: dict[int, str | None]) -> None:
        self.pending = mutation

    def commit_observed(self) -> None:
        if self.group_mode:
            # The durable hook may already have consumed pending (the window
            # filled during this very commit call); otherwise the commit is
            # volatile until the next force acks it.
            if self.pending is not None:
                self.enqueued.append(self.pending)
                self.pending = None
            return
        assert self.pending is not None
        self._apply(self.committed, self.pending)
        self.pending = None

    def on_durable(self) -> None:
        """Engine hook: the next volatile commit just became durable."""
        if self.enqueued:
            self._apply(self.committed, self.enqueued.pop(0))
        elif self.pending is not None:
            # Ack arrived inside the driver's commit call, before
            # commit_observed could move pending into the queue.
            self._apply(self.committed, self.pending)
            self.pending = None

    def mark(self, ts: Timestamp) -> None:
        self.marks.append((ts, dict(self.committed)))

    @staticmethod
    def _apply(state: dict[int, str], mutation: dict[int, str | None]) -> None:
        for key, value in mutation.items():
            if value is None:
                state.pop(key, None)
            else:
                state[key] = value

    def acceptable_states(self) -> list[dict[int, str]]:
        states = [dict(self.committed)]
        cursor = dict(self.committed)
        for mutation in self.enqueued:
            cursor = dict(cursor)
            self._apply(cursor, mutation)
            if cursor not in states:
                states.append(cursor)
        if self.pending is not None:
            extra = dict(cursor)
            self._apply(extra, self.pending)
            if extra not in states:
                states.append(extra)
        return states


def build_db(config: CrashTestConfig) -> tuple[ImmortalDB, Table]:
    """A fresh in-memory database with the harness table (not yet armed)."""
    # A ~500 ms horizon (25 ticks) with the workload's 5-250 ms time
    # advances guarantees checkpoints find cold pages to migrate, so the
    # enumerate pass crosses every archive.migrate.* stage.
    # compact_ratio 0.2 with a tiny floor makes the store compact as soon
    # as merges leave dead records behind, so the enumerate pass also
    # crosses every archive.compact.* stage.
    archive = (
        {"cold_ms": 500.0, "pages_per_step": 4, "merge_threshold": 4,
         "auto": True, "compact_ratio": 0.2, "compact_min_bytes": 256}
        if config.archive else None
    )
    if config.media_faults:
        db = ImmortalDB(
            disk=FaultyDisk(InMemoryDisk(), seed=config.seed),
            buffer_pages=config.buffer_pages,
            group_commit_window=config.group_commit_window,
            asof_route_cache=config.route_cache,
            page_checksums=True,
            media_recovery=True,
            io_retries=3,
            eviction=config.eviction,
            flush_batch=config.flush_batch,
            archive=archive,
        )
    else:
        db = ImmortalDB(
            buffer_pages=config.buffer_pages,
            group_commit_window=config.group_commit_window,
            asof_route_cache=config.route_cache,
            eviction=config.eviction,
            flush_batch=config.flush_batch,
            archive=archive,
        )
    table = db.create_table(
        TABLE,
        [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k",
        immortal=True,
    )
    return db, table


def run_workload(
    db: ImmortalDB, table: Table, config: CrashTestConfig, oracle: ShadowOracle
) -> None:
    """The seeded single-writer workload; identical run-to-run by design.

    Explicit begin/commit (never ``with db.transaction()``): the context
    manager's exception path would *abort* the transaction after a
    simulated crash — post-mortem work a real dead process cannot do.
    """
    if config.group_commit_window > 1:
        oracle.group_mode = True
        db.txn_mgr.durable_commit_hook = lambda txn: oracle.on_durable()
    rng = random.Random(config.seed)
    # The oracle's view of the durably-committed key set; with group commit,
    # oracle.committed lags the driver (volatile commits are in the queue),
    # so the workload's branch decisions consult the driver-side view.
    observed: dict[int, bool] = {}
    for i in range(config.transactions):
        db.advance_time(rng.uniform(5.0, 250.0))
        key = rng.randrange(config.keys)
        delete = observed.get(key, False) and rng.random() < 0.2
        value = None if delete \
            else f"s{config.seed}i{i}" + "x" * rng.randrange(config.value_pad)
        oracle.begin({key: value})
        txn = db.begin()
        if value is None:
            table.delete(txn, key)
        elif observed.get(key, False):
            table.update(txn, key, {"v": value})
        else:
            table.insert(txn, {"k": key, "v": value})
        db.commit(txn)
        oracle.commit_observed()
        observed[key] = value is not None
        if i % config.mark_every == config.mark_every - 1:
            # Settle the batch so the mark snapshots a durable state (a
            # no-op when group commit is off or the queue is empty).
            db.flush_commits()
            oracle.mark(db.now())
            if config.route_cache and oracle.marks:
                # Probe an earlier mark mid-workload: this warms the as-of
                # route cache (adding asof.route.* crossings to explore)
                # and checks it live against the oracle's snapshot.
                ts, snapshot = oracle.marks[
                    rng.randrange(len(oracle.marks))
                ]
                probed = {r["k"]: r["v"] for r in table.scan_as_of(ts)}
                if probed != snapshot:
                    raise AssertionError(
                        f"mid-workload as-of divergence at {ts}: "
                        f"{probed!r} != {snapshot!r}"
                    )
        if i % config.checkpoint_every == config.checkpoint_every - 1:
            db.checkpoint(flush=(i // config.checkpoint_every) % 2 == 0)


def enumerate_crossings(config: CrashTestConfig) -> list[str]:
    """Run the workload once, uncrashed; return every crossing's name."""
    db, table = build_db(config)
    registry = FailpointRegistry()
    registry.trace_on()
    with installed(registry):
        run_workload(db, table, config, ShadowOracle())
    assert registry.trace is not None
    return registry.trace


@dataclass
class CrashReport:
    """Outcome of crashing at one crossing and recovering."""

    crossing: int
    name: str
    crashed: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _current_state(db: ImmortalDB, table: Table) -> dict[int, str]:
    txn = db.begin()
    got = {row["k"]: row["v"] for row in table.scan(txn)}
    db.commit(txn)
    return got


def replay_crash_point(config: CrashTestConfig, crossing: int) -> CrashReport:
    """Crash at one crossing, recover, and verify every invariant."""
    db, table = build_db(config)
    oracle = ShadowOracle()
    registry = FailpointRegistry()
    registry.crash_at(crossing)
    crashed = False
    name = "<workload end>"
    try:
        with installed(registry):
            run_workload(db, table, config, oracle)
    except SimulatedCrash as crash:
        crashed = True
        name = crash.name
    report = CrashReport(crossing=crossing, name=name, crashed=crashed)
    if not crashed:
        report.problems.append(
            f"crossing {crossing} was never reached "
            f"(workload has {registry.crossings} crossings)"
        )
        return report

    db.crash()
    db.recover()
    table = db.table(TABLE)

    try:
        verify_integrity(db, strict=True)
    except IntegrityError as exc:
        report.problems.append(f"integrity: {exc}")

    got = _current_state(db, table)
    acceptable = oracle.acceptable_states()
    if got not in acceptable:
        report.problems.append(
            f"current-state divergence: recovered {got!r}, "
            f"acceptable {acceptable!r}"
        )
    for ts, snapshot in oracle.marks:
        as_of = {row["k"]: row["v"] for row in table.scan_as_of(ts)}
        if as_of != snapshot:
            report.problems.append(
                f"as-of divergence at {ts}: recovered {as_of!r}, "
                f"expected {snapshot!r}"
            )
    return report


def replay_media_point(config: CrashTestConfig, crossing: int) -> CrashReport:
    """Inject one disk fault at a crossing; the engine must absorb it.

    Two phases, both derived from the crossing index alone (so a failure
    repro needs only the seed and the crossing, exactly like crash mode):

    1. **Inline fault.** A one-shot fault of kind
       ``FAULT_KINDS[crossing % 5]`` is armed when execution reaches
       crossing ``crossing``, hitting the next matching disk op.  Every
       kind has an inline defense — transient IO errors are retried with
       backoff, bitrot reads are restored by the buffer's fault handler,
       torn and dropped writes are caught by write verification — so the
       workload must run to *completion* (no crash, no escape) and match
       the oracle exactly.
    2. **Latent corruption at rest.** After quiescing, the *stored* image
       of page ``crossing % page_count`` is damaged (mode rotates through
       bitrot/garbage/zero) and a scrubber pass runs.  The scrubber must
       find the damage, restore the page byte-identically from backup +
       archived log records, and come back clean on a second pass.
    """
    db, table = build_db(config)
    disk: FaultyDisk = db.disk  # type: ignore[assignment]
    oracle = ShadowOracle()
    registry = FailpointRegistry()
    kind = FAULT_KINDS[crossing % len(FAULT_KINDS)]
    armed = [False]

    def arm(event) -> None:
        if event.crossing == crossing and not armed[0]:
            armed[0] = True
            disk.arm(kind)

    registry.on("*", arm)
    report = CrashReport(
        crossing=crossing, name=f"{kind}@{crossing}", crashed=False
    )
    try:
        with installed(registry):
            run_workload(db, table, config, oracle)
            db.flush_commits()
            db.buffer.flush_all()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        report.problems.append(
            f"workload did not absorb injected {kind}: {exc!r}"
        )
        return report
    if not armed[0]:
        report.problems.append(
            f"crossing {crossing} was never reached "
            f"(workload has {registry.crossings} crossings)"
        )
        return report
    report.crashed = True  # in media mode: "the fault was armed"
    # A fault armed very late may find no matching op left in the run;
    # drop it so phase 2 stays deterministic (it proved nothing either way).
    disk.disarm()

    target = crossing % disk.page_count
    mode = CORRUPT_MODES[(crossing // len(FAULT_KINDS)) % len(CORRUPT_MODES)]
    good = disk.inner._read(target)
    disk.corrupt_stored(target, mode=mode)
    scrubber = Scrubber(db)
    findings = scrubber.full_pass()
    if not any(f.page_id == target for f in findings):
        report.problems.append(
            f"scrubber missed {mode} corruption on page {target}"
        )
    repaired = disk.inner._read(target)
    if repaired != good:
        report.problems.append(
            f"page {target} not byte-identical after {mode} repair"
        )
    leftover = scrubber.full_pass()
    if leftover:
        report.problems.append(
            f"second scrub pass not clean: "
            f"{sorted({(f.kind, f.page_id) for f in leftover})}"
        )

    try:
        verify_integrity(db, strict=True)
    except IntegrityError as exc:
        report.problems.append(f"integrity: {exc}")
    got = _current_state(db, table)
    acceptable = oracle.acceptable_states()
    if got not in acceptable:
        report.problems.append(
            f"current-state divergence: got {got!r}, "
            f"acceptable {acceptable!r}"
        )
    for ts, snapshot in oracle.marks:
        as_of = {row["k"]: row["v"] for row in table.scan_as_of(ts)}
        if as_of != snapshot:
            report.problems.append(
                f"as-of divergence at {ts}: got {as_of!r}, "
                f"expected {snapshot!r}"
            )
    return report


# ---------------------------------------------------------------------------
# Service mode: the same contract, across a failure-prone wire
# ---------------------------------------------------------------------------


def _build_service(config: CrashTestConfig):
    """A fresh engine fronted by a sans-IO service core over loopback."""
    from repro.service.core import ServiceCore
    from repro.service.transport import LoopbackConnection

    db, table = build_db(config)
    core = ServiceCore(db)   # inline execution: crashes propagate in-stack
    wire = FaultyWire(seed=config.seed) if config.service_faults else None
    conn = LoopbackConnection(
        core, wire=wire, client_key=f"crash-s{config.seed}"
    )
    return db, table, core, conn, wire


def run_service_workload(
    db: ImmortalDB,
    config: CrashTestConfig,
    oracle: ShadowOracle,
    conn,
) -> None:
    """The seeded workload, driven through the service protocol.

    The oracle is strictly *ack-based*: a mutation counts as committed only
    once the client has decoded an ``ok`` response — which, by the service's
    durability gate, implies the commit record was forced.  A crash mid-
    request leaves the mutation in ``pending`` (the one permitted
    ambiguity).  Every ninth operation opens a transaction bracket, writes
    a poison value, and drops the connection — the abort-on-disconnect
    path; poison must never appear in any verified state.

    As-of marks are ISO datetime strings (the protocol's temporal
    currency): probed live through ``SELECT … AS OF`` over the wire, and
    re-verified post-recovery through the engine, so wire and engine views
    must agree before *and* after the crash.
    """
    rng = random.Random(config.seed)
    observed: dict[int, bool] = {}
    for i in range(config.transactions):
        db.advance_time(rng.uniform(5.0, 250.0))
        key = rng.randrange(config.keys)
        live_keys = [k for k, alive in observed.items() if alive]
        if i % 9 == 4 and live_keys:
            # Mid-transaction disconnect: bracket, write poison, vanish.
            # An injected network fault may kill the bracket before the
            # deliberate drop does — same outcome (abort), so absorb it.
            victim = live_keys[rng.randrange(len(live_keys))]
            try:
                conn.execute("BEGIN TRAN")
                conn.execute(
                    f"UPDATE {TABLE} SET v = 'poison{i}' WHERE k = {victim}"
                )
            except ConnectionLostError:
                pass
            conn.drop_connection()
        delete = observed.get(key, False) and rng.random() < 0.2
        value = None if delete \
            else f"s{config.seed}i{i}" + "x" * rng.randrange(config.value_pad)
        oracle.begin({key: value})
        if value is None:
            sql = f"DELETE FROM {TABLE} WHERE k = {key}"
        elif observed.get(key, False):
            sql = f"UPDATE {TABLE} SET v = '{value}' WHERE k = {key}"
        else:
            sql = f"INSERT INTO {TABLE} (k, v) VALUES ({key}, '{value}')"
        response = conn.execute(sql)
        if response.get("status") != "ok":
            raise AssertionError(
                f"service refused op {i}: {response!r}"
            )
        oracle.commit_observed()
        observed[key] = value is not None
        if i % config.mark_every == config.mark_every - 1:
            db.flush_commits()
            mark = db.clock.now_datetime().isoformat(sep=" ")
            # Advance past the mark's tick so later commits sort after it.
            db.clock.advance_ticks(1)
            oracle.mark(mark)
            probe = conn.execute(
                f"SELECT k, v FROM {TABLE} AS OF '{mark}'"
            )
            if probe.get("status") != "ok":
                raise AssertionError(f"as-of probe failed: {probe!r}")
            live = {row["k"]: row["v"] for row in probe["rows"]}
            if live != oracle.marks[-1][1]:
                raise AssertionError(
                    f"live wire as-of divergence at {mark}: "
                    f"{live!r} != {oracle.marks[-1][1]!r}"
                )
        if i % config.checkpoint_every == config.checkpoint_every - 1:
            db.checkpoint(flush=(i // config.checkpoint_every) % 2 == 0)


def enumerate_service_crossings(config: CrashTestConfig) -> list[str]:
    db, table, core, conn, wire = _build_service(config)
    registry = FailpointRegistry()
    registry.trace_on()
    with installed(registry):
        run_service_workload(db, config, ShadowOracle(), conn)
    assert registry.trace is not None
    return registry.trace


def _verify_marks(report, db, table, oracle) -> None:
    for mark, snapshot in oracle.marks:
        ts = mark if isinstance(mark, Timestamp) else db.to_timestamp(mark)
        as_of = {row["k"]: row["v"] for row in table.scan_as_of(ts)}
        if as_of != snapshot:
            report.problems.append(
                f"as-of divergence at {mark}: recovered {as_of!r}, "
                f"expected {snapshot!r}"
            )


def replay_service_point(config: CrashTestConfig, crossing: int) -> CrashReport:
    """Crash at one crossing of the service-driven workload; verify.

    The binding contract: every mutation the client saw acked must be in
    the recovered state; the single un-acked in-flight mutation may be
    present or absent (never half-applied); poison from dropped brackets
    must be gone; every wire-probed as-of mark reproduces exactly.
    """
    if not config.service:
        config = replace(config, service=True)
    db, table, core, conn, wire = _build_service(config)
    oracle = ShadowOracle()
    registry = FailpointRegistry()
    registry.crash_at(crossing)
    crashed = False
    name = "<workload end>"
    try:
        with installed(registry):
            run_service_workload(db, config, oracle, conn)
    except SimulatedCrash as crash:
        crashed = True
        name = crash.name
    report = CrashReport(crossing=crossing, name=name, crashed=crashed)
    if not crashed:
        report.problems.append(
            f"crossing {crossing} was never reached "
            f"(workload has {registry.crossings} crossings)"
        )
        return report

    db.crash()
    db.recover()
    table = db.table(TABLE)

    try:
        verify_integrity(db, strict=True)
    except IntegrityError as exc:
        report.problems.append(f"integrity: {exc}")

    got = _current_state(db, table)
    acceptable = oracle.acceptable_states()
    if got not in acceptable:
        report.problems.append(
            f"current-state divergence: recovered {got!r}, "
            f"acceptable {acceptable!r}"
        )
    for state in [got] + acceptable:
        for value in state.values():
            if isinstance(value, str) and value.startswith("poison"):
                report.problems.append(
                    f"dropped bracket leaked into state: {value!r}"
                )
    _verify_marks(report, db, table, oracle)
    return report


def replay_service_fault_point(
    config: CrashTestConfig, crossing: int
) -> CrashReport:
    """Inject one network fault at a crossing; the protocol must absorb it.

    Kind rotates with the crossing (torn frame, dropped response,
    slow-loris, duplicate delivery).  Unlike crash mode there is no
    ambiguity budget: the workload must complete, every ack stands, and
    the final state must equal the oracle's committed model exactly —
    proving retries are idempotent and lost responses are replayed from
    the cache, not re-executed.
    """
    if not config.service_faults:
        config = replace(config, service=True, service_faults=True)
    db, table, core, conn, wire = _build_service(config)
    oracle = ShadowOracle()
    registry = FailpointRegistry()
    kind = NETWORK_FAULT_KINDS[crossing % len(NETWORK_FAULT_KINDS)]
    armed = [False]

    def arm(event) -> None:
        if event.crossing == crossing and not armed[0]:
            armed[0] = True
            wire.arm(kind)

    registry.on("*", arm)
    report = CrashReport(
        crossing=crossing, name=f"{kind}@{crossing}", crashed=False
    )
    try:
        with installed(registry):
            run_service_workload(db, config, oracle, conn)
            db.flush_commits()
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        report.problems.append(
            f"service did not absorb injected {kind}: {exc!r}"
        )
        return report
    if not armed[0]:
        report.problems.append(
            f"crossing {crossing} was never reached "
            f"(workload has {registry.crossings} crossings)"
        )
        return report
    report.crashed = True  # in fault mode: "the fault was armed"

    assert oracle.pending is None
    try:
        verify_integrity(db, strict=True)
    except IntegrityError as exc:
        report.problems.append(f"integrity: {exc}")
    got = _current_state(db, table)
    if got != oracle.committed:
        report.problems.append(
            f"exactly-once violated: state {got!r} != acked {oracle.committed!r}"
        )
    for value in got.values():
        if isinstance(value, str) and value.startswith("poison"):
            report.problems.append(
                f"dropped bracket leaked into state: {value!r}"
            )
    _verify_marks(report, db, table, oracle)
    return report


# ---------------------------------------------------------------------------
# Shard mode: the same contract, across a range-sharded cluster
# ---------------------------------------------------------------------------


def build_cluster(config: CrashTestConfig):
    """A fresh in-memory N-shard cluster with the harness table."""
    from repro.cluster import ShardRouter

    router = ShardRouter.for_int_keys(
        config.shards,
        key_space=config.keys,
        buffer_pages=config.buffer_pages,
        eviction=config.eviction,
        flush_batch=config.flush_batch,
    )
    table = router.create_table(
        TABLE,
        [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k",
        immortal=True,
    )
    return router, table


def run_shard_workload(
    router, table, config: CrashTestConfig, oracle: ShadowOracle
) -> None:
    """The seeded workload against the cluster.

    Single-shard mutations take the router's fast path (the engine's
    ordinary commit); every third mutation pairs the key with a partner key
    on a *different* shard, committed atomically through presumed-abort 2PC.
    The oracle treats the pair as one mutation, so a crash anywhere inside
    the protocol leaves exactly two acceptable outcomes — both keys updated
    or neither — and a half-applied pair is an atomicity finding.

    Explicit begin/commit for the same reason as the single-engine
    workload: a dead process cannot run the context manager's abort path.
    """
    rng = random.Random(config.seed)
    observed: dict[int, bool] = {}

    def apply_op(txn, key: int, value: str | None) -> None:
        if value is None:
            table.delete(txn, key)
        elif observed.get(key, False):
            table.update(txn, key, {"v": value})
        else:
            table.insert(txn, {"k": key, "v": value})

    for i in range(config.transactions):
        router.advance_time(rng.uniform(5.0, 250.0))
        key = rng.randrange(config.keys)
        delete = observed.get(key, False) and rng.random() < 0.2
        value = None if delete \
            else f"s{config.seed}i{i}" + "x" * rng.randrange(config.value_pad)
        mutation: dict[int, str | None] = {key: value}
        if i % 3 == 2 and config.keys >= 2 * config.shards:
            partner = (key + config.keys // config.shards) % config.keys
            while router.route(partner) is router.route(key):
                partner = (partner + 1) % config.keys
            mutation[partner] = (
                f"s{config.seed}i{i}p" + "x" * rng.randrange(config.value_pad)
            )
        oracle.begin(mutation)
        txn = router.begin()
        for k, v in mutation.items():
            apply_op(txn, k, v)
        router.commit(txn)
        oracle.commit_observed()
        for k, v in mutation.items():
            observed[k] = v is not None
        if i % config.mark_every == config.mark_every - 1:
            router.flush_commits()
            oracle.mark(router.now())
        if i % config.checkpoint_every == config.checkpoint_every - 1:
            router.checkpoint(flush=(i // config.checkpoint_every) % 2 == 0)


def enumerate_shard_crossings(config: CrashTestConfig) -> list[str]:
    router, table = build_cluster(config)
    registry = FailpointRegistry()
    registry.trace_on()
    with installed(registry):
        run_shard_workload(router, table, config, ShadowOracle())
    assert registry.trace is not None
    return registry.trace


def _cluster_state(router, table) -> dict[int, str]:
    txn = router.begin()
    got = {row["k"]: row["v"] for row in table.scan(txn)}
    router.commit(txn)
    return got


def replay_shard_point(config: CrashTestConfig, crossing: int) -> CrashReport:
    """Crash the cluster at one crossing; recover in two stages; verify.

    Stage 1 — ``recover(resolve=False)``: every shard runs ARIES recovery
    but in-doubt prepared transactions stay undecided.  If the crash left
    any, the in-flight mutation's keys must be lock-protected: a writer
    probing them gets the typed ``InDoubtError`` (never a half-visible
    write).  Stage 2 — ``resolve_in_doubt()``: the coordinator's decision
    log (presumed abort) drives every participant to the same outcome, and
    the recovered cluster must satisfy the ack-based contract: every acked
    mutation visible on every shard, the one un-acked mutation
    all-or-nothing, every as-of mark byte-exact, every shard's integrity
    clean under strict checks.
    """
    from repro.errors import ImmortalDBError, InDoubtError

    if not config.shards:
        config = replace(config, shards=2)
    router, table = build_cluster(config)
    oracle = ShadowOracle()
    registry = FailpointRegistry()
    registry.crash_at(crossing)
    crashed = False
    name = "<workload end>"
    try:
        with installed(registry):
            run_shard_workload(router, table, config, oracle)
    except SimulatedCrash as crash:
        crashed = True
        name = crash.name
    report = CrashReport(crossing=crossing, name=name, crashed=crashed)
    if not crashed:
        report.problems.append(
            f"crossing {crossing} was never reached "
            f"(workload has {registry.crossings} crossings)"
        )
        return report

    router.crash()
    router.recover(resolve=False)
    table = router.table(TABLE)

    in_doubt = router.in_doubt_gtids()
    if in_doubt:
        if oracle.pending is None:
            report.problems.append(
                f"in-doubt gtids {sorted(in_doubt)} survive but the oracle "
                f"has no in-flight mutation"
            )
        else:
            blocked = 0
            for k in oracle.pending:
                probe = router.begin()
                try:
                    table.update(probe, k, {"v": "probe"})
                except InDoubtError:
                    blocked += 1
                except ImmortalDBError:
                    pass  # e.g. the pending insert is (correctly) invisible
                finally:
                    router.abort(probe)
            if blocked == 0:
                report.problems.append(
                    f"in-doubt gtids {sorted(in_doubt)} but no pending key "
                    f"is lock-protected"
                )

    router.resolve_in_doubt()

    for shard in router.shards:
        try:
            verify_integrity(shard.db, strict=True)
        except IntegrityError as exc:
            report.problems.append(f"shard {shard.shard_id} integrity: {exc}")

    got = _cluster_state(router, table)
    acceptable = oracle.acceptable_states()
    if got not in acceptable:
        report.problems.append(
            f"cluster-state divergence: recovered {got!r}, "
            f"acceptable {acceptable!r}"
        )
    for ts, snapshot in oracle.marks:
        as_of = {row["k"]: row["v"] for row in table.scan_as_of(ts)}
        if as_of != snapshot:
            report.problems.append(
                f"as-of divergence at {ts}: recovered {as_of!r}, "
                f"expected {snapshot!r}"
            )
    return report


def explore_shards(
    config: CrashTestConfig,
    *,
    max_points: int = 0,
    progress=None,
) -> ExplorationResult:
    """Crash-and-verify at each cluster crossing (or a sample)."""
    names = enumerate_shard_crossings(config)
    indices = _sample(len(names), max_points)
    failures: list[CrashReport] = []
    by_name: Counter = Counter(names[i] for i in indices)
    for n, crossing in enumerate(indices):
        report = replay_shard_point(config, crossing)
        if not report.ok:
            failures.append(report)
        if progress is not None:
            progress(n + 1, len(indices), report)
    return ExplorationResult(
        config=config,
        total_crossings=len(names),
        explored=indices,
        failures=failures,
        by_name=by_name,
    )


@dataclass
class ExplorationResult:
    config: CrashTestConfig
    total_crossings: int
    explored: list[int]
    failures: list[CrashReport]
    by_name: Counter

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample(total: int, max_points: int) -> list[int]:
    """Up to ``max_points`` crossing indices, evenly spread over the run."""
    if max_points <= 0 or total <= max_points:
        return list(range(total))
    step = (total - 1) / (max_points - 1)
    return sorted({round(i * step) for i in range(max_points)})


def explore(
    config: CrashTestConfig,
    *,
    max_points: int = 0,
    progress=None,
) -> ExplorationResult:
    """Enumerate crossings, then crash-and-verify at each (or a sample)."""
    names = enumerate_crossings(config)
    indices = _sample(len(names), max_points)
    failures: list[CrashReport] = []
    by_name: Counter = Counter(names[i] for i in indices)
    for n, crossing in enumerate(indices):
        report = replay_crash_point(config, crossing)
        if not report.ok:
            failures.append(report)
        if progress is not None:
            progress(n + 1, len(indices), report)
    return ExplorationResult(
        config=config,
        total_crossings=len(names),
        explored=indices,
        failures=failures,
        by_name=by_name,
    )


def explore_media(
    config: CrashTestConfig,
    *,
    max_points: int = 0,
    progress=None,
) -> ExplorationResult:
    """Enumerate crossings, then inject-and-verify at each (or a sample)."""
    names = enumerate_crossings(config)
    indices = _sample(len(names), max_points)
    failures: list[CrashReport] = []
    by_name: Counter = Counter(
        FAULT_KINDS[i % len(FAULT_KINDS)] for i in indices
    )
    for n, crossing in enumerate(indices):
        report = replay_media_point(config, crossing)
        if not report.ok:
            failures.append(report)
        if progress is not None:
            progress(n + 1, len(indices), report)
    return ExplorationResult(
        config=config,
        total_crossings=len(names),
        explored=indices,
        failures=failures,
        by_name=by_name,
    )


def explore_service(
    config: CrashTestConfig,
    *,
    max_points: int = 0,
    progress=None,
) -> ExplorationResult:
    """Crash-and-verify at each service crossing (or a sample)."""
    names = enumerate_service_crossings(config)
    indices = _sample(len(names), max_points)
    failures: list[CrashReport] = []
    by_name: Counter = Counter(names[i] for i in indices)
    for n, crossing in enumerate(indices):
        report = replay_service_point(config, crossing)
        if not report.ok:
            failures.append(report)
        if progress is not None:
            progress(n + 1, len(indices), report)
    return ExplorationResult(
        config=config,
        total_crossings=len(names),
        explored=indices,
        failures=failures,
        by_name=by_name,
    )


def explore_service_faults(
    config: CrashTestConfig,
    *,
    max_points: int = 0,
    progress=None,
) -> ExplorationResult:
    """Inject one network fault at each service crossing (or a sample)."""
    names = enumerate_service_crossings(config)
    indices = _sample(len(names), max_points)
    failures: list[CrashReport] = []
    by_name: Counter = Counter(
        NETWORK_FAULT_KINDS[i % len(NETWORK_FAULT_KINDS)] for i in indices
    )
    for n, crossing in enumerate(indices):
        report = replay_service_fault_point(config, crossing)
        if not report.ok:
            failures.append(report)
        if progress is not None:
            progress(n + 1, len(indices), report)
    return ExplorationResult(
        config=config,
        total_crossings=len(names),
        explored=indices,
        failures=failures,
        by_name=by_name,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.crashtest",
        description="Crash at every failpoint crossing; recover; verify.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--transactions", type=int,
                        default=CrashTestConfig.transactions)
    parser.add_argument("--keys", type=int, default=CrashTestConfig.keys)
    parser.add_argument(
        "--group-commit", type=int, default=CrashTestConfig.group_commit_window,
        metavar="N", help="group-commit window (1 = force per commit)",
    )
    parser.add_argument(
        "--route-cache", action="store_true",
        help="enable the as-of route cache and probe marks mid-workload",
    )
    parser.add_argument(
        "--eviction", choices=("lru", "2q"),
        default=CrashTestConfig.eviction,
        help="buffer eviction policy for the workload database",
    )
    parser.add_argument(
        "--flush-batch", type=int, default=CrashTestConfig.flush_batch,
        metavar="N", help="batched write-back size (0 = per-page flushes)",
    )
    parser.add_argument(
        "--archive", action="store_true",
        help="enable cold-history archive tiering with a short horizon so "
             "checkpoints migrate pages mid-workload (adds archive.* "
             "crossings to explore)",
    )
    parser.add_argument(
        "--media-faults", action="store_true",
        help="inject disk faults instead of crashing; verify self-healing "
             "(inline absorption + byte-identical scrubber repair)",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="drive the workload through the SQL service protocol "
             "(loopback transport) so service.* crossings are explored; "
             "verification is ack-based: every client-acked commit must "
             "survive the crash",
    )
    parser.add_argument(
        "--service-faults", action="store_true",
        help="service mode with one injected network fault per crossing "
             "(torn frame, dropped response, slow-loris, duplicate "
             "delivery); the workload must complete with exactly-once "
             "effects",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run the workload against an N-shard range-partitioned "
             "cluster: cross-shard mutations commit through presumed-abort "
             "2PC, and recovery is verified in two stages (in-doubt lock "
             "retention, then coordinator-driven resolution)",
    )
    parser.add_argument(
        "--max-points", type=int, default=0,
        help="explore at most N crossings, evenly sampled (0 = all)",
    )
    parser.add_argument(
        "--crash-point", type=int, default=None,
        help="replay a single crossing index (the repro mode)",
    )
    args = parser.parse_args(argv)
    config = CrashTestConfig(
        seed=args.seed, transactions=args.transactions, keys=args.keys,
        group_commit_window=args.group_commit,
        route_cache=args.route_cache,
        eviction=args.eviction,
        flush_batch=args.flush_batch,
        media_faults=args.media_faults,
        archive=args.archive,
        service=args.service or args.service_faults,
        service_faults=args.service_faults,
        shards=args.shards,
    )
    if config.shards:
        replay = replay_shard_point
    elif config.service_faults:
        replay = replay_service_fault_point
    elif config.service:
        replay = replay_service_point
    elif config.media_faults:
        replay = replay_media_point
    else:
        replay = replay_crash_point

    if args.crash_point is not None:
        report = replay(config, args.crash_point)
        print(f"crossing {report.crossing} ({report.name}): "
              f"{'OK' if report.ok else 'FAIL'}")
        for problem in report.problems:
            print(f"  {problem}")
        return 0 if report.ok else 1

    seen_failures: list[CrashReport] = []

    def progress(done: int, total: int, report: CrashReport) -> None:
        if not report.ok:
            seen_failures.append(report)
        if done % 50 == 0 or done == total:
            print(f"  explored {done}/{total} crash points "
                  f"({len(seen_failures)} failures)")

    if config.shards:
        explorer = explore_shards
    elif config.service_faults:
        explorer = explore_service_faults
    elif config.service:
        explorer = explore_service
    elif config.media_faults:
        explorer = explore_media
    else:
        explorer = explore
    result = explorer(config, max_points=args.max_points, progress=progress)

    faulty = config.media_faults or config.service_faults
    mode = "fault points" if faulty else "crash points"
    print(f"seed {config.seed}: {result.total_crossings} crossings enumerated, "
          f"{len(result.explored)} {mode} explored")
    seams = Counter(name.split(".")[0] for name in result.by_name.elements())
    label = "by fault" if faulty else "by seam"
    print(f"  {label}: " + ", ".join(
        f"{seam}={count}" for seam, count in sorted(seams.items())
    ))
    if result.ok:
        print("  zero integrity or as-of-equivalence violations")
        return 0
    for report in result.failures:
        print(f"FAIL crossing {report.crossing} ({report.name}): "
              f"{report.problems[0]}")
        print(f"  repro: PYTHONPATH=src python -m repro.faults.crashtest "
              f"{config.repro_args(report.crossing)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
