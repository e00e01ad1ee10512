"""The four workloads: starting database, operations, checks.

Every workload implements every operation class (``read``, ``write``,
``asof``, ``scan``, ``history``, ``xshard``) so that every end-to-end metric
exists on every workload.  The closed loop draws from the mix in
``spec.json``; a class the mix leaves out is timed by a fixed-count probe
that the runner interleaves with the loop.  Probe operations touch only the
``probe_keys`` reserved keys, which the loop never writes, so what a probe
measures depends on the seed and not on how many operations the loop
managed.  AS OF reads, in the loop and the probe, use the marks recorded at
set-up, so the mix of mark ages does not drift with throughput; the marks
recorded during the loop serve the end-of-run checks.

An operation function takes ``(rng, rid)`` and returns ``None`` or
``(got, want_fn)``: the runner stops the operation's timer before it calls
``want_fn`` and compares, so oracle work is never timed.

Inputs come from the seed through this file alone (``repro.workloads`` is
not used), so a change under ``src/`` cannot change them.
"""

from __future__ import annotations

import math
import os
import random
import signal
import subprocess
import sys
from datetime import timedelta

import spans
from oracle import VersionOracle

from repro import ColumnType, ImmortalDB
from repro.clock import TICK_MS, Timestamp
from repro.cluster.router import ShardRouter
from repro.core.integrity import verify_integrity
from repro.service.client import ServiceClient

_TEXT = "".join(
    random.Random(0).choice("abcdefghijklmnopqrstuvwxyz0123456789")
    for _ in range(8192)
)


def text_value(rng: random.Random, lo: int, hi: int) -> str:
    """A value whose length is log-uniform on ``[lo, hi]`` bytes."""
    n = min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1)))))
    start = rng.randrange(len(_TEXT) - n)
    return _TEXT[start:start + n]


def file_bytes(path: str) -> tuple[int, int]:
    """(page-file bytes, WAL + master bytes) of the files under ``path``."""
    pages = log = 0
    for name in os.listdir(path):
        size = os.path.getsize(os.path.join(path, name))
        if ".log" in name:
            log += size
        else:
            pages += size
    return pages, log


def expected_range(oracle: VersionOracle, mark: int, lo: int, hi: int):
    out = []
    for k in range(lo, hi + 1):
        v = oracle.at(k, mark)
        if v is not None:
            out.append((k, v))
    return out


class LiveKeys:
    """Keys that currently exist, with O(1) random choice and removal."""

    def __init__(self, keys=()) -> None:
        self.keys = list(keys)
        self.pos = {k: i for i, k in enumerate(self.keys)}

    def add(self, key: int) -> None:
        self.pos[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: int) -> None:
        i = self.pos.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[i] = last
            self.pos[last] = i

    def choice(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]

    def two(self, rng: random.Random) -> tuple[int, int]:
        a, b = rng.sample(range(len(self.keys)), 2)
        return self.keys[a], self.keys[b]


class Side:
    """The keys and marks one side (the loop, or the probe) works on.

    Reads pick keys in ``[lo, hi)``; writes pick from ``live``; AS OF reads
    pick one of the first ``marks`` marks (those of set-up).
    """

    def __init__(self, lo: int, hi: int, live: LiveKeys, marks: int) -> None:
        self.lo, self.hi, self.live, self.marks = lo, hi, live, marks

    def key(self, rng: random.Random) -> int:
        return rng.randrange(self.lo, self.hi)

    def mark(self, rng: random.Random) -> int:
        return rng.randrange(self.marks)


class Workload:
    """What the runner drives; engine workloads share most of it."""

    name = ""
    clients = 1

    def __init__(self, spec: dict, seed: int, workdir: str) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.oracle = VersionOracle()
        self.premise_failures: list[str] = []
        self.commits = 0

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}-{self.seed}-{purpose}")

    def premise(self, ok: bool, text: str) -> None:
        if not ok:
            self.premise_failures.append(text)

    def sides(self, rows: int) -> dict[bool, Side]:
        """Reserved keys ``[0, probe_keys)`` for the probe, the rest for
        the loop."""
        reserved, marks = self.spec["probe_keys"], len(self.oracle.marks)
        return {
            True: Side(0, reserved, LiveKeys(range(reserved)), marks),
            False: Side(reserved, rows, LiveKeys(range(reserved, rows)),
                        marks),
        }

    # -- engine workloads: one embedded, file-backed engine -------------------

    def stats(self) -> dict:
        return self.db.stats()

    def mark(self) -> None:
        self.oracle.mark(self.db.now())

    def after_op(self, client: int, n: int) -> None:
        if n % self.spec["mark_every_ops"] == 0:
            self.mark()

    def committed(self) -> None:
        self.commits += 1
        if self.commits % self.spec["checkpoint_every_commits"] == 0:
            self.db.checkpoint()

    def quiesce(self) -> None:
        self.db.checkpoint(flush=True)

    def crash(self) -> None:
        self.db.crash()

    def recover(self) -> None:
        self.db.recover()

    def warm(self) -> None:
        """Read every current row once, so the loop starts on a warm pool."""
        with self.db.transaction() as txn:
            self.table.scan(txn)

    def reopen(self, directory: str) -> list[ImmortalDB]:
        """Open the engine files in ``directory``, as a restart would."""
        return [ImmortalDB(os.path.join(directory, "db"),
                           buffer_pages=self.spec.get("buffer_pages", 1024))]

    def close(self) -> None:
        self.db.close()

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def file_bytes(self) -> tuple[int, int]:
        return file_bytes(self.workdir)

    def space_amp(self) -> float:
        return sum(self.file_bytes()) / self.oracle.version_bytes

    def check_premises(self, delta: dict, counts: dict) -> None:
        pass

    def verify_asof_sample(self, read, n: int) -> list[str]:
        """AS OF point reads at recorded marks, against the oracle."""
        rng = self.rng("verify")
        keys = list(self.oracle.keys())
        bad = []
        for _ in range(n):
            m = rng.randrange(len(self.oracle.marks))
            k = rng.choice(keys)
            got = read(self.oracle.marks[m], k)
            want = self.oracle.at(k, m)
            if got != want:
                bad.append(
                    f"as of mark {m} key {k}: got {got!r} want {want!r}"
                )
        return bad[:5]


# ---------------------------------------------------------------------------
# Text-valued tables: oltp_durable and sql_service
# ---------------------------------------------------------------------------


class KVWorkload(Workload):
    """A ``(k INT, v TEXT)`` immortal table with log-uniform value lengths."""

    table_name = ""

    def value(self, rng: random.Random) -> str:
        lo, hi = self.spec["value_bytes"]
        return text_value(rng, lo, hi)

    def write(self, k: int, v) -> None:
        self.oracle.write(k, v, 4 + (len(v) if v is not None else 0))

    def build_kv(self, db: ImmortalDB, mark):
        """Load ``rows`` keys, then give each ``versions_per_key`` versions
        in rounds; ``mark(db)`` records a mark after every round."""
        spec = self.spec
        rng = self.rng("setup")
        table = db.create_table(
            self.table_name, [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
            key="k", immortal=True,
        )
        rows, batch = spec["rows"], spec["load_batch"]
        for rnd in range(spec["versions_per_key"]):
            for start in range(0, rows, batch):
                with db.transaction() as txn:
                    for k in range(start, min(rows, start + batch)):
                        v = self.value(rng)
                        if rnd == 0:
                            table.insert(txn, {"k": k, "v": v})
                        else:
                            table.update(txn, k, {"v": v})
                        self.write(k, v)
            mark(db)
        return table

    def verify_kv(self, table) -> list[str]:
        with self.db.transaction() as txn:
            rows = {r["k"]: r["v"] for r in table.scan(txn)}
        want = {
            k: self.oracle.current(k) for k in self.oracle.keys()
            if self.oracle.current(k) is not None
        }
        bad = [] if rows == want else [
            f"after the crash {len(rows)} rows differ from "
            f"{len(want)} acknowledged"
        ]

        def read(mark, k):
            row = table.read_as_of(self.db.to_timestamp(mark), k)
            return row and row["v"]

        bad += self.verify_asof_sample(read, self.spec["verify_asof_reads"])
        verify_integrity(self.db, strict=True)
        return bad


class OltpDurable(KVWorkload):
    """Fig. 5's question: what transaction time costs a durable write."""

    name = "oltp_durable"
    table_name = "kv"

    def setup(self) -> None:
        self.db = ImmortalDB(
            os.path.join(self.workdir, "db"),
            buffer_pages=self.spec["buffer_pages"],
        )
        self.table = self.build_kv(self.db, lambda db: self.mark())
        self.side = self.sides(self.spec["rows"])
        self.db.checkpoint(flush=True)

    def ops(self, client: int, probe: bool = False) -> dict:
        db, table, oracle = self.db, self.table, self.oracle
        side, width = self.side[probe], self.spec["scan_keys"]

        def update(rng, rid):
            k, v = side.live.choice(rng), self.value(rng)
            with db.transaction() as txn:
                table.update(txn, k, {"v": v})
            self.write(k, v)
            self.committed()

        def insert(rng, rid):
            k, v = side.hi, self.value(rng)
            with db.transaction() as txn:
                table.insert(txn, {"k": k, "v": v})
            side.hi += 1
            self.write(k, v)
            side.live.add(k)
            self.committed()

        def delete(rng, rid):
            k = side.live.choice(rng)
            with db.transaction() as txn:
                table.delete(txn, k)
            self.write(k, None)
            side.live.remove(k)
            self.committed()

        def read(rng, rid):
            k = side.live.choice(rng)
            with db.transaction() as txn:
                row = table.read(txn, k)
            return row and row["v"], lambda: oracle.current(k)

        def asof(rng, rid):
            m, k = side.mark(rng), side.key(rng)
            row = table.read_as_of(oracle.marks[m], k)
            return row and row["v"], lambda: oracle.at(k, m)

        def scan(rng, rid):
            m = side.mark(rng)
            lo = rng.randrange(side.lo, side.hi - width)
            hi = lo + width - 1
            with db.transaction(as_of=oracle.marks[m]) as txn:
                rows = table.scan_range(txn, lo, hi)
            return [(r["k"], r["v"]) for r in rows], \
                lambda: expected_range(oracle, m, lo, hi)

        def history(rng, rid):
            k = side.key(rng)
            return [r and r["v"] for _, r in table.history(k)], \
                lambda: oracle.history(k)

        def transfer(rng, rid):
            a, b = side.live.two(rng)
            va, vb = self.value(rng), self.value(rng)
            with db.transaction() as txn:
                table.update(txn, a, {"v": va})
                table.update(txn, b, {"v": vb})
            self.write(a, va)
            self.write(b, vb)
            self.committed()

        return dict(update=update, insert=insert, delete=delete, read=read,
                    asof=asof, scan=scan, history=history, transfer=transfer)

    def check_premises(self, delta: dict, counts: dict) -> None:
        self.premise(
            delta["buffer_evictions"] == 0,
            f"oltp_durable must not evict; "
            f"evicted {delta['buffer_evictions']}",
        )

    def verify(self) -> list[str]:
        return self.verify_kv(self.table)


# ---------------------------------------------------------------------------
# Deep history larger than the pool
# ---------------------------------------------------------------------------


class TimeTravelDeep(Workload):
    """Fig. 6's question on data larger than the buffer pool."""

    name = "timetravel_deep"

    def setup(self) -> None:
        spec = self.spec
        rng = self.rng("setup")
        self.db = ImmortalDB(
            os.path.join(self.workdir, "db"), buffer_pages=spec["buffer_pages"]
        )
        self.table = self.db.create_table(
            "MovingObjects",
            [("Oid", ColumnType.INT), ("LocationX", ColumnType.INT),
             ("LocationY", ColumnType.INT)],
            key="Oid", immortal=True,
        )
        keys, batch = spec["rows"], spec["load_batch"]
        for rnd in range(spec["versions_per_key"]):
            for start in range(0, keys, batch):
                with self.db.transaction() as txn:
                    for k in range(start, min(keys, start + batch)):
                        x, y = self.location(rng)
                        if rnd == 0:
                            self.table.insert(txn, {
                                "Oid": k, "LocationX": x, "LocationY": y,
                            })
                        else:
                            self.table.update(
                                txn, k, {"LocationX": x, "LocationY": y}
                            )
                        self.oracle.write(k, (x, y), 12)
            self.mark()
            self.db.advance_time(spec["round_ms"])
        self.side = self.sides(keys)
        self.db.checkpoint(flush=True)
        self.data_pages = self.db.disk.page_count

    @staticmethod
    def location(rng: random.Random) -> tuple[int, int]:
        return rng.randrange(1 << 20), rng.randrange(1 << 20)

    def ops(self, client: int, probe: bool = False) -> dict:
        db, table, oracle = self.db, self.table, self.oracle
        side, width = self.side[probe], self.spec["scan_keys"]

        def loc_of(row):
            return row and (row["LocationX"], row["LocationY"])

        def move(txn, k, rng):
            x, y = self.location(rng)
            table.update(txn, k, {"LocationX": x, "LocationY": y})
            return k, (x, y)

        def update(rng, rid):
            with db.transaction() as txn:
                moved = [move(txn, side.key(rng), rng)]
            self.apply(moved)

        def transfer(rng, rid):
            a, b = side.live.two(rng)
            with db.transaction() as txn:
                moved = [move(txn, a, rng), move(txn, b, rng)]
            self.apply(moved)

        def read(rng, rid):
            k = side.key(rng)
            with db.transaction() as txn:
                row = table.read(txn, k)
            return loc_of(row), lambda: oracle.current(k)

        def asof(rng, rid):
            m, k = side.mark(rng), side.key(rng)
            row = table.read_as_of(oracle.marks[m], k)
            return loc_of(row), lambda: oracle.at(k, m)

        def scan(rng, rid):
            m = side.mark(rng)
            lo = rng.randrange(side.lo, side.hi - width)
            hi = lo + width - 1
            with db.transaction(as_of=oracle.marks[m]) as txn:
                rows = table.scan_range(txn, lo, hi)
            return [(r["Oid"], loc_of(r)) for r in rows], \
                lambda: expected_range(oracle, m, lo, hi)

        def history(rng, rid):
            k = side.key(rng)
            return [loc_of(r) for _, r in table.history(k)], \
                lambda: oracle.history(k)

        return dict(update=update, transfer=transfer, read=read, asof=asof,
                    scan=scan, history=history)

    def apply(self, moved) -> None:
        for k, loc in moved:
            self.oracle.write(k, loc, 12)
        self.committed()

    def check_premises(self, delta: dict, counts: dict) -> None:
        frames = self.spec["buffer_pages"]
        self.premise(
            self.data_pages >= 8 * frames,
            f"timetravel_deep needs data pages >= 8x pool: "
            f"{self.data_pages} pages vs {frames} frames",
        )
        self.premise(
            delta["buffer_evictions"] > 0,
            "timetravel_deep must evict during the loop",
        )

    def verify(self) -> list[str]:
        with self.db.transaction() as txn:
            rows = {
                r["Oid"]: (r["LocationX"], r["LocationY"])
                for r in self.table.scan(txn)
            }
        want = {k: self.oracle.current(k) for k in self.oracle.keys()}
        bad = [] if rows == want else ["current state differs after the crash"]

        def read(ts, k):
            row = self.table.read_as_of(ts, k)
            return row and (row["LocationX"], row["LocationY"])

        bad += self.verify_asof_sample(read, self.spec["verify_asof_reads"])
        verify_integrity(self.db, strict=True)
        return bad


# ---------------------------------------------------------------------------
# The shard cluster
# ---------------------------------------------------------------------------


class Sharded2PC(Workload):
    """Accounts on a two-shard range-partitioned cluster."""

    name = "sharded_2pc"

    def setup(self) -> None:
        spec = self.spec
        n, half = spec["rows"], spec["probe_keys"] // 2
        self.db = ShardRouter.for_int_keys(
            2, n, paths=[os.path.join(self.workdir, f"shard{i}")
                         for i in range(2)],
        )
        self.table = self.db.create_table(
            "accounts", [("id", ColumnType.INT), ("bal", ColumnType.BIGINT)],
            key="id", immortal=True,
        )
        self.boundary = self.db.boundaries[0]
        shard_keys = [range(0, self.boundary + 1), range(self.boundary + 1, n)]
        # Later rounds move one unit from each even account to the odd one
        # after it, in the same transaction, so totals are conserved.  One
        # transaction never spans shards, so set-up stays on the fast path.
        batch = spec["load_batch"]
        balance = {}
        for rnd in range(spec["versions_per_key"]):
            for keys in shard_keys:
                for start in range(keys.start, keys.stop, batch):
                    with self.db.transaction() as txn:
                        for k in range(start, min(keys.stop, start + batch)):
                            if rnd == 0:
                                balance[k] = spec["opening_balance"]
                                self.table.insert(
                                    txn, {"id": k, "bal": balance[k]}
                                )
                            else:
                                balance[k] += -1 if k % 2 == 0 else 1
                                self.table.update(txn, k, {"bal": balance[k]})
                            self.oracle.write(k, balance[k], 12)
            self.mark()
        # The probe's reserved accounts sit at the outer end of each shard;
        # the loop writes the inner ones, around the boundary.
        self.loop_keys = [range(half, self.boundary + 1),
                          range(self.boundary + 1, n - half)]
        self.probe_keys = [*range(half), *range(n - half, n)]
        self.setup_marks = len(self.oracle.marks)
        self.db.checkpoint(flush=True)

    def ops(self, client: int, probe: bool = False) -> dict:
        db, table, oracle = self.db, self.table, self.oracle
        width = self.spec["scan_keys"]

        def move(txn, a, b, amount):
            ra, rb = table.read(txn, a), table.read(txn, b)
            table.update(txn, a, {"bal": ra["bal"] - amount})
            table.update(txn, b, {"bal": rb["bal"] + amount})
            return ra["bal"] - amount, rb["bal"] + amount

        def apply(a, b, balances):
            oracle.write(a, balances[0], 12)
            oracle.write(b, balances[1], 12)
            self.committed()

        def rmw(rng, rid):
            a, b = rng.sample(self.loop_keys[rng.randrange(2)], 2)
            with db.transaction() as txn:
                balances = move(txn, a, b, rng.randint(1, 100))
            apply(a, b, balances)
            return balances, lambda: (oracle.current(a), oracle.current(b))

        def transfer(rng, rid):
            a, b = rng.choice(self.loop_keys[0]), rng.choice(self.loop_keys[1])
            if rng.random() < 0.5:
                a, b = b, a
            with db.transaction() as txn:
                balances = move(txn, a, b, rng.randint(1, 100))
            apply(a, b, balances)

        def read(rng, rid):
            k = rng.choice(self.loop_keys[rng.randrange(2)])
            with db.transaction() as txn:
                row = table.read(txn, k)
            return row["bal"], lambda: oracle.current(k)

        def scan(rng, rid):
            # Straddles the shard boundary: keys on both shards.
            m = rng.randrange(self.setup_marks)
            lo = self.boundary - rng.randrange(1, width - 1)
            hi = lo + width - 1
            with db.transaction(as_of=oracle.marks[m]) as txn:
                rows = table.scan_range(txn, lo, hi)
            return [(r["id"], r["bal"]) for r in rows], \
                lambda: expected_range(oracle, m, lo, hi)

        def asof(rng, rid):
            m, k = rng.randrange(self.setup_marks), rng.choice(self.probe_keys)
            row = table.read_as_of(oracle.marks[m], k)
            return row["bal"], lambda: oracle.at(k, m)

        def history(rng, rid):
            k = rng.choice(self.probe_keys)
            return [r and r["bal"] for _, r in table.history(k)], \
                lambda: oracle.history(k)

        return dict(rmw=rmw, transfer=transfer, read=read, scan=scan,
                    asof=asof, history=history)

    def reopen(self, directory: str) -> list[ImmortalDB]:
        router = ShardRouter.for_int_keys(
            2, self.spec["rows"],
            paths=[os.path.join(directory, f"shard{i}") for i in range(2)],
        )
        return [shard.db for shard in router.shards]

    def check_premises(self, delta: dict, counts: dict) -> None:
        # rmw commits one shard; transfer always writes both.
        self.premise(
            delta["cluster_fastpath_commits"] == counts.get("rmw", 0)
            and delta["cluster_2pc_commits"] == counts.get("transfer", 0),
            f"sharded_2pc: {delta['cluster_fastpath_commits']} fast-path and "
            f"{delta['cluster_2pc_commits']} 2PC commits for "
            f"{counts.get('rmw', 0)} single-shard and "
            f"{counts.get('transfer', 0)} cross-shard transactions",
        )

    def verify(self) -> list[str]:
        spec = self.spec
        total = spec["rows"] * spec["opening_balance"]
        bad = []
        with self.db.transaction() as txn:
            now = {r["id"]: r["bal"] for r in self.table.scan(txn)}
        if sum(now.values()) != total:
            bad.append(
                f"balance not conserved: {sum(now.values())} != {total}"
            )
        if now != {k: self.oracle.current(k) for k in self.oracle.keys()}:
            bad.append("current balances differ from acknowledged transfers")
        marks = self.oracle.marks
        step = max(1, len(marks) // spec["verify_marks"])
        for m in sorted(set(range(0, len(marks), step)) | {len(marks) - 1}):
            got = {r["id"]: r["bal"] for r in self.table.scan_as_of(marks[m])}
            want = {k: self.oracle.at(k, m) for k in self.oracle.keys()}
            if got != want or sum(got.values()) != total:
                bad.append(f"cross-shard AS OF scan at mark {m} is wrong")
        for shard in self.db.shards:
            verify_integrity(shard.db, strict=True)
        return bad[:5]


# ---------------------------------------------------------------------------
# The SQL service
# ---------------------------------------------------------------------------


def sql_mark(ts: Timestamp) -> str:
    """A SQL datetime inside ``ts``'s 20 ms tick (mid-tick, so float
    rounding in the server's datetime-to-tick conversion cannot move it)."""
    start = Timestamp(ts.ttime, 0).to_datetime()
    return (start + timedelta(milliseconds=TICK_MS / 2)).isoformat(sep=" ")


class SQLServiceWorkload(KVWorkload):
    """Two connections to ``python -m repro.service`` in a child process."""

    name = "sql_service"
    table_name = "t"
    clients = 2

    def __init__(self, spec, seed, workdir, *, root: str, trace_out=None):
        super().__init__(spec, seed, workdir)
        self.root = root
        self.trace_out = trace_out
        self.tracing = False
        self.traced_spans: list[tuple] = []
        self.proc = None
        self.db = None

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, "db")
        db = ImmortalDB(self.path)

        def mark(db):
            # Marks are SQL datetimes at tick resolution: advance a whole
            # tick so no later commit shares the marked tick.
            self.oracle.mark(sql_mark(db.now()))
            db.advance_time(2 * TICK_MS)

        self.build_kv(db, mark)
        db.close()
        rows = self.spec["rows"]
        probe_side = self.sides(rows)[True]
        # Each connection writes only its own keys (by parity), so the
        # oracle knows every key's order of acknowledged writes.
        self.side = {
            (c, False): Side(
                probe_side.hi, rows,
                LiveKeys(range(probe_side.hi + c, rows, self.clients)),
                probe_side.marks,
            )
            for c in range(self.clients)
        }
        self.side[0, True] = probe_side
        self.next_key = [rows + c for c in range(self.clients)]
        self.connect()

    # -- the child process ----------------------------------------------

    def connect(self) -> None:
        self.start_server()
        self.conns = [
            ServiceClient("127.0.0.1", self.port) for _ in range(self.clients)
        ]
        for conn in self.conns:
            self.expect_ok(conn.ping())

    def disconnect(self, *, kill: bool) -> None:
        if self.tracing:
            self.dump_trace()
        for conn in self.conns:
            conn.close()
        self.stop_server(kill=kill)

    def start_server(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro.service"]
        else:
            cmd = [sys.executable,
                   os.path.join(self.root, "perfbench", "serve_traced.py"),
                   "--trace-out", self.trace_out]
        cmd += ["--path", self.path, "--port", "0"]
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=self.workdir, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop_server(kill=True)
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop_server(self, *, kill: bool) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except BaseException as exc:
            # Timed out, or this run is being terminated: never leave the
            # server behind.
            self.proc.kill()
            self.proc.wait()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
        self.proc.stdout.close()
        self.proc = None

    def quiesce(self) -> None:
        """Graceful restart: the service's drain closes the engine, which
        flushes every page and checkpoints."""
        self.disconnect(kill=False)
        self.connect()

    def crash(self) -> None:
        self.disconnect(kill=True)

    def recover(self) -> None:
        """Reopen the killed service's files in this process (for checks)."""
        self.db = ImmortalDB(self.path)

    def warm(self) -> None:
        """Serve again, and scan every current row once (no row matches)."""
        self.db.close()
        self.db = None
        self.connect()
        self.expect_ok(self.conns[0].request(
            {"op": "sql", "sql": "SELECT k FROM t WHERE v = ''"}
        ))

    def reopen(self, directory: str) -> list[ImmortalDB]:
        return [ImmortalDB(os.path.join(directory, "db"))]

    def close(self) -> None:
        if self.proc is not None:
            self.disconnect(kill=False)
        if self.db is not None:
            self.db.close()
            self.db = None

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def start_trace(self) -> None:
        self.expect_ok(self.conns[0].request({"op": "trace_start"}))
        self.tracing = True

    def dump_trace(self) -> list[tuple]:
        """The service's spans since ``start_trace``; stops its recording."""
        self.expect_ok(self.conns[0].request({"op": "trace_dump"}))
        self.tracing = False
        self.traced_spans += spans.load(self.trace_out)
        return self.traced_spans

    # -- operations -----------------------------------------------------

    @staticmethod
    def expect_ok(resp: dict) -> dict:
        if resp.get("status") != "ok":
            raise RuntimeError(f"service answered {resp}")
        return resp

    def stats(self) -> dict:
        return self.expect_ok(self.conns[0].stats())["rows"][0]

    def after_op(self, client: int, n: int) -> None:
        pass    # AS OF reads use the marks recorded at set-up

    def ops(self, client: int, probe: bool = False) -> dict:
        oracle, conn = self.oracle, self.conns[client]
        side, width = self.side[client, probe], self.spec["scan_keys"]
        setup_keys = [k for k in side.live.keys if k < self.spec["rows"]]

        def sql(text, rid):
            return self.expect_ok(
                conn.request({"op": "sql", "sql": text, "id": rid})
            )

        def select(rng, rid):
            k = side.live.choice(rng)
            rows = sql(f"SELECT * FROM t WHERE k = {k}", rid)["rows"]
            return [r["v"] for r in rows], lambda: [oracle.current(k)]

        def update(rng, rid):
            k, v = side.live.choice(rng), self.value(rng)
            sql(f"UPDATE t SET v = '{v}' WHERE k = {k}", rid)
            self.write(k, v)

        def insert(rng, rid):
            k, v = self.next_key[client], self.value(rng)
            sql(f"INSERT INTO t (k, v) VALUES ({k}, '{v}')", rid)
            self.next_key[client] += self.clients
            self.write(k, v)
            side.live.add(k)

        def asof(rng, rid):
            m, k = rng.randrange(len(oracle.marks)), rng.choice(setup_keys)
            rows = sql(
                f"SELECT * FROM t AS OF '{oracle.marks[m]}' WHERE k = {k}", rid
            )["rows"]
            return [r["v"] for r in rows], lambda: [oracle.at(k, m)]

        def history(rng, rid):
            k = side.live.choice(rng)
            rows = sql(f"SELECT HISTORY OF t WHERE k = {k}", rid)["rows"]
            return [None if r["_deleted"] else r["v"] for r in rows], \
                lambda: oracle.history(k)

        def scan(rng, rid):
            # The executor has no start-key descent for AS OF scans, so it
            # reads from the first key; LIMIT stops it at the range's end.
            m = rng.randrange(len(oracle.marks))
            lo = rng.randrange(side.lo, side.hi - width)
            hi = lo + width - 1
            rows = sql(
                f"SELECT * FROM t AS OF '{oracle.marks[m]}' "
                f"WHERE k >= {lo} AND k <= {hi} LIMIT {width}", rid,
            )["rows"]
            return [(r["k"], r["v"]) for r in rows], \
                lambda: expected_range(oracle, m, lo, hi)

        def transfer(rng, rid):
            a, b = side.live.two(rng)
            va, vb = self.value(rng), self.value(rng)
            sql("BEGIN TRAN", f"{rid}.0")
            sql(f"UPDATE t SET v = '{va}' WHERE k = {a}", f"{rid}.1")
            sql(f"UPDATE t SET v = '{vb}' WHERE k = {b}", f"{rid}.2")
            sql("COMMIT TRAN", f"{rid}.3")
            self.write(a, va)
            self.write(b, vb)

        return dict(read=select, update=update, insert=insert, asof=asof,
                    history=history, scan=scan, transfer=transfer)

    def check_premises(self, delta: dict, counts: dict) -> None:
        self.premise(
            delta["service_rejects"] == 0 and delta["service_timeouts"] == 0,
            f"sql_service must not shed: {delta['service_rejects']} rejects, "
            f"{delta['service_timeouts']} timeouts",
        )

    def verify(self) -> list[str]:
        return self.verify_kv(self.db.table("t"))


WORKLOADS = {
    cls.name: cls
    for cls in (OltpDurable, TimeTravelDeep, SQLServiceWorkload, Sharded2PC)
}
