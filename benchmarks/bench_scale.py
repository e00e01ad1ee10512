"""Scale harness: the engine under sustained eviction/flush/checkpoint pressure.

``bench_throughput.py`` deliberately keeps every workload inside its buffer
pool (and now asserts so); its numbers say nothing about the I/O behaviour
the paper is actually about — current vs. history page residency, write
batching, versioned pages falling out of cache.  This harness is the other
half: a full-size Brinkhoff moving-object load (``repro.workloads.
moving_objects``) drives the data volume to a large multiple of a *bounded*
buffer pool, then a mixed current/as-of/history phase and an as-of scan
phase run against that pressured pool, with per-phase wall-clock ops/sec,
the cost model's ``simulated_ms`` (the repo's canonical I/O metric,
calibrated to the paper's 2005 disk), and raw engine counters.

Two configurations run the identical workload at the identical buffer
budget:

* **naive** — the seed policy: single-list LRU, one WAL force + one page
  write per dirty eviction (``eviction="lru", flush_batch=0``);
* **tuned** — 2Q eviction (history sweeps wash through the probation queue
  instead of flushing the hot current-page working set) plus batched flush
  scheduling (dirty evictions gather a page-id-ordered batch under a single
  WAL force).

The mixed-phase speedup naive/tuned on simulated cost is the headline gate
(``--min-speedup``, default 3.0): both configurations execute the identical
op sequence, so the simulated-cost ratio is the throughput ratio on the
modelled hardware — and it is a pure function of the (seeded,
deterministic) engine counters, so the gate cannot flake.  Wall-clock
numbers are reported alongside; on a dev box the OS page cache absorbs
the random I/O this harness exists to expose, so they are informational.
The JSON this writes (``BENCH_scale.json``) is the committed baseline CI
compares against; ``--compare`` fails the run when any tuned phase's
simulated cost regresses by more than ``--tolerance`` (default 30 %).  Every
pressured workload must report ``buffer_evictions > 0`` and
``disk_writes > 0`` — the harness refuses to publish in-memory numbers as
scale numbers.

Run it:

    PYTHONPATH=src python benchmarks/bench_scale.py --quick          # CI
    PYTHONPATH=src python benchmarks/bench_scale.py                  # full
    PYTHONPATH=src python benchmarks/bench_scale.py --quick \
        --compare BENCH_scale.json                                   # gate
    PYTHONPATH=src python benchmarks/bench_scale.py --quick --ablation
    PYTHONPATH=src python benchmarks/bench_scale.py --quick --depth-sweep
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time
from dataclasses import dataclass

if __package__ in (None, ""):  # direct script invocation without PYTHONPATH
    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.engine import ImmortalDB
from repro.core.rowcodec import ColumnType
from repro.workloads.moving_objects import MovingObjectWorkload

SEED = 23
GROUP_COMMIT_WINDOW = 8
TICK_BATCH = 8    # moving objects advance in multi-object tick transactions
ROUTE_PAD = 700   # route-trace blob: a handful of objects per 8 KiB page

COUNTER_KEYS = (
    "commits", "log_forces", "log_appends",
    "buffer_hits", "buffer_misses", "buffer_evictions",
    "buffer_dirty_evictions", "evict_scan_skips", "buffer_prefetches",
    "flush_batches", "flush_coalesced_writes",
    "page_flushes", "disk_reads", "disk_writes",
    "disk_sequential_reads", "disk_sequential_writes",
    "stamps", "version_ops",
    "asof_queries", "asof_pages_examined",
    "archive_pages_migrated", "archive_pages_freed",
    "archive_block_reads",
)

# Archive configuration for --archive mode: the horizon is short enough
# that the load phase's history is cold by the time the mixed phase runs,
# so checkpoint-riding migration (auto=True) drains it and frees the pages
# for reuse — shrinking the on-disk footprint the mixed phase's sweeps and
# evictions have to cover.
ARCHIVE_CONFIG = {
    "cold_ms": 2000.0, "pages_per_step": 32,
    "merge_threshold": 8, "auto": True,
}


@dataclass(frozen=True)
class Sizes:
    """Workload scale knobs (one set for --quick, one for the full run)."""

    objects: int          # moving objects = table keys
    hot_objects: int      # the contiguous key range tick updates hit
    load_events: int      # Brinkhoff insert/update transactions
    mixed_ops: int        # mixed-phase operations
    scan_queries: int     # full-table as-of scans in the scan phase
    buffer_pages: int     # the bounded pool both configs share
    checkpoint_every: int  # mixed-phase checkpoint cadence (flush pressure)
    flush_batch: int      # tuned config's write-batch size
    flood_every: int      # mixed-phase ops between current-position sweeps
    read_ahead: int       # tuned config's sequential-miss prefetch depth


# Scale discipline for both size points: the hot leaves must fit the 2Q
# protected queue (capacity - capacity/8) — and version churn bloats hot
# leaves to only ~4 *live* keys per 8 KiB page, so hot_objects/4 is the
# number to size against — while the full current leaf set (hot movers
# plus the stationary fleet) must overflow the pool, so the periodic
# monitoring sweep floods an LRU pool but cannot displace a protected
# hot set.
QUICK = Sizes(
    objects=2600, hot_objects=140, load_events=3000, mixed_ops=3000,
    scan_queries=3, buffer_pages=48, checkpoint_every=250, flush_batch=8,
    flood_every=20, read_ahead=8,
)
FULL = Sizes(
    objects=12_000, hot_objects=1100, load_events=120_000, mixed_ops=30_000,
    scan_queries=8, buffer_pages=384, checkpoint_every=2000, flush_batch=32,
    flood_every=150, read_ahead=32,
)


def _build_db(
    tmpdir: str, *, buffer_pages: int, eviction: str, flush_batch: int,
    read_ahead: int = 0, archive: dict | None = None,
) -> ImmortalDB:
    path = os.path.join(tmpdir, "scale.db")
    kwargs = dict(
        path=path, buffer_pages=buffer_pages, ms_per_commit=5.0,
        group_commit_window=GROUP_COMMIT_WINDOW,
    )
    if archive is not None:
        kwargs["archive"] = dict(archive)
    try:
        return ImmortalDB(
            eviction=eviction, flush_batch=flush_batch,
            read_ahead=read_ahead, **kwargs,
        )
    except TypeError:
        # Pre-eviction-policy engine: only the naive configuration exists.
        kwargs.pop("archive", None)
        return ImmortalDB(**kwargs)


def _make_table(db: ImmortalDB):
    return db.create_table(
        "MovingObjects",
        [
            ("Oid", ColumnType.INT),
            ("LocationX", ColumnType.INT),
            ("LocationY", ColumnType.INT),
            ("Route", ColumnType.TEXT),
        ],
        key="Oid", immortal=True,
    )


def _route(rng: random.Random, x: int, y: int) -> str:
    # Varying value lengths (PAPERS.md benchmark shape): position plus a
    # route-trace blob whose size varies record to record.
    return f"({x},{y})" + "r" * rng.randrange(ROUTE_PAD // 2, ROUTE_PAD)


def _page_count(db: ImmortalDB) -> int:
    pc = getattr(db.disk, "page_count", 0)
    return pc() if callable(pc) else pc


def _flush_commits(db: ImmortalDB) -> None:
    flush = getattr(db, "flush_commits", None)
    if flush is not None:
        flush()
    else:
        db.log.force()


def _measure(db: ImmortalDB, fn) -> dict:
    from repro.bench.costmodel import COST_2005, stats_delta

    before = db.stats()
    start = time.perf_counter()
    ops = fn()
    wall = time.perf_counter() - start
    delta = stats_delta(before, db.stats())
    counters = {k: delta[k] for k in COUNTER_KEYS if k in delta}
    simulated_ms = COST_2005.simulated_ms(delta)
    return {
        "ops": ops,
        "wall_seconds": round(wall, 6),
        "ops_per_sec": round(ops / wall, 1) if wall > 0 else float("inf"),
        "simulated_ms": round(simulated_ms, 3),
        # Both clocks, per phase: wall ops/sec says what this machine did
        # (page cache included); simulated ops/sec says what the modelled
        # 2005 disk would have done.  The two can rank configurations in
        # opposite orders — see EXPERIMENTS.md, "Why simulated cost is the
        # gated metric".
        "sim_ops_per_sec": round(ops / (simulated_ms / 1000.0), 1)
        if simulated_ms > 0 else float("inf"),
        "counters": counters,
    }


# -- phases -------------------------------------------------------------------


def _run_load(db: ImmortalDB, table, sizes: Sizes, marks: list) -> int:
    """Replay the Brinkhoff stream; collects as-of time marks on the way.

    The ``hot_objects`` movers replay the Brinkhoff network trace; then a
    stationary fleet (the rest of the key range) arrives and parks.  The
    paper's own workload shape — "*once an object reaches its destination,
    it stops sending update transactions*" — so these rows are inserted
    once, in key order, and never touched by the mixed phase's updates
    (only by its sweeps and as-of probes).  Inserting them last in
    ascending key order grows the B-tree purely at its right edge, so
    their leaves get (mostly) consecutive page ids: the layout a real
    bulk load produces, and the one sequential read-ahead rewards.
    """
    rng = random.Random(SEED)
    movers = min(sizes.hot_objects, sizes.objects)
    workload = MovingObjectWorkload(objects=movers, seed=SEED)
    mark_every = max(1, sizes.load_events // 16)
    for i, event in enumerate(workload.events(max_events=sizes.load_events)):
        if i % mark_every == 0:
            marks.append(db.now())
        route = _route(rng, event.x, event.y)
        with db.transaction() as txn:
            if event.kind == "insert":
                table.insert(txn, {
                    "Oid": event.oid, "LocationX": event.x,
                    "LocationY": event.y, "Route": route,
                })
            else:
                table.update(txn, event.oid, {
                    "LocationX": event.x, "LocationY": event.y,
                    "Route": route,
                })
        if i % sizes.checkpoint_every == sizes.checkpoint_every - 1:
            db.checkpoint(flush=True)
    marks.append(db.now())
    parked = 0
    for oid in range(movers, sizes.objects):
        x, y = rng.randrange(10_000), rng.randrange(10_000)
        with db.transaction() as txn:
            table.insert(txn, {
                "Oid": oid, "LocationX": x, "LocationY": y,
                "Route": _route(rng, x, y),
            })
        parked += 1
    _flush_commits(db)
    # Leave the pool clean: both configurations enter the mixed phase with
    # no dirty debt from the load.
    db.checkpoint(flush=True)
    marks.append(db.now())
    return sizes.load_events + parked


def _scan_iter(table, ts):
    it = getattr(table, "scan_as_of_iter", None)
    return it(ts) if it is not None else iter(table.scan_as_of(ts))


def _run_mixed(db: ImmortalDB, table, sizes: Sizes, marks: list) -> int:
    """Hot tick updates against periodic current-position monitoring sweeps.

    This mix is the paper's setting and 2Q's design point at once.  A
    *hot fleet* — the first ``hot_objects`` of the key range, so its
    leaves are a contiguous run that fits the protected queue — reports
    continuously in multi-object tick transactions, while a monitoring
    query periodically sweeps every current position (``flood_every``),
    and as-of point probes plus history walks ride along as historical
    traffic.  Under LRU every sweep floods the pool and evicts the whole
    hot set: each dirty hot leaf goes out as a single random write-back,
    and the next tick reads every hot leaf back one random I/O at a
    time.  Under 2Q the sweep's pages live and die in the probation
    queue while the hot leaves stay protected in Am absorbing update
    after update; the sweep's misses over the cold half of the key range
    run in page-id order, so read-ahead turns them into sequential
    transfers; and the hot write-backs happen at checkpoints, where the
    batched flush scheduler emits them as page-id-ordered (mostly
    sequential) runs under one WAL force.
    """
    rng = random.Random(SEED + 1)
    ops = sizes.mixed_ops
    objects = sizes.objects
    hot = min(sizes.hot_objects, objects)
    done = 0
    next_checkpoint = sizes.checkpoint_every
    next_flood = sizes.flood_every
    while done < ops:
        draw = rng.random()
        if draw < 0.96:
            tick = min(TICK_BATCH, ops - done)
            with db.transaction() as txn:
                for _ in range(tick):
                    oid = rng.randrange(hot)
                    x, y = rng.randrange(10_000), rng.randrange(10_000)
                    table.update(txn, oid, {
                        "LocationX": x, "LocationY": y,
                        "Route": _route(rng, x, y),
                    })
            done += tick
        elif draw < 0.985:
            ts = marks[rng.randrange(len(marks))]
            table.read_as_of(ts, rng.randrange(objects))
            done += 1
        else:
            table.history(rng.randrange(objects))
            done += 1
        if done >= next_flood:
            # The monitoring sweep: where is every object right now?
            for _ in _scan_iter(table, db.now()):
                pass
            next_flood += sizes.flood_every
            done += 1
        if done >= next_checkpoint:
            db.checkpoint(flush=True)
            next_checkpoint += sizes.checkpoint_every
    _flush_commits(db)
    return ops


def _run_scans(db: ImmortalDB, table, sizes: Sizes, marks: list) -> int:
    rng = random.Random(SEED + 2)
    total = 0
    for _ in range(sizes.scan_queries):
        ts = marks[rng.randrange(len(marks))]
        rows = table.scan_as_of(ts)
        total += len(rows)
    assert total > 0, "as-of scans found nothing at known marks"
    return sizes.scan_queries


# -- configurations -----------------------------------------------------------


def run_config(
    *, eviction: str, flush_batch: int, sizes: Sizes, read_ahead: int = 0,
    with_scan_reference: bool = False, archive: dict | None = None,
) -> dict:
    """The full phase suite under one buffer configuration."""
    out: dict = {
        "eviction": eviction, "flush_batch": flush_batch,
        "read_ahead": read_ahead, "archive": archive is not None,
    }
    marks: list = []
    with tempfile.TemporaryDirectory(prefix="bench_scale_") as tmp:
        db = _build_db(
            tmp, buffer_pages=sizes.buffer_pages,
            eviction=eviction, flush_batch=flush_batch,
            read_ahead=read_ahead, archive=archive,
        )
        table = _make_table(db)
        out["load"] = _measure(
            db, lambda: _run_load(db, table, sizes, marks)
        )
        out["mixed"] = _measure(
            db, lambda: _run_mixed(db, table, sizes, marks)
        )
        out["scan"] = _measure(
            db, lambda: _run_scans(db, table, sizes, marks)
        )
        data_pages = _page_count(db)
        out["data_pages"] = data_pages
        if archive is not None:
            stats = db.stats()
            out["archive_stats"] = {
                "pages_migrated": stats["archive_pages_migrated"],
                "pages_freed": stats["archive_pages_freed"],
                "free_reuses": getattr(db.disk.stats, "free_reuses", 0),
                "runs": stats["archive_runs"],
                "blocks": stats["archive_blocks"],
                "block_reads": stats["archive_block_reads"],
                "bytes_raw": stats["archive_bytes_raw"],
                "bytes_stored": stats["archive_bytes_stored"],
            }
        if with_scan_reference:
            # The in-memory reference for the as-of latency ratio: lift the
            # cap far above the data volume, warm with one pass, re-measure.
            # Same database, same marks, same code path — the only change is
            # that no page falls out of cache.
            db.buffer.capacity = (data_pages or 100_000) + 1024
            _run_scans(db, table, sizes, marks)   # warm
            out["scan_inmemory"] = _measure(
                db, lambda: _run_scans(db, table, sizes, marks)
            )
        db.close()
    return out


def _phase_ms_per_query(phase: dict, queries: int) -> float:
    return phase["wall_seconds"] * 1000.0 / max(1, queries)


def run_scale(*, quick: bool, tuned_only: bool = False) -> dict:
    sizes = QUICK if quick else FULL
    payload: dict = {
        "quick": quick,
        "seed": SEED,
        "buffer_pages": sizes.buffer_pages,
        "objects": sizes.objects,
        "hot_objects": sizes.hot_objects,
        "load_events": sizes.load_events,
        "mixed_ops": sizes.mixed_ops,
        "group_commit_window": GROUP_COMMIT_WINDOW,
    }
    if not tuned_only:
        payload["naive"] = run_config(
            eviction="lru", flush_batch=0, sizes=sizes,
        )
    payload["tuned"] = run_config(
        eviction="2q", flush_batch=sizes.flush_batch, sizes=sizes,
        read_ahead=sizes.read_ahead, with_scan_reference=True,
    )
    if not tuned_only:
        # Speedup on the deterministic cost model (the repo's canonical I/O
        # metric, calibrated to the paper's 2005 disk): both configurations
        # execute the identical op sequence, so the ratio of simulated cost
        # is the ratio of mixed throughput on the modelled hardware.  Wall
        # numbers are reported alongside but not gated: on a dev box the
        # page cache absorbs the random I/O this harness exists to expose.
        payload["mixed_speedup"] = round(
            payload["naive"]["mixed"]["simulated_ms"]
            / payload["tuned"]["mixed"]["simulated_ms"], 3,
        )
        payload["mixed_wall_speedup"] = round(
            payload["tuned"]["mixed"]["ops_per_sec"]
            / payload["naive"]["mixed"]["ops_per_sec"], 3,
        )
    # Per-phase speedups on both clocks: the divergence between the two is
    # the point (wall is page-cache-bound on a dev box, simulated is the
    # modelled 2005 disk) — see EXPERIMENTS.md.
    if not tuned_only:
        payload["phase_speedups"] = {
            phase: {
                "simulated": round(
                    payload["naive"][phase]["simulated_ms"]
                    / max(1e-9, payload["tuned"][phase]["simulated_ms"]), 3,
                ),
                "wall": round(
                    payload["naive"][phase]["wall_seconds"]
                    / max(1e-9, payload["tuned"][phase]["wall_seconds"]), 3,
                ),
            }
            for phase in ("load", "mixed", "scan")
        }
    tuned = payload["tuned"]
    pressured = _phase_ms_per_query(tuned["scan"], sizes.scan_queries)
    inmemory = _phase_ms_per_query(tuned["scan_inmemory"], sizes.scan_queries)
    tuned_pages = tuned["data_pages"]
    payload["asof_scan"] = {
        "pressured_ms_per_query": round(pressured, 3),
        "inmemory_ms_per_query": round(inmemory, 3),
        "latency_ratio": round(pressured / inmemory, 3) if inmemory else None,
        "data_pages": tuned_pages,
        "data_to_buffer_ratio": round(tuned_pages / sizes.buffer_pages, 2)
        if tuned_pages else None,
    }
    return payload


def check_pressure(payload: dict) -> list[str]:
    """Every scale workload must actually have been under pressure.

    Evictions are required in every phase; disk writes are required per
    workload (the scan phase is read-only by design — its writes are the
    dirty pages earlier phases left behind, which may legitimately be
    zero right after a checkpoint).
    """
    problems = []
    for config in ("naive", "tuned"):
        if config not in payload:
            continue
        writes = 0
        for phase in ("load", "mixed", "scan"):
            counters = payload[config][phase]["counters"]
            writes += counters.get("disk_writes", 0)
            if counters.get("buffer_evictions", 0) <= 0:
                problems.append(
                    f"{config}/{phase}: buffer_evictions == 0 — the "
                    "workload did not generate eviction pressure; scale "
                    "numbers would be in-memory numbers"
                )
        if writes <= 0:
            problems.append(
                f"{config}: disk_writes == 0 across all phases — nothing "
                "was ever written back under pressure"
            )
    return problems


def compare_against(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Regressions beyond ``tolerance`` in the tuned configuration.

    Gated on ``simulated_ms`` — a pure function of the engine's counters,
    so it is deterministic across machines and CI runners; wall-clock
    ops/sec would need a far looser gate to absorb runner noise.
    """
    problems = []
    if baseline.get("quick") != current.get("quick"):
        return [
            "baseline and current run disagree on --quick mode; "
            "absolute simulated_ms is only comparable within one mode"
        ]
    base_tuned = baseline.get("tuned", {})
    now_tuned = current.get("tuned", {})
    for phase in ("load", "mixed", "scan"):
        base = base_tuned.get(phase)
        now = now_tuned.get(phase)
        if base is None:
            continue
        if now is None:
            problems.append(f"tuned/{phase}: missing from current run")
            continue
        ceiling = base["simulated_ms"] * (1.0 + tolerance)
        if now["simulated_ms"] > ceiling:
            problems.append(
                f"tuned/{phase}: {now['simulated_ms']:.1f} simulated ms is "
                f"above {ceiling:.1f} (baseline {base['simulated_ms']:.1f} "
                f"+ {tolerance:.0%} tolerance)"
            )
    return problems


def run_archive_comparison(*, quick: bool) -> dict:
    """Tuned vs tuned-plus-archive on the identical workload and budget.

    What archiving buys under eviction pressure: the load phase's history
    pages go cold, checkpoint-riding migration drains them into the
    delta-compressed archive and *frees* the TSB-tree pages, so the mixed
    phase works against a smaller on-disk footprint — fewer distinct pages
    to sweep, fewer evictions — and new history growth reuses the freed
    page ids instead of growing the file.
    """
    sizes = QUICK if quick else FULL
    payload: dict = {
        "quick": quick,
        "seed": SEED,
        "buffer_pages": sizes.buffer_pages,
        "archive_config": dict(ARCHIVE_CONFIG),
    }
    payload["tuned"] = run_config(
        eviction="2q", flush_batch=sizes.flush_batch, sizes=sizes,
        read_ahead=sizes.read_ahead,
    )
    payload["tuned_archive"] = run_config(
        eviction="2q", flush_batch=sizes.flush_batch, sizes=sizes,
        read_ahead=sizes.read_ahead, archive=ARCHIVE_CONFIG,
    )
    base_ev = payload["tuned"]["mixed"]["counters"]["buffer_evictions"]
    arch_ev = payload["tuned_archive"]["mixed"]["counters"]["buffer_evictions"]
    payload["mixed_evictions"] = {
        "tuned": base_ev,
        "tuned_archive": arch_ev,
        "reduction_pct": round(100.0 * (base_ev - arch_ev) / base_ev, 1)
        if base_ev else None,
    }
    payload["data_pages"] = {
        "tuned": payload["tuned"]["data_pages"],
        "tuned_archive": payload["tuned_archive"]["data_pages"],
    }
    return payload


def check_archive_comparison(payload: dict) -> list[str]:
    problems = []
    stats = payload["tuned_archive"].get("archive_stats") or {}
    if stats.get("pages_freed", 0) <= 0:
        problems.append(
            "archive run freed no pages — migration never fired; raise "
            "cold_ms pressure or checkpoint cadence"
        )
    ev = payload["mixed_evictions"]
    if ev["tuned_archive"] >= ev["tuned"]:
        problems.append(
            f"mixed-phase buffer_evictions did not drop with archiving on "
            f"({ev['tuned_archive']} vs {ev['tuned']})"
        )
    return problems


# -- ablation / sweep modes ---------------------------------------------------


def run_ablation(*, quick: bool) -> list[dict]:
    """Eviction policy x I/O scheduling, identical workload and budget.

    The scheduling axis toggles flush batching and read-ahead together —
    they are the write- and read-side halves of the same idea (turn
    scattered single-page I/O into id-ordered runs), and the tuned
    configuration ships them as a pair.
    """
    sizes = QUICK if quick else FULL
    rows = []
    for eviction in ("lru", "2q"):
        for flush_batch, read_ahead in (
            (0, 0), (sizes.flush_batch, sizes.read_ahead),
        ):
            result = run_config(
                eviction=eviction, flush_batch=flush_batch, sizes=sizes,
                read_ahead=read_ahead,
            )
            mixed = result["mixed"]
            rows.append({
                "eviction": eviction,
                "flush_batch": flush_batch,
                "read_ahead": read_ahead,
                "mixed_simulated_ms": mixed["simulated_ms"],
                "mixed_ops_per_sec": mixed["ops_per_sec"],
                "buffer_misses": mixed["counters"]["buffer_misses"],
                "dirty_evictions":
                    mixed["counters"].get("buffer_dirty_evictions", 0),
                "disk_writes": mixed["counters"]["disk_writes"],
                "sequential_writes":
                    mixed["counters"].get("disk_sequential_writes", 0),
                "disk_reads": mixed["counters"]["disk_reads"],
                "sequential_reads":
                    mixed["counters"].get("disk_sequential_reads", 0),
                "prefetches": mixed["counters"].get("buffer_prefetches", 0),
                "log_forces": mixed["counters"]["log_forces"],
                "flush_batches": mixed["counters"].get("flush_batches", 0),
                "coalesced_writes":
                    mixed["counters"].get("flush_coalesced_writes", 0),
            })
    return rows


def run_depth_sweep(*, quick: bool) -> list[dict]:
    """Throughput and as-of latency as history depth grows past the pool.

    Fixed key count, fixed buffer budget; each step doubles the number of
    versions per key, so the *history* volume (and the data:buffer ratio)
    doubles while the current working set stays constant.  The paper's
    claim is that the mixed numbers stay roughly flat — history lives on
    time-split pages the current path never touches.
    """
    sizes = QUICK if quick else FULL
    keys = max(64, sizes.objects // 4)
    rows = []
    for depth in (2, 4, 8, 16):
        marks: list = []
        with tempfile.TemporaryDirectory(prefix="bench_depth_") as tmp:
            db = _build_db(
                tmp, buffer_pages=sizes.buffer_pages,
                eviction="2q", flush_batch=sizes.flush_batch,
                read_ahead=sizes.read_ahead,
            )
            table = _make_table(db)
            rng = random.Random(SEED + 3)

            def load(depth=depth, rng=rng) -> int:
                for v in range(depth):
                    marks.append(db.now())
                    for k in range(keys):
                        x, y = rng.randrange(10_000), rng.randrange(10_000)
                        with db.transaction() as txn:
                            if v == 0:
                                table.insert(txn, {
                                    "Oid": k, "LocationX": x,
                                    "LocationY": y, "Route": _route(rng, x, y),
                                })
                            else:
                                table.update(txn, k, {
                                    "LocationX": x, "LocationY": y,
                                    "Route": _route(rng, x, y),
                                })
                    _flush_commits(db)
                    db.advance_time(500.0)
                marks.append(db.now())
                return depth * keys

            load()
            depth_sizes = Sizes(
                objects=keys, hot_objects=keys, load_events=0,
                mixed_ops=max(200, sizes.mixed_ops // 8),
                scan_queries=max(2, sizes.scan_queries // 2),
                buffer_pages=sizes.buffer_pages,
                checkpoint_every=sizes.checkpoint_every,
                flush_batch=sizes.flush_batch,
                flood_every=sizes.flood_every,
                read_ahead=sizes.read_ahead,
            )
            mixed = _measure(
                db, lambda: _run_mixed(db, table, depth_sizes, marks)
            )
            scan = _measure(
                db, lambda: _run_scans(db, table, depth_sizes, marks)
            )
            data_pages = _page_count(db)
            rows.append({
                "depth": depth,
                "data_pages": data_pages,
                "data_to_buffer_ratio":
                    round(data_pages / sizes.buffer_pages, 2),
                "mixed_ops_per_sec": mixed["ops_per_sec"],
                "scan_ms_per_query": round(_phase_ms_per_query(
                    scan, depth_sizes.scan_queries), 3),
            })
            db.close()
    return rows


# -- CLI ----------------------------------------------------------------------


def _print_phase(config: str, name: str, r: dict) -> None:
    c = r["counters"]
    print(f"{config:>5}/{name:<5} {r['simulated_ms']:>10.0f} sim-ms "
          f"{r['wall_seconds']:>7.2f} wall-s "
          f"{r['ops_per_sec']:>9.1f} ops/s wall "
          f"({r['ops']} ops, "
          f"evictions {c.get('buffer_evictions', '?')}, "
          f"dirty {c.get('buffer_dirty_evictions', '?')}, "
          f"reads {c.get('disk_reads', '?')}, "
          f"writes {c.get('disk_writes', '?')}, "
          f"seq-writes {c.get('disk_sequential_writes', '?')}, "
          f"forces {c.get('log_forces', '?')})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_scale.py",
        description="Eviction-pressure benchmark with naive-vs-tuned gating.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workloads (the committed baseline)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the JSON here (default: print only)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="fail if tuned simulated cost regresses vs "
                             "this JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail if tuned mixed simulated speedup vs "
                             "naive is below this (default 3.0)")
    parser.add_argument("--ablation", action="store_true",
                        help="eviction x flush-batch ablation table instead "
                             "of the gated naive-vs-tuned run")
    parser.add_argument("--depth-sweep", action="store_true",
                        help="history-depth sweep table instead of the "
                             "gated naive-vs-tuned run")
    parser.add_argument("--archive", action="store_true",
                        help="tuned vs tuned+cold-history-archive comparison "
                             "instead of the gated naive-vs-tuned run")
    args = parser.parse_args(argv)

    if args.archive:
        payload = run_archive_comparison(quick=args.quick)
        for config in ("tuned", "tuned_archive"):
            for phase in ("load", "mixed", "scan"):
                _print_phase(config, phase, payload[config][phase])
        stats = payload["tuned_archive"].get("archive_stats") or {}
        ev = payload["mixed_evictions"]
        pages = payload["data_pages"]
        ratio = (
            round(stats["bytes_raw"] / stats["bytes_stored"], 2)
            if stats.get("bytes_stored") else None
        )
        print(f"archive: migrated {stats.get('pages_migrated', 0)} pages, "
              f"freed {stats.get('pages_freed', 0)}, "
              f"reused {stats.get('free_reuses', 0)}, "
              f"{stats.get('runs', 0)} runs / {stats.get('blocks', 0)} "
              f"blocks, compression {ratio}x")
        print(f"data pages: {pages['tuned']} tuned vs "
              f"{pages['tuned_archive']} with archive")
        print(f"mixed evictions: {ev['tuned']} tuned vs "
              f"{ev['tuned_archive']} with archive "
              f"({ev['reduction_pct']}% reduction)")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.output}")
        failed = False
        for problem in check_archive_comparison(payload):
            print(f"FAIL {problem}")
            failed = True
        return 1 if failed else 0

    if args.ablation:
        rows = run_ablation(quick=args.quick)
        print(f"{'eviction':>8} {'batch':>5} {'ra':>4} {'sim-ms':>9} "
              f"{'ops/s':>9} {'misses':>8} {'dirty_ev':>8} {'writes':>7} "
              f"{'seq-w':>6} {'seq-r':>6} {'batches':>7} {'coal':>5}")
        for r in rows:
            print(f"{r['eviction']:>8} {r['flush_batch']:>5} "
                  f"{r['read_ahead']:>4} "
                  f"{r['mixed_simulated_ms']:>9.0f} "
                  f"{r['mixed_ops_per_sec']:>9.1f} {r['buffer_misses']:>8} "
                  f"{r['dirty_evictions']:>8} {r['disk_writes']:>7} "
                  f"{r['sequential_writes']:>6} {r['sequential_reads']:>6} "
                  f"{r['flush_batches']:>7} {r['coalesced_writes']:>5}")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump({"ablation": rows}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.output}")
        return 0

    if args.depth_sweep:
        rows = run_depth_sweep(quick=args.quick)
        print(f"{'depth':>5} {'pages':>7} {'data:buf':>8} "
              f"{'mixed ops/s':>11} {'scan ms/q':>9}")
        for r in rows:
            print(f"{r['depth']:>5} {r['data_pages']:>7} "
                  f"{r['data_to_buffer_ratio']:>8.1f} "
                  f"{r['mixed_ops_per_sec']:>11.1f} "
                  f"{r['scan_ms_per_query']:>9.2f}")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump({"depth_sweep": rows}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.output}")
        return 0

    payload = run_scale(quick=args.quick)

    for config in ("naive", "tuned"):
        for phase in ("load", "mixed", "scan"):
            _print_phase(config, phase, payload[config][phase])
    asof = payload["asof_scan"]
    print(f"mixed speedup: {payload['mixed_speedup']:.2f}x simulated "
          f"(gate: >= {args.min_speedup:.2f}x; "
          f"wall {payload['mixed_wall_speedup']:.2f}x)")
    print(f"as-of scan: {asof['pressured_ms_per_query']:.1f} ms/query "
          f"pressured vs {asof['inmemory_ms_per_query']:.1f} in-memory "
          f"(ratio {asof['latency_ratio']}, data "
          f"{asof['data_to_buffer_ratio']}x the pool)")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    failed = False
    for problem in check_pressure(payload):
        print(f"FAIL {problem}")
        failed = True

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        problems = compare_against(baseline, payload, args.tolerance)
        for problem in problems:
            print(f"REGRESSION {problem}")
            failed = True
        if not problems:
            print(f"no regression vs {args.compare} "
                  f"(tolerance {args.tolerance:.0%})")

    if payload["mixed_speedup"] < args.min_speedup:
        print(f"FAIL: tuned mixed simulated speedup "
              f"{payload['mixed_speedup']:.2f}x is below the "
              f"{args.min_speedup:.2f}x gate")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
