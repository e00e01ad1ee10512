"""Wall-clock benchmark of the Immortal DB engine, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload oltp_durable --seed 1 \
        --seconds 16 --trace 0

Builds the workload's starting database from the seed, keeps a crash
image of it, runs a closed loop for ``--seconds`` with a fixed-count probe
(the operation classes the loop's mix leaves out) between its slices,
restarts from the crash image, crashes and recovers, and checks every
answer against a benchmark-side version oracle.  Every end-to-end timing
is scaled by the host speed sampled around it (``hostspeed.py``).  The
last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}`` carrying the metrics
``BENCHMARK.json`` lists; the lines before it print every metric, with
sample counts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the loop untraced for half the time, then installs layer wrappers, builds
the workload again and runs it traced for the other half; it reports the
per-layer metrics, the tracing overhead and the unattributed share of op
wall time, and writes its spans to ``.perfbench/traces/``.

A run whose checks fail prints ``"correct": false`` with no metrics and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

from hostspeed import FSYNC, HostSpeed, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLASSES = ("read", "write", "asof", "scan", "history", "xshard")
# Which end-to-end latency metric each workload operation feeds.
OP_CLASS = {
    "read": "read", "update": "write", "insert": "write", "delete": "write",
    "rmw": "write", "asof": "asof", "scan": "scan", "history": "history",
    "transfer": "xshard",
}


class Recorder:
    """Per-client operation counts, latencies (s) and check failures.

    ``fsync[cls][i]`` is the part of ``lat[cls][i]`` spent in ``os.fsync``
    in this process.
    """

    def __init__(self) -> None:
        self.lat: dict[str, list[float]] = defaultdict(list)
        self.fsync: dict[str, list[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.problems: list[str] = []

    def run(self, name, fn, rng, rid, tracer=None) -> None:
        self.attempted[name] += 1
        cls = OP_CLASS[name]
        f0 = FSYNC.seconds()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = fn(rng, rid)
            else:
                with tracer.op("op." + name, rid):
                    res = fn(rng, rid)
        except Exception as exc:   # counted, reported, and fails the run
            self.failed[name] += 1
            self.lat[cls].append(math.inf)
            self.fsync[cls].append(0.0)
            self.problems.append(f"{name} {rid} failed: {exc!r}")
            return
        self.lat[cls].append(time.perf_counter() - t0)
        self.fsync[cls].append(FSYNC.seconds() - f0)
        if res is not None:
            got, want_fn = res
            want = want_fn()
            if got != want:
                self.problems.append(
                    f"{name} {rid}: got {got!r:.200} want {want!r:.200}"
                )

    def merge(self, other: "Recorder", *, timings: bool = True) -> None:
        if timings:
            for cls, values in other.lat.items():
                self.lat[cls].extend(values)
                self.fsync[cls].extend(other.fsync[cls])
        self.attempted.update(other.attempted)
        self.failed.update(other.failed)
        self.problems.extend(other.problems)


class Client:
    """One closed-loop client: its operations, generator and counters."""

    def __init__(self, workload, c: int, mix: dict, tracer=None,
                 tag: str = "loop") -> None:
        self.workload, self.c, self.tracer = workload, c, tracer
        self.ops = workload.ops(c)
        self.rng = workload.rng(f"{tag}-{c}")
        self.tag = tag
        self.names = sorted(mix)
        self.weights = [mix[name] for name in self.names]
        self.rec = Recorder()
        self.n = 0

    def step(self) -> None:
        name = self.rng.choices(self.names, self.weights)[0]
        self.rec.run(name, self.ops[name], self.rng,
                     f"{self.tag}{self.c}-{self.n}", self.tracer)
        self.n += 1
        self.workload.after_op(self.c, self.n)

    def run_until(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            self.step()


class SliceStats:
    """Per-slice throughput and latency samples, summarised by medians.

    A slow spell on a shared machine then moves a minority of slices, not
    the reported figure: throughput and ``_p50_ms`` are medians of
    per-slice figures, and a tail is the median of the tails of up to four
    runs of consecutive slices, each tail taken only where it has at least
    1000 samples.
    """

    def __init__(self) -> None:
        self.rates: list[float] = []
        self.samples: dict[str, list[list[float]]] = defaultdict(list)

    def add(self, recorders, marks, ops: int | None = None,
            seconds: float | None = None,
            scale: tuple[float, float] = (1.0, 1.0)) -> list:
        """Record the samples added since ``marks``, scaled by ``scale``
        (see ``HostSpeed.since``); returns new marks."""
        new = defaultdict(list)
        fsync = 0.0
        for rec, mark in zip(recorders, marks):
            for cls, values in rec.lat.items():
                start = mark.get(cls, 0)
                forced = rec.fsync[cls][start:]
                fsync += sum(forced)
                new[cls].extend(scaled(v, f, scale)
                                for v, f in zip(values[start:], forced))
        for cls, values in new.items():
            self.samples[cls].append(values)
        if ops is not None:
            self.rates.append(ops / scaled(seconds, fsync, scale))
        return [{cls: len(v) for cls, v in rec.lat.items()}
                for rec in recorders]

    def summary(self, cls: str):
        """(median ms, tail ms, n, tail quantile) for one class."""
        slices = self.samples.get(cls, [])
        values = [v for s in slices for v in s]
        medians = [statistics.median(s) for s in slices
                   if len(s) >= MIN_SLICE_SAMPLES]
        p50 = (statistics.median(medians) if len(medians) >= 3
               else statistics.median(values))
        groups = min(TAIL_GROUPS, len(values) // 1000, len(slices))
        if groups < 2:
            _, tail, q = latency_tail(values)
        else:
            parts = [
                [v for s in slices[g * len(slices) // groups:
                                   (g + 1) * len(slices) // groups]
                 for v in s]
                for g in range(groups)
            ]
            tails = [latency_tail(part) for part in parts]
            tail = statistics.median(t[1] for t in tails)
            q = min(t[2] for t in tails)
        return p50 * 1e3, tail * 1e3, len(values), q


MIN_SLICE_SAMPLES = 5
TAIL_GROUPS = 4
# Short slices let each be scaled by the host speed sampled at its ends.
SLICE_S = 0.5
# Restart samples run after the loop, never in its gaps: each copies the
# whole crash image, and the write-back of those copies slowed the loop's
# own log forces several-fold.
RESTARTS = 7


def closed_loop(workload, spec: dict, seconds: float, tracer=None,
                speed=None, probe=None):
    """Each client sends its next operation when the previous one returns.

    The loop runs in half-second slices.  With ``speed``, each slice's
    timings are scaled by the host speed sampled at its two ends.  With
    ``probe`` (which needs ``speed``), a probe batch runs in the gap after
    each slice, so probe timings see the same machine conditions as the
    loop's.  Gap time is
    excluded from the loop's elapsed time, and gap work from the returned
    counter delta.
    """
    clients = [Client(workload, c, spec["mix"], tracer)
               for c in range(workload.clients)]
    recorders = [c.rec for c in clients]
    slices = max(1, round(seconds / SLICE_S))
    stats = SliceStats()
    marks = [{} for _ in clients]
    elapsed = 0.0
    counters: dict = {}
    if speed is not None:
        speed.sample()
    for s in range(slices):
        before_stats = workload.stats()
        before_speed = speed.last if speed is not None else None
        t0 = time.perf_counter()
        deadline = t0 + seconds / slices
        before = sum(c.n for c in clients)
        threads = [threading.Thread(target=c.run_until, args=(deadline,))
                   for c in clients[1:]]
        for t in threads:
            t.start()
        clients[0].run_until(deadline)
        for t in threads:
            t.join()
        spent = time.perf_counter() - t0
        elapsed += spent
        for key, value in delta(before_stats, workload.stats()).items():
            counters[key] = counters.get(key, 0) + value
        scale = (speed.since(before_speed) if speed is not None
                 else (1.0, 1.0))
        marks = stats.add(recorders, marks,
                          sum(c.n for c in clients) - before, spent, scale)
        if probe is not None:
            probe.batch(s, slices, speed)
    loop = Recorder()
    for rec in recorders:
        loop.merge(rec)
    return loop, elapsed, stats, counters


class Probe:
    """The fixed-count probe, run in batches between loop slices."""

    def __init__(self, workload, spec: dict) -> None:
        self.rng = workload.rng("probe")
        self.order = [name for name in sorted(spec["probe"])
                      for _ in range(spec["probe"][name])]
        self.rng.shuffle(self.order)
        self.ops = workload.ops(0, probe=True)
        self.rec = Recorder()
        self.stats = SliceStats()
        self.marks = [{}]
        self.done = 0

    def batch(self, s: int, slices: int, speed) -> None:
        before = speed.last
        end = (s + 1) * len(self.order) // slices
        for name in self.order[self.done:end]:
            self.rec.run(name, self.ops[name], self.rng, f"p{self.done}")
            self.done += 1
        self.marks = self.stats.add([self.rec], self.marks,
                                    scale=speed.since(before))


def crash_image(workload, spec: dict, image: str):
    """Quiesce, run a fixed tail of the mix's writes, crash, keep the files.

    The crash image depends on the seed alone, so restarting from it does
    the same work however fast the loop later runs.  The flushing
    checkpoint (a graceful restart for the service) bounds the log the
    restart replays.  Returns the tail's recorder: checked, not timed.
    """
    workload.quiesce()
    writes = {name: weight for name, weight in spec["mix"].items()
              if OP_CLASS[name] in ("write", "xshard")}
    tail = Client(workload, 0, writes, tag="tail")
    for _ in range(spec["recovery_tail_writes"]):
        tail.step()
    workload.crash()
    copy_settled(workload.workdir, image)
    workload.recover()
    workload.warm()
    return tail.rec


def copy_settled(src: str, dst: str) -> None:
    """Copy a directory and force the copy to disk, so its write-back
    is not charged to the next log force that gets timed."""
    shutil.copytree(src, dst)
    for parent, _, files in os.walk(dst):
        for name in files:
            fd = os.open(os.path.join(parent, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def time_restart(workload, image: str, copy_dir: str, speed=None) -> float:
    """Seconds to reopen a fresh copy of the crash image (log load,
    analysis, redo, undo), scaled by ``speed`` when given."""
    copy_settled(image, copy_dir)
    before = speed.sample() if speed is not None else None
    f0 = FSYNC.seconds()
    t0 = time.perf_counter()
    engines = workload.reopen(copy_dir)
    elapsed = time.perf_counter() - t0
    if speed is not None:
        elapsed = scaled(elapsed, FSYNC.seconds() - f0, speed.since(before))
    for db in engines:
        db.log.close()
        db.disk.close()
    shutil.rmtree(copy_dir)
    return elapsed


def latency_tail(values: list[float]):
    """(n, tail, quantile): p99 when at least ten samples lie beyond it,
    else the highest nearest-rank percentile that has ten beyond it."""
    vals = sorted(values)
    n = len(vals)
    rank = math.ceil(0.99 * n)
    if n - rank < 10:
        rank = max(1, n - 10)
    return n, vals[rank - 1], rank / n


def delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after
            if isinstance(after[k], (int, float))}


def make_workload(name: str, spec: dict, seed: int, workdir: str,
                  trace_out: str | None = None):
    from workloads import WORKLOADS, SQLServiceWorkload

    os.makedirs(workdir, exist_ok=True)
    cls = WORKLOADS[name]
    if cls is SQLServiceWorkload:
        return cls(spec, seed, workdir, root=ROOT, trace_out=trace_out)
    return cls(spec, seed, workdir)


# -- untraced run: end-to-end metrics ----------------------------------------


def run_end_to_end(name, spec, seed, seconds, base):
    # Every timing is scaled to the reference machine's speeds by the host
    # speeds sampled at its ends (see hostspeed.py).
    speed = HostSpeed(base)
    FSYNC.install()
    try:
        return end_to_end(name, spec, seed, seconds, base, speed)
    finally:
        FSYNC.uninstall()
        speed.close()


def end_to_end(name, spec, seed, seconds, base, speed):
    """The untraced run, with ``FSYNC`` installed and ``speed`` sampling."""
    from repro.bench.costmodel import COST_2005

    setup_times = []
    for i in range(spec["setups"]):
        workload = make_workload(name, spec, seed, os.path.join(base, f"s{i}"))
        try:
            before = speed.sample()
            f0 = FSYNC.seconds()
            t0 = time.perf_counter()
            workload.setup()
            wall = time.perf_counter() - t0
            setup_times.append(scaled(wall, FSYNC.seconds() - f0,
                                      speed.since(before)))
        except BaseException:
            workload.close()
            raise
        if i < spec["setups"] - 1:
            # Kept until the run ends, so that no deletion's write-back or
            # block discard runs under the timed loop.
            workload.close()
    image, copy_dir = os.path.join(base, "image"), os.path.join(base, "reopen")
    rec = Recorder()
    restarts = []
    try:
        rec.merge(crash_image(workload, spec, image), timings=False)
        probe = Probe(workload, spec)
        loop, elapsed, slice_stats, loop_delta = closed_loop(
            workload, spec, seconds, speed=speed, probe=probe
        )
        rss = workload.peak_rss_mb()
        for _ in range(RESTARTS):
            restarts.append(time_restart(workload, image, copy_dir, speed))
        workload.check_premises(loop_delta, loop.attempted)
        rec.merge(loop)
        rec.merge(probe.rec)
        workload.crash()
        workload.recover()
        rec.problems += workload.verify()
        space_amp = workload.space_amp()
    finally:
        workload.close()
    rec.problems += workload.premise_failures
    ops = sum(loop.attempted.values())
    metrics = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "throughput_ops_s": (statistics.median(slice_stats.rates), "ops/s",
                             f"median of {len(slice_stats.rates)} slices; "
                             f"wall {ops} ops in {elapsed:.2f} s"),
    }
    for cls in CLASSES:
        stats = probe.stats if cls in probe.stats.samples else slice_stats
        p50, tail_ms, n, q = stats.summary(cls)
        metrics[f"{cls}_p50_ms"] = (p50, "ms", f"n={n}")
        if cls not in ("history", "xshard"):
            metrics[f"{cls}_p99_ms"] = (tail_ms, "ms", f"n={n} q={q:.4f}")
    metrics.update({
        "host_speed": (speed.factors()[0], "ratio",
                       f"reference speed over this host's, median of "
                       f"{len(speed.samples)} kernel samples; log-force "
                       f"speed {speed.factors()[1]:.3g}"),
        "recovery_s": (statistics.median(restarts), "s",
                       f"median of {len(restarts)} restarts"),
        "space_amp": (space_amp, "ratio",
                      f"{workload.oracle.version_bytes} user bytes"),
        "sim_ms_per_op": (COST_2005.simulated_ms(loop_delta) / ops,
                          "simulated_ms", "COST_2005 over the loop"),
        "peak_rss_mb": (rss, "MB", "engine process high-water"),
    })
    return rec, metrics


# -- traced run: per-layer metrics ------------------------------------------

# Busy (self) seconds per operation, from the named spans.
SPAN_METRICS = {
    "service.handle_s": ["service.handle"],
    "workers.queue_wait_s": ["workers.queue_wait"],
    "sql.parse_s": ["sql.parse"],
    "sql.execute_s": ["sql.execute"],
    "cluster.route_s": ["cluster.route"],
    "cluster.commit_s": ["cluster.commit"],
    "cluster.prepare_s": ["cluster.prepare"],
    "cluster.authority_s": ["cluster.authority"],
    "core.insert_s": ["core.insert"],
    "core.update_s": ["core.update"],
    "core.delete_s": ["core.delete"],
    "core.read_s": ["core.read"],
    "core.read_as_of_s": ["core.read_as_of"],
    "core.scan_range_s": ["core.scan_range"],
    "core.history_s": ["core.history"],
    "core.checkpoint_s": ["core.checkpoint"],
    "concurrency.begin_s": ["concurrency.begin"],
    "concurrency.commit_s": ["concurrency.commit"],
    "concurrency.lock_s": ["concurrency.lock"],
    "access.search_s": ["access.search"],
    "access.insert_s": ["access.insert"],
    "access.time_split_s": ["access.time_split"],
    "access.key_split_s": ["access.key_split"],
    "timestamp.stamp_s": ["timestamp.stamp"],
    "timestamp.resolve_s": ["timestamp.resolve"],
    "timestamp.ptt_s": ["timestamp.ptt"],
    "storage.get_page_s": ["storage.get_page"],
    "storage.disk_read_s": ["storage.disk_read"],
    "storage.disk_write_s": ["storage.disk_write"],
    "storage.flush_s": ["storage.flush"],
    "wal.append_s": ["wal.append"],
    "wal.force_s": ["wal.force"],
}

# Engine counters reported as deltas over the traced loop and probe.
COUNTER_METRICS = [
    "lock_waits", "lock_wait_ns", "deadlocks_detected", "stamps", "vtt_hits",
    "ptt_lookups", "ptt_inserts", "ptt_deletes", "asof_pages_examined",
    "asof_chain_hops", "buffer_hits", "buffer_misses", "buffer_evictions",
    "buffer_dirty_evictions", "disk_reads", "disk_writes", "log_forces",
    "log_bytes",
]


def ratio(a, b) -> float:
    return a / b if b else 0.0


def run_traced(name, spec, seed, seconds, base):
    import spans
    from repro.storage.constants import PAGE_SIZE

    half = seconds / 2.0
    # Phase A: the same loop with no wrappers installed anywhere.
    plain = make_workload(name, spec, seed, os.path.join(base, "plain"))
    try:
        plain.setup()
        crash_image(plain, spec, os.path.join(base, "plain-image"))
        loop_a, elapsed_a, _, _ = closed_loop(plain, spec, half)
    finally:
        plain.close()
    shutil.rmtree(plain.workdir)

    trace_dir = os.path.join(ROOT, ".perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{name}-seed{seed}.jsonl")
    server_path = trace_path + ".server"
    tracer = spans.Tracer()
    spans.install(tracer)
    workload = make_workload(name, spec, seed, os.path.join(base, "traced"),
                             trace_out=server_path)
    rec = Recorder()
    rec.merge(loop_a, timings=False)
    try:
        workload.setup()
        image = os.path.join(base, "image")
        rec.merge(crash_image(workload, spec, image), timings=False)
        tracer.enabled = True
        time_restart(workload, image, os.path.join(base, "re"))
        tracer.enabled = False
        if hasattr(workload, "start_trace"):
            workload.start_trace()
        user_bytes = workload.oracle.version_bytes
        tracer.enabled = True
        loop, elapsed, _, d = closed_loop(workload, spec, half, tracer)
        tracer.enabled = False
        user_bytes = workload.oracle.version_bytes - user_bytes
        workload.check_premises(d, loop.attempted)
        rec.merge(loop)
        ops = sum(loop.attempted.values())
        served = []
        if hasattr(workload, "dump_trace"):
            served = workload.dump_trace()
        workload.crash()
        workload.recover()
        rec.problems += workload.verify()
        page_bytes, log_bytes = workload.file_bytes()
    finally:
        workload.close()
    rec.problems += workload.premise_failures
    all_spans = spans.fold_names(tracer.spans + served)
    tracer.spans = all_spans
    tracer.write(trace_path)
    if os.path.exists(server_path):
        os.remove(server_path)

    self_ns = spans.self_times(all_spans)
    metrics = {}
    for metric, names in SPAN_METRICS.items():
        busy = sum(self_ns.get(n, 0) for n in names)
        metrics[metric] = (busy / 1e9 / ops, "s/op")
    metrics["service.wire_s"] = (spans.wire_ns(all_spans) / 1e9 / ops, "s/op")
    metrics["service.requests"] = (spans.count(all_spans, "service.handle"),
                                   "count")
    metrics["service.rejects"] = (d.get("service_rejects", 0), "count")
    metrics["service.timeouts"] = (d.get("service_timeouts", 0), "count")
    metrics["workers.txn_retries"] = (d.get("txn_retries", 0), "count")
    metrics["sql.statements"] = (spans.count(all_spans, "sql.execute"),
                                 "count")
    fast = d.get("cluster_fastpath_commits", 0)
    twopc = d.get("cluster_2pc_commits", 0)
    metrics["cluster.twopc_commits"] = (twopc, "count")
    metrics["cluster.fastpath_commits"] = (fast, "count")
    metrics["cluster.fastpath_ratio"] = (ratio(fast, fast + twopc), "ratio")
    metrics["access.time_splits"] = (
        spans.count(all_spans, "access.time_split"), "count")
    metrics["access.key_splits"] = (
        spans.count(all_spans, "access.key_split"), "count")
    for counter in COUNTER_METRICS:
        metrics[counter] = (d[counter], "ns" if counter.endswith("_ns")
                            else "B" if counter.endswith("bytes") else "count")
    metrics["timestamp.vtt_hit_ratio"] = (
        ratio(d["vtt_hits"], d["vtt_hits"] + d["ptt_lookups"]), "ratio")
    metrics["asof.pages_per_result"] = (
        ratio(d["asof_pages_examined"], d["asof_queries"]), "ratio")
    metrics["storage.hit_ratio"] = (
        ratio(d["buffer_hits"], d["buffer_hits"] + d["buffer_misses"]),
        "ratio")
    metrics["storage.page_file_bytes"] = (page_bytes, "B")
    metrics["storage.bytes_written_per_user_byte"] = (
        ratio(d["disk_writes"] * PAGE_SIZE, user_bytes), "ratio")
    metrics["wal.forces_per_commit"] = (
        ratio(d["log_forces"], d["commits"]), "ratio")
    metrics["wal.log_file_bytes"] = (log_bytes, "B")
    recovery_ns = sum(s[3] - s[2] for s in all_spans if s[1] == "wal.recovery")
    metrics["wal.recovery_s"] = (recovery_ns / 1e9, "s")
    reports = tracer.results["wal.recovery"]     # one per shard
    metrics["wal.records_analyzed"] = (
        sum(r.records_analyzed for r in reports), "count")
    metrics["wal.redo_applied"] = (
        sum(r.redo_applied for r in reports), "count")
    ops_a = sum(loop_a.attempted.values())
    metrics["trace.overhead"] = (
        (elapsed / ops) / (elapsed_a / ops_a) - 1.0, "ratio")
    metrics["trace.unattributed_share"] = (
        spans.unattributed_share(all_spans), "ratio")
    return rec, {k: (v, u, "") for k, (v, u) in metrics.items()}


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spec", default=os.path.join(HERE, "spec.json"),
                        help="workload sizes (tests pass a tiny-scale copy)")
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one: ``finally`` blocks stop
    # the service process and remove the run's files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # A shell that starts a job in the background makes it ignore SIGINT,
    # and a child inherits that; the service stops gracefully only on
    # SIGINT, so restore the default before any child starts.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no engine sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    with open(args.spec) as fh:
        spec = json.load(fh)["workloads"]
    if args.workload not in spec:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    wspec = spec[args.workload]

    base = os.path.join(
        ROOT, ".perfbench", f"run-{args.workload}-{args.seed}-{os.getpid()}"
    )
    try:
        run = run_traced if args.trace else run_end_to_end
        rec, metrics = run(args.workload, wspec, args.seed, args.seconds, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = sum(rec.attempted.values())
    failed = sum(rec.failed.values())
    correct = not rec.problems and failed == 0
    for problem in rec.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    # BENCHMARK.json names the metrics the JSON result carries; the others
    # are printed for people only (see README.md, "Report-only metrics").
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [m["name"] for m in json.load(fh)[
            "per_layer" if args.trace else "end_to_end"]]
    if correct:
        for metric, (value, unit, note) in metrics.items():
            if metric not in listed:
                note = f"{note} (report only)".strip()
            print(f"{metric:38s} {value:14.6g} {unit:13s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in listed
        } if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
