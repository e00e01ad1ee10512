"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q

Each workload runs at a tiny scale through the same command the benchmark
uses, checks included; the span analysis is tested on synthetic spans.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402

# Sizes small enough for a second or two per workload; every premise the
# full-size run asserts still holds at this scale.
TINY = {
    "oltp_durable": dict(rows=300, versions_per_key=2, buffer_pages=2048,
                         probe_keys=100, recovery_tail_writes=50,
                         verify_asof_reads=50,
                         probe={"asof": 30, "scan": 10, "history": 10,
                                "transfer": 10}),
    "timetravel_deep": dict(rows=300, versions_per_key=12, buffer_pages=4,
                            probe_keys=100, recovery_tail_writes=20,
                            verify_asof_reads=50,
                            probe={"read": 30, "transfer": 10}),
    "sql_service": dict(rows=300, versions_per_key=2, probe_keys=100,
                        recovery_tail_writes=20, verify_asof_reads=50,
                        probe={"scan": 10, "transfer": 10}),
    "sharded_2pc": dict(rows=400, versions_per_key=2, probe_keys=100,
                        recovery_tail_writes=50, verify_marks=5,
                        probe={"asof": 30, "history": 10}),
}


# Printed on every run but not gated: the tails and history_p50_ms spread
# across seeds on a 2-vCPU VM by more than the largest bound the benchmark
# may set; host_speed is the factor the timings were scaled by.
REPORT_ONLY = ["write_p99_ms", "read_p99_ms", "asof_p99_ms", "scan_p99_ms",
               "history_p50_ms", "host_speed"]


@pytest.fixture(scope="module")
def tiny_spec(tmp_path_factory):
    with open(os.path.join(BENCH, "spec.json")) as fh:
        spec = json.load(fh)
    for name, sizes in TINY.items():
        spec["workloads"][name].update(sizes, setups=2)
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_metric(workload, tiny_spec):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "0", "--spec", tiny_spec,
    )
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report_only = [line.split()[0] for line in proc.stdout.splitlines()
                   if line.endswith("(report only)")]
    assert sorted(report_only) == sorted(REPORT_ONLY)


@pytest.mark.parametrize("workload", ["oltp_durable", "sql_service"])
def test_tiny_traced_run_reports_every_layer_metric(workload, tiny_spec):
    result = result_of(run_bench(
        "--workload", workload, "--seed", "4", "--seconds", "2",
        "--trace", "1", "--spec", tiny_spec,
    ))
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0
    assert metrics["core.update_s"] > 0 and metrics["wal.force_s"] > 0
    if workload == "sql_service":
        assert metrics["service.wire_s"] > 0
        assert metrics["service.requests"] >= metrics["sql.statements"] > 0


def test_same_seed_same_inputs(tiny_spec):
    """Inputs come from the seed alone: one seed draws the same values."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    with open(tiny_spec) as fh:
        spec = json.load(fh)["workloads"]["oltp_durable"]
    seen = []
    for _ in range(2):
        w = workloads.OltpDurable(spec, 7, "unused")
        rng = w.rng("loop-0")
        seen.append([w.value(rng) for _ in range(20)])
    assert seen[0] == seen[1]


def test_bare_directory_fails_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no engine."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "oltp_durable", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_schema():
    bm = benchmark_json()
    assert set(bm) == {"command", "paths", "run_seconds", "workloads",
                       "end_to_end", "per_layer"}
    # timetravel_deep runs (and is tested) but is not gated; see README.md.
    assert [w["name"] for w in bm["workloads"]] == [
        "oltp_durable", "sql_service", "sharded_2pc"]
    assert [m["name"] for m in bm["end_to_end"]] == [
        "setup_s", "throughput_ops_s", "write_p50_ms", "read_p50_ms",
        "asof_p50_ms", "scan_p50_ms", "xshard_p50_ms", "recovery_s",
        "space_amp", "sim_ms_per_op", "peak_rss_mb"]
    setup = next(m for m in bm["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bm["end_to_end"])
    with open(os.path.join(BENCH, "spec.json")) as fh:
        spec = json.load(fh)
    assert set(spec["per_layer"]) == {m["name"] for m in bm["per_layer"]}
    assert set(spec["workloads"]) == {w["name"] for w in bm["workloads"]} | {
        "timetravel_deep"}


def test_slice_scale_multiplies_latencies_and_divides_rates():
    """Slices timed while the host ran slower than the reference."""
    import run

    rec = run.Recorder()
    rec.lat["read"] += [0.002, 0.004]
    rec.fsync["read"] += [0.0, 0.0]
    stats = run.SliceStats()
    marks = stats.add([rec], [{}], ops=2, seconds=0.5, scale=(0.5, 1.0))
    assert stats.samples["read"] == [[0.001, 0.002]]
    assert stats.rates == [8.0]
    # A write whose log force took 1 ms of its 3 ms, while forces ran at a
    # quarter of the reference speed: 2 ms of the rest, 1/4 ms of force.
    rec.lat["write"].append(0.003)
    rec.fsync["write"].append(0.001)
    stats.add([rec], marks, ops=1, seconds=0.003, scale=(1.0, 0.25))
    assert stats.samples["write"] == [[pytest.approx(0.00225)]]
    assert stats.rates[1] == pytest.approx(1 / 0.00225)


# -- span analysis -----------------------------------------------------


def span(sid, name, t0, t1, parent=None, rid=None):
    return (sid, name, t0, t1, parent, rid)


def test_self_time_subtracts_nested_children():
    spans_ = [
        span(1, "op.update", 0, 100),
        span(2, "core.update", 10, 90, 1),
        span(3, "storage.get_page", 20, 30, 2),
        span(4, "wal.force", 40, 80, 2),
        span(5, "storage.disk_write", 50, 60, 4),
    ]
    self_ns = spans.self_times(spans_)
    assert self_ns == {
        "op.update": 20, "core.update": 30, "storage.get_page": 10,
        "wal.force": 30, "storage.disk_write": 10,
    }
    assert spans.unattributed_share(spans_) == pytest.approx(0.2)


def test_self_time_counts_overlapping_children_once():
    # A pool call whose queue-wait and body (on another thread) overlap,
    # plus a child that runs past the parent's end and is clipped.
    spans_ = [
        span(1, "workers.call", 0, 100),
        span(2, "workers.queue_wait", 0, 40, 1),
        span(3, "sql.execute", 30, 90, 1),
        span(4, "core.read", 95, 120, 1),
    ]
    assert spans.self_times(spans_)["workers.call"] == 100 - 90 - 5
    assert spans.covered_ns(0, 100, [(0, 40), (30, 90), (95, 120)]) == 95


def test_fold_and_wire_time():
    spans_ = [
        span("c1", "op.asof", 0, 100, None, "0-1"),
        span("c2", "service.request", 5, 95, "c1", "m1"),
        span("s1", "service.handle", 20, 70, None, "m1"),
        span("s2", "core.read_as_of", 30, 60, "s1", "m1"),
        span("s3", "core.read", 35, 55, "s2", "m1"),
    ]
    folded = spans.fold_names(spans_)
    assert folded[4][1] == "core.read_as_of"
    assert spans.wire_ns(folded) == 90 - 50
    assert spans.self_times(folded)["core.read_as_of"] == 30
