"""Layer spans for the traced run, recorded from outside ``src/``.

A :class:`Tracer` wraps public functions of each ``repro`` layer so every
call records a span ``(id, name, start_ns, end_ns, parent_id, request_id)``.
Spans stay in memory and are written out when the run ends.

Wrappers must be installed before an engine is built: ``ImmortalDB``
captures bound methods (``buffer.log_force = log.force``,
``btree.stamp_page = tsmgr.stamp_page_for_split``), so only a patched class
yields patched bound methods.  Module-level functions are also replaced in
every importer's namespace, because ``access/btree.py`` imports
``time_split_page`` by name (and ``core/engine.py`` does the same with
``run_recovery``, ``sql/executor.py`` with ``parse_statement``).

Times come from ``time.perf_counter_ns``, which on Linux reads
``CLOCK_MONOTONIC``; spans written by the service process therefore share
one time base with the client's spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# Request-carrying calls: (module, class, attribute, span name, index of
# the message argument).  Client and server spans join on the message id.
REQUEST_POINTS = [
    ("repro.service.core", "ServiceCore", "handle_message", "service.handle",
     2),
    ("repro.service.client", "ServiceClient", "request", "service.request",
     1),
]

# (module, class or None, attribute, span name).  The span name's prefix is
# the src/repro package the function lives in; metric names derive from it.
TRACE_POINTS = [
    ("repro.sql.parser", None, "parse_statement", "sql.parse"),
    ("repro.sql.executor", "Session", "execute", "sql.execute"),
    ("repro.cluster.router", "ShardRouter", "route", "cluster.route"),
    ("repro.cluster.router", "ShardRouter", "commit", "cluster.commit"),
    ("repro.cluster.authority", "CommitTimestampAuthority", "issue",
     "cluster.authority"),
    ("repro.core.engine", "ImmortalDB", "prepare", "cluster.prepare"),
    ("repro.core.table", "Table", "insert", "core.insert"),
    ("repro.core.table", "Table", "update", "core.update"),
    ("repro.core.table", "Table", "delete", "core.delete"),
    ("repro.core.table", "Table", "read", "core.read"),
    ("repro.core.table", "Table", "read_as_of", "core.read_as_of"),
    ("repro.core.table", "Table", "scan_range_iter", "core.scan_range"),
    ("repro.core.table", "Table", "history_iter", "core.history"),
    ("repro.core.engine", "ImmortalDB", "checkpoint", "core.checkpoint"),
    ("repro.concurrency.transaction", "TransactionManager", "begin",
     "concurrency.begin"),
    ("repro.concurrency.transaction", "TransactionManager", "commit",
     "concurrency.commit"),
    ("repro.concurrency.transaction", "TransactionManager", "commit_prepared",
     "concurrency.commit"),
    ("repro.concurrency.locks", "LockManager", "acquire", "concurrency.lock"),
    ("repro.access.btree", "BTree", "search_leaf", "access.search"),
    ("repro.access.btree", "BTree", "leaf_bounds", "access.search"),
    ("repro.access.btree", "BTree", "leaf_for_insert", "access.insert"),
    ("repro.access.btree", "BTree", "apply_insert", "access.insert"),
    ("repro.access.timesplit", None, "time_split_page", "access.time_split"),
    ("repro.access.timesplit", None, "key_split_page", "access.key_split"),
    ("repro.timestamp.manager", "TimestampManager", "stamp_version",
     "timestamp.stamp"),
    ("repro.timestamp.manager", "TimestampManager", "stamp_page",
     "timestamp.stamp"),
    ("repro.timestamp.manager", "TimestampManager", "stamp_page_for_split",
     "timestamp.stamp"),
    ("repro.timestamp.manager", "TimestampManager", "resolve",
     "timestamp.resolve"),
    ("repro.timestamp.manager", "TimestampManager", "resolve_with_fallback",
     "timestamp.resolve"),
    ("repro.timestamp.manager", "TimestampManager", "resolve_many",
     "timestamp.resolve"),
    ("repro.timestamp.ptt", "PersistentTimestampTable", "lookup",
     "timestamp.ptt"),
    ("repro.timestamp.ptt", "PersistentTimestampTable", "insert",
     "timestamp.ptt"),
    ("repro.timestamp.ptt", "PersistentTimestampTable", "delete",
     "timestamp.ptt"),
    ("repro.storage.buffer", "BufferPool", "get_page", "storage.get_page"),
    ("repro.storage.buffer", "BufferPool", "flush_page", "storage.flush"),
    ("repro.storage.buffer", "BufferPool", "flush_all", "storage.flush"),
    ("repro.storage.disk", "PageStore", "read_page", "storage.disk_read"),
    ("repro.storage.disk", "PageStore", "write_page", "storage.disk_write"),
    ("repro.wal.log", "LogManager", "append", "wal.append"),
    ("repro.wal.filelog", "FileLogManager", "append", "wal.append"),
    ("repro.wal.log", "LogManager", "force", "wal.force"),
    ("repro.wal.filelog", "FileLogManager", "force", "wal.force"),
    ("repro.wal.recovery", None, "run_recovery", "wal.recovery"),
]

# Functions that return an iterator whose consumption does the work: each
# ``next()`` is recorded as its own span under the same name.
ITERATOR_POINTS = {"core.scan_range", "core.history"}

# A child span renamed to its parent's name when nested directly under it:
# ``Table.read_as_of`` does its work through ``Table.read``.
FOLD_INTO_PARENT = {("core.read", "core.read_as_of")}

# Span names whose return values are kept (the recovery reports).
CAPTURE = {"wal.recovery"}

QUEUE_WAIT = "workers.queue_wait"
POOL_CALL = "workers.call"


class Tracer:
    """In-memory span recorder; recording is off until ``enabled``."""

    def __init__(self, tag: str = "c") -> None:
        self.tag = tag
        self.enabled = False
        self.spans: list[tuple] = []
        self.results: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread context --------------------------------------------------

    def _ctx(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.rid = None
        return local, stack

    def new_id(self) -> str:
        return f"{self.tag}{next(self._ids)}"

    def op(self, name: str, rid: str):
        """Context manager for one benchmark operation (a root span)."""
        return _OpSpan(self, name, rid)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn, rid_arg: int | None = None):
        """Record a span per call; ``rid_arg`` names the positional argument
        whose ``"id"`` becomes the request id for the call's spans."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local, stack = tracer._ctx()
            sid = tracer.new_id()
            parent = stack[-1] if stack else None
            saved_rid = local.rid
            if rid_arg is not None:
                local.rid = args[rid_arg].get("id")
            rid = local.rid
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                local.rid = saved_rid
                tracer.spans.append((sid, name, t0, t1, parent, rid))
            if name in CAPTURE:
                tracer.results.setdefault(name, []).append(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        call = self.wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = call(*args, **kwargs)
            if not tracer.enabled:
                return result
            return _TracedIterator(tracer, name, iter(result))

        return traced

    def wrap_pool_call(self, fn):
        """``ServiceCore._call``: run a statement body through the pool.

        The body runs on a worker thread; it inherits this span as parent
        and the request id, and the interval between submission and the
        body's start is recorded as a ``workers.queue_wait`` span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(core, body):
            if not tracer.enabled:
                return fn(core, body)
            local, stack = tracer._ctx()
            rid = local.rid
            sid = tracer.new_id()
            parent = stack[-1] if stack else None
            t_submit = perf_counter_ns()

            def run():
                wlocal, wstack = tracer._ctx()
                tracer.spans.append((
                    tracer.new_id(), QUEUE_WAIT, t_submit, perf_counter_ns(),
                    sid, rid,
                ))
                saved_rid = wlocal.rid
                wlocal.rid = rid
                wstack.append(sid)
                try:
                    return body()
                finally:
                    wstack.pop()
                    wlocal.rid = saved_rid

            stack.append(sid)
            try:
                return fn(core, run)
            finally:
                stack.pop()
                tracer.spans.append(
                    (sid, POOL_CALL, t_submit, perf_counter_ns(), parent, rid)
                )

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str, rid: str) -> None:
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self):
        local, stack = self.tracer._ctx()
        self.sid = self.tracer.new_id()
        self.saved_rid = local.rid
        local.rid = self.rid
        stack.append(self.sid)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        t1 = perf_counter_ns()
        local, stack = self.tracer._ctx()
        stack.pop()
        local.rid = self.saved_rid
        self.tracer.spans.append(
            (self.sid, self.name, self.t0, t1, None, self.rid)
        )


class _TracedIterator:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self.tracer = tracer
        self.name = name
        self.inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        local, stack = tracer._ctx()
        sid = tracer.new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return next(self.inner)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            tracer.spans.append((sid, self.name, t0, t1, parent, local.rid))


def install(tracer: Tracer) -> None:
    """Patch every trace point; call before any engine is built."""
    import importlib

    for module_name, cls_name, attr, name, rid_arg in REQUEST_POINTS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], rid_arg))
    for module_name, cls_name, attr, name in TRACE_POINTS:
        module = importlib.import_module(module_name)
        wrap = tracer.wrap_iter if name in ITERATOR_POINTS else tracer.wrap
        if cls_name is not None:
            cls = getattr(module, cls_name)
            setattr(cls, attr, wrap(name, cls.__dict__[attr]))
            continue
        original = getattr(module, attr)
        wrapped = wrap(name, original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") \
                    and getattr(other, attr, None) is original:
                setattr(other, attr, wrapped)
    core_cls = importlib.import_module("repro.service.core").ServiceCore
    core_cls._call = tracer.wrap_pool_call(core_cls.__dict__["_call"])


# -- analysis ----------------------------------------------------------------


def covered_ns(t0: int, t1: int, intervals) -> int:
    """Length of the part of ``[t0, t1]`` covered by the union of intervals."""
    clipped = sorted(
        (max(a, t0), min(b, t1)) for a, b in intervals if b > t0 and a < t1
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def fold_names(spans: list[tuple]) -> list[tuple]:
    """Apply :data:`FOLD_INTO_PARENT` renames."""
    names = {s[0]: s[1] for s in spans}
    out = []
    for sid, name, t0, t1, parent, rid in spans:
        if (name, names.get(parent)) in FOLD_INTO_PARENT:
            name = names[parent]
        out.append((sid, name, t0, t1, parent, rid))
    return out


def self_times(spans: list[tuple]) -> dict[str, int]:
    """Self time per span name, in ns: duration minus children's union.

    Children may overlap each other (a body running on a worker thread
    beside its queue-wait span); the union counts shared time once.
    Children are clipped to their parent's interval.
    """
    children: dict = defaultdict(list)
    for sid, _name, t0, t1, parent, _rid in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[str, int] = defaultdict(int)
    for sid, name, t0, t1, _parent, _rid in spans:
        out[name] += (t1 - t0) - covered_ns(t0, t1, children.get(sid, ()))
    return dict(out)


def unattributed_share(spans: list[tuple]) -> float:
    """Share of op wall time that no layer span covers.

    An op span's direct children cover their own descendants on the same
    thread, and the client's request span covers the server's spans.
    """
    children: dict = defaultdict(list)
    for _sid, name, t0, t1, parent, _rid in spans:
        if parent is not None and not name.startswith("op."):
            children[parent].append((t0, t1))
    total = uncovered = 0
    for sid, name, t0, t1, _parent, _rid in spans:
        if not name.startswith("op."):
            continue
        total += t1 - t0
        uncovered += (t1 - t0) - covered_ns(t0, t1, children.get(sid, ()))
    return uncovered / total if total else 0.0


def wire_ns(spans: list[tuple]) -> int:
    """Client round trip minus server handling, joined on request id."""
    handled = {}
    for _sid, name, t0, t1, _parent, rid in spans:
        if name == "service.handle" and rid is not None:
            handled[rid] = t1 - t0
    total = 0
    for _sid, name, t0, t1, _parent, rid in spans:
        if name == "service.request" and rid in handled:
            total += (t1 - t0) - handled[rid]
    return total


def count(spans: list[tuple], name: str) -> int:
    return sum(1 for s in spans if s[1] == name)


def load(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]
