"""B+tree primary index over current data pages.

The leaves of this tree are the engine's *current* data pages; history
pages hang off each leaf through the time-split page chain (Section 3.2)
and are never referenced by the B-tree itself — exactly the structure of
the Immortal DB prototype before its TSB-tree upgrade.

Making room in a full leaf follows the paper's policy (Section 3.3):

* **immortal table** — timestamp all committed versions, then time split at
  the current time; if the current-version utilization left behind still
  exceeds the threshold ``T``, key split as well.  If a time split would
  free nothing (every version current or uncommitted), go straight to the
  key split.
* **conventional table with snapshot isolation** — prune versions no active
  snapshot can see (Section 3's oldest-active-snapshot rule); key split if
  the page is still too full.
* **plain conventional table** — key split, as any B-tree would.

Structural discipline:

* The **root page id is fixed**: growing the tree moves the old root's
  content to a new page and turns the root page into an index node, so the
  catalog's stored root id never goes stale.
* Internal nodes are **split preemptively on the way down**, so a leaf split
  always posts its separator into a parent with guaranteed room.
* Every structure modification is logged as one atomic redo-only
  :class:`~repro.wal.records.MultiPageImage` carrying the after-images of
  all affected pages, so recovery can never observe half a split.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.clock import SimClock, Timestamp
from repro.errors import AccessMethodError, PageFormatError
from repro.storage.buffer import BufferPool
from repro.storage.constants import COMMON_HEADER_SIZE, PAGE_SIZE, PageType
from repro.storage.page import DataPage, Page, register_page_codec
from repro.storage.record import RecordVersion
from repro.access.timesplit import (
    DEFAULT_KEY_SPLIT_THRESHOLD,
    key_split_page,
    needs_key_split,
    time_split_page,
)
from repro.wal.log import LogManager
from repro.wal.records import MultiPageImage, SMOReason

_INDEX_HEADER = COMMON_HEADER_SIZE + 4  # count(2) + pad(2)

MAX_KEY_BYTES = 128
"""Upper bound on encoded primary-key size (checked by the table layer)."""

_MAX_SEP_COST = 4 + 2 + MAX_KEY_BYTES
"""Worst-case bytes one separator post can add to an index node."""


class BTreeIndexPage(Page):
    """Internal B+tree node: separators and child page ids.

    ``children[i]`` covers keys in ``[seps[i-1], seps[i])`` with the usual
    open ends; ``len(children) == len(seps) + 1``.
    """

    page_type = PageType.BTREE_INDEX

    def __init__(self, page_id: int, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_id)
        self.page_size = page_size
        self.seps: list[bytes] = []
        self.children: list[int] = []

    @property
    def used_bytes(self) -> int:
        return (
            _INDEX_HEADER
            + 4 * len(self.children)
            + sum(2 + len(s) for s in self.seps)
        )

    @property
    def is_full(self) -> bool:
        """No guaranteed room for one more separator of any legal size."""
        return self.used_bytes + _MAX_SEP_COST > self.page_size

    def child_index_for(self, key: bytes) -> int:
        return bisect_right(self.seps, key)

    # -- codec ------------------------------------------------------------

    def _encode(self) -> bytes:
        """Build the fixed-size on-disk image (uncached)."""
        buf = bytearray(self.page_size)
        buf[0:COMMON_HEADER_SIZE] = self._common_header()
        buf[COMMON_HEADER_SIZE : COMMON_HEADER_SIZE + 2] = len(
            self.children
        ).to_bytes(2, "big")
        pos = _INDEX_HEADER
        for i, child in enumerate(self.children):
            buf[pos : pos + 4] = child.to_bytes(4, "big")
            pos += 4
            if i < len(self.seps):
                sep = self.seps[i]
                buf[pos : pos + 2] = len(sep).to_bytes(2, "big")
                buf[pos + 2 : pos + 2 + len(sep)] = sep
                pos += 2 + len(sep)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BTreeIndexPage":
        """Deserialize from an on-disk image."""
        page_id, page_type, flags, lsn = Page.read_common_header(raw)
        if page_type != PageType.BTREE_INDEX:
            raise PageFormatError(f"not a B-tree index page: type {page_type}")
        node = cls(page_id, page_size=len(raw))
        node.header_flags = flags
        node.lsn = lsn
        count = int.from_bytes(
            raw[COMMON_HEADER_SIZE : COMMON_HEADER_SIZE + 2], "big"
        )
        pos = _INDEX_HEADER
        for i in range(count):
            node.children.append(int.from_bytes(raw[pos : pos + 4], "big"))
            pos += 4
            if i < count - 1:
                sep_len = int.from_bytes(raw[pos : pos + 2], "big")
                node.seps.append(bytes(raw[pos + 2 : pos + 2 + sep_len]))
                pos += 2 + sep_len
        return node


register_page_codec(PageType.BTREE_INDEX, BTreeIndexPage.from_bytes)


@dataclass
class BTreeStats:
    """Split and prune counters for one B-tree."""
    time_splits: int = 0
    key_splits: int = 0
    index_splits: int = 0
    root_growths: int = 0
    prunes: int = 0
    versions_pruned: int = 0


class BTree:
    """The primary access structure for one table."""

    def __init__(
        self,
        buffer: BufferPool,
        log: LogManager,
        clock: SimClock,
        table_id: int,
        *,
        immortal: bool,
        root_pid: int | None = None,
        key_split_threshold: float = DEFAULT_KEY_SPLIT_THRESHOLD,
    ) -> None:
        self.buffer = buffer
        self.log = log
        self.clock = clock
        self.table_id = table_id
        self.immortal = immortal
        self.key_split_threshold = key_split_threshold
        self.stats = BTreeStats()
        # Wired by the engine:
        #   stamp_page(leaf) -> int: lazy-timestamping trigger before a split
        #   prune_page(leaf) -> (DataPage, int): snapshot GC for conventional
        #   history_index.on_time_split(...): TSB index maintenance (optional)
        #   route_cache: as-of route cache to notify on structure changes
        self.stamp_page: Callable[[DataPage], int] | None = None
        self.prune_page: Callable[[DataPage], tuple[DataPage, int]] | None = None
        self.history_index = None
        self.route_cache = None

        if root_pid is None:
            leaf = self.buffer.new_page(
                lambda pid: DataPage(
                    pid,
                    page_size=buffer.disk.page_size,
                    table_id=table_id,
                    immortal=immortal,
                )
            )
            self.root_pid = leaf.page_id
            self._log_smo(SMOReason.INDEX_POST, [leaf])
        else:
            self.root_pid = root_pid

    # -- navigation ---------------------------------------------------------

    def _page(self, pid: int) -> Page:
        return self.buffer.get_page(pid)

    def _descend(
        self, key: bytes
    ) -> tuple[list[tuple[BTreeIndexPage, int]], DataPage, bytes, bytes | None]:
        """Walk root→leaf; returns (path, leaf, key_low, key_high)."""
        path: list[tuple[BTreeIndexPage, int]] = []
        key_low = b""
        key_high: bytes | None = None
        node = self._page(self.root_pid)
        while isinstance(node, BTreeIndexPage):
            i = node.child_index_for(key)
            if i > 0:
                key_low = node.seps[i - 1]
            if i < len(node.seps):
                key_high = node.seps[i]
            path.append((node, i))
            node = self._page(node.children[i])
        if not isinstance(node, DataPage):
            raise AccessMethodError(
                f"B-tree {self.table_id}: leaf {node.page_id} has wrong type"
            )
        return path, node, key_low, key_high

    def search_leaf(self, key: bytes) -> DataPage:
        """The current page that holds (or would hold) ``key``."""
        return self._descend(key)[1]

    def leaf_bounds(self, key: bytes) -> tuple[DataPage, bytes, bytes | None]:
        _, leaf, low, high = self._descend(key)
        return leaf, low, high

    def leftmost_leaf(self) -> DataPage:
        return self._descend(b"")[1]

    def leaves(self) -> Iterator[DataPage]:
        """All current leaves in key order, via the sibling chain."""
        leaf: DataPage | None = self.leftmost_leaf()
        while leaf is not None:
            yield leaf
            next_pid = leaf.next_leaf_id
            if not next_pid:
                return
            nxt = self._page(next_pid)
            if not isinstance(nxt, DataPage):
                raise AccessMethodError(f"leaf chain hit non-leaf {next_pid}")
            leaf = nxt

    def leaves_with_bounds(
        self, start_key: bytes | None = None
    ) -> Iterator[tuple[DataPage, bytes, bytes | None]]:
        """(leaf, key_low, key_high) in key order, by index traversal.

        After key splits, sibling leaves share history pages; as-of scans
        need each leaf's key bounds to avoid double-counting shared history.

        ``start_key`` prunes the traversal: subtrees whose entire key range
        lies strictly below it are skipped (range scans start at the right
        leaf in logarithmic time instead of walking every leaf).
        """
        root = self._page(self.root_pid)
        yield from self._walk(root, b"", None, start_key)

    def _walk(
        self,
        node: Page,
        low: bytes,
        high: bytes | None,
        start_key: bytes | None = None,
    ) -> Iterator[tuple[DataPage, bytes, bytes | None]]:
        if isinstance(node, DataPage):
            yield node, low, high
            return
        assert isinstance(node, BTreeIndexPage)
        for i, child_pid in enumerate(node.children):
            child_low = node.seps[i - 1] if i > 0 else low
            child_high = node.seps[i] if i < len(node.seps) else high
            if start_key is not None and child_high is not None \
                    and child_high <= start_key:
                continue  # entire subtree below the range start
            yield from self._walk(
                self._page(child_pid), child_low, child_high, start_key
            )

    # -- insertion ------------------------------------------------------------

    def leaf_for_insert(self, record: RecordVersion) -> DataPage:
        """Find the leaf for ``record`` and guarantee it has room.

        May perform time splits, snapshot pruning, and key splits.  The
        caller then logs its VersionOp against the returned page id and
        applies the insert (WAL order: log first, then modify).
        """
        if len(record.key) > MAX_KEY_BYTES:
            raise AccessMethodError(
                f"key of {len(record.key)} bytes exceeds the "
                f"{MAX_KEY_BYTES}-byte limit"
            )
        for _ in range(8):
            path = self._descend_splitting(record.key)
            leaf = self._leaf_at(path, record.key)
            new_slot = leaf.slot_of(record.key) is None
            if leaf.fits(record, new_slot=new_slot):
                return leaf
            self._make_room(path, leaf, record.key)
        raise AccessMethodError(
            f"table {self.table_id}: could not make room for key "
            f"{record.key!r} after repeated splits"
        )

    def apply_insert(self, leaf: DataPage, record: RecordVersion, lsn: int) -> None:
        """Apply a logged insert to its leaf (sets page LSN, marks dirty)."""
        leaf.insert_version(record)
        leaf.lsn = lsn
        self.buffer.mark_dirty_page(leaf, lsn)

    # -- top-down splitting of index nodes -----------------------------------------

    def _descend_splitting(
        self, key: bytes
    ) -> list[tuple[BTreeIndexPage, int]]:
        """Descend for insert, pre-splitting full index nodes.

        Returns the index path; every node on it has room for one more
        separator, so a subsequent leaf key split cannot cascade.
        """
        root = self._page(self.root_pid)
        if isinstance(root, BTreeIndexPage) and root.is_full:
            self._grow_root_over_index(root)
            root = self._page(self.root_pid)
        path: list[tuple[BTreeIndexPage, int]] = []
        node = root
        while isinstance(node, BTreeIndexPage):
            i = node.child_index_for(key)
            child = self._page(node.children[i])
            if isinstance(child, BTreeIndexPage) and child.is_full:
                self._split_index_child(node, child)
                i = node.child_index_for(key)
                child = self._page(node.children[i])
            path.append((node, i))
            node = child
        return path

    def _leaf_at(
        self, path: list[tuple[BTreeIndexPage, int]], key: bytes
    ) -> DataPage:
        if path:
            node, i = path[-1]
            leaf = self._page(node.children[i])
        else:
            leaf = self._page(self.root_pid)
        if not isinstance(leaf, DataPage):
            raise AccessMethodError("descent did not reach a data page")
        return leaf

    def _grow_root_over_index(self, root: BTreeIndexPage) -> None:
        """Move a full index root's content aside; root page stays the root."""
        moved = self.buffer.new_page(
            lambda pid: BTreeIndexPage(pid, page_size=self.buffer.disk.page_size)
        )
        moved.seps = list(root.seps)
        moved.children = list(root.children)
        new_root = BTreeIndexPage(
            self.root_pid, page_size=self.buffer.disk.page_size
        )
        new_root.children = [moved.page_id]
        self.buffer.replace_page(new_root)
        self.stats.root_growths += 1
        self._log_smo(SMOReason.INDEX_POST, [new_root, moved])

    def _grow_root_over_leaf(self, leaf: DataPage) -> DataPage:
        """The root is a leaf that must split: push it down one level.

        The leaf's content moves to a new page id (redo of older VersionOps
        against the root id is fenced off by the page LSN), and the root
        page becomes an index node with the moved leaf as its only child.
        """
        moved = DataPage(
            self.buffer.disk.allocate(),
            is_history=leaf.is_history,
            page_size=leaf.page_size,
            table_id=leaf.table_id,
            immortal=leaf.immortal,
        )
        moved.split_ts = leaf.split_ts
        moved.end_ts = leaf.end_ts
        moved.history_page_id = leaf.history_page_id
        moved.next_leaf_id = leaf.next_leaf_id
        for key in leaf.keys():
            moved.add_chain(
                [v.copy() for v in leaf.chain(key)],
                history_slot=leaf.continues_in_history(key),
            )
        new_root = BTreeIndexPage(
            self.root_pid, page_size=self.buffer.disk.page_size
        )
        new_root.children = [moved.page_id]
        self.buffer.replace_page(moved)   # new page first, as in time splits
        self.buffer.replace_page(new_root)
        if self.route_cache is not None:
            self.route_cache.invalidate(leaf.page_id)
        self.stats.root_growths += 1
        self._log_smo(SMOReason.INDEX_POST, [new_root, moved])
        return moved

    def _split_index_child(
        self, parent: BTreeIndexPage, child: BTreeIndexPage
    ) -> None:
        """Mid-split a full index child into the (non-full) parent."""
        mid = len(child.seps) // 2
        promoted = child.seps[mid]
        right = self.buffer.new_page(
            lambda pid: BTreeIndexPage(pid, page_size=self.buffer.disk.page_size)
        )
        right.seps = child.seps[mid + 1 :]
        right.children = child.children[mid + 1 :]
        child.seps = child.seps[:mid]
        child.children = child.children[: mid + 1]
        at = parent.child_index_for(promoted)
        parent.seps.insert(at, promoted)
        parent.children.insert(at + 1, right.page_id)
        self.stats.index_splits += 1
        self._log_smo(SMOReason.INDEX_POST, [parent, child, right])

    # -- making room in leaves ---------------------------------------------------------

    def _make_room(
        self,
        path: list[tuple[BTreeIndexPage, int]],
        leaf: DataPage,
        key: bytes,
    ) -> None:
        if self.immortal:
            self._make_room_immortal(path, leaf, key)
            return
        if self.prune_page is not None:
            pruned, dropped = self.prune_page(leaf)
            if dropped:
                self.stats.prunes += 1
                self.stats.versions_pruned += dropped
                self.buffer.replace_page(pruned)
                self._log_smo(SMOReason.OTHER, [pruned])
                # Pruning freed space; if plenty, no key split needed now.
                if pruned.free_bytes >= pruned.page_size // 4:
                    return
                leaf = pruned
        # Versions pinned by long-running snapshots can outgrow a page even
        # after pruning; spill them to a history page (a "version store"
        # spill — same time-split mechanism immortal tables use) before
        # resorting to a key split, which cannot help a single hot record.
        if self._try_time_split(path, leaf, key):
            return
        self._key_split(path, leaf)

    def _try_time_split(
        self,
        path: list[tuple[BTreeIndexPage, int]],
        leaf: DataPage,
        key: bytes,
    ) -> bool:
        """Attempt a space-freeing time split; False when it would not help."""
        if self.stamp_page is not None:
            self.stamp_page(leaf)
        split_ts = self._split_time(leaf)
        if split_ts is None:
            return False
        # A transaction may commit between the stamping pass and the
        # split-time draw; its versions would then be classified as
        # uncommitted (case 4) despite a commit time below split_ts.
        # Re-run the trigger until it finds nothing new to stamp — any
        # commit after the final draw carries a timestamp above split_ts
        # (the clock is monotonic), for which case 4 is correct.
        while self.stamp_page is not None and self.stamp_page(leaf):
            split_ts = self._split_time(leaf) or split_ts
        history_pid = self.buffer.disk.allocate()
        outcome = time_split_page(leaf, split_ts, history_pid)
        if outcome.moved == 0 and outcome.stubs_dropped == 0:
            return False
        self.stats.time_splits += 1
        # New page first: its admission may evict and write back, and until
        # the SMO is logged only the leaf's old, logged image may reach disk.
        self.buffer.replace_page(outcome.history)
        self.buffer.replace_page(outcome.current)
        if self.route_cache is not None:
            self.route_cache.on_time_split(outcome)
        affected: list[Page] = [outcome.current, outcome.history]
        if self.history_index is not None:
            key_low, key_high = self._bounds_from_path(path)
            affected.extend(
                self.history_index.on_time_split(
                    outcome.history, key_low, key_high
                )
            )
        self._log_smo(SMOReason.TIME_SPLIT, affected)
        return True

    def _make_room_immortal(
        self,
        path: list[tuple[BTreeIndexPage, int]],
        leaf: DataPage,
        key: bytes,
    ) -> None:
        # "When we time split a page … we timestamp all versions from
        # committed transactions" — _try_time_split runs that trigger, then
        # performs the four-case split of Section 3.3.  A time split that
        # frees nothing (all versions alive or uncommitted) falls through to
        # a key split.
        if not self._try_time_split(path, leaf, key):
            self._key_split(path, leaf)
            return
        current = self.search_leaf(key)
        if needs_key_split(current, self.key_split_threshold) \
                and len(current.keys()) > 1:
            path = self._descend_splitting(key)
            self._key_split(path, self._leaf_at(path, key))

    @staticmethod
    def _bounds_from_path(
        path: list[tuple[BTreeIndexPage, int]]
    ) -> tuple[bytes, bytes | None]:
        key_low = b""
        key_high: bytes | None = None
        for node, i in path:
            if i > 0:
                key_low = node.seps[i - 1]
            if i < len(node.seps):
                key_high = node.seps[i]
        return key_low, key_high

    def _split_time(self, leaf: DataPage) -> Timestamp | None:
        """The current time, if it advances past the page's range start."""
        now = self.clock.now()
        if now > leaf.split_ts:
            return now
        return None

    def _key_split(
        self, path: list[tuple[BTreeIndexPage, int]], leaf: DataPage
    ) -> None:
        if len(leaf.keys()) < 2:
            raise AccessMethodError(
                f"page {leaf.page_id} cannot make room: a single record's "
                f"chain exceeds the page (record too large)"
            )
        if not path:
            # The leaf is the root: push it down, keeping the root id fixed.
            leaf = self._grow_root_over_leaf(leaf)
            root = self._page(self.root_pid)
            assert isinstance(root, BTreeIndexPage)
            path = [(root, 0)]
        right_pid = self.buffer.disk.allocate()
        left, right, sep = key_split_page(leaf, right_pid)
        if self.route_cache is not None:
            self.route_cache.invalidate(leaf.page_id)
        self.stats.key_splits += 1
        self.buffer.replace_page(right)   # new page first, as in time splits
        self.buffer.replace_page(left)
        parent, child_index = path[-1]
        parent.seps.insert(child_index, sep)
        parent.children.insert(child_index + 1, right.page_id)
        affected: list[Page] = [left, right, parent]
        if self.history_index is not None:
            affected.extend(
                self.history_index.on_key_split(
                    self.table_id, left.page_id, right.page_id, sep
                )
            )
        self._log_smo(SMOReason.KEY_SPLIT, affected)

    # -- logging -----------------------------------------------------------------

    def _log_smo(self, reason: SMOReason, pages: list[Page]) -> int:
        """Log one atomic multi-page image for a structure modification."""
        lsn = self.log.next_lsn
        seen: set[int] = set()
        unique: list[Page] = []
        for page in pages:
            if page.page_id in seen:
                continue
            seen.add(page.page_id)
            page.lsn = lsn
            unique.append(page)
        assigned = self.log.append(
            MultiPageImage(
                reason=reason,
                images=[(p.page_id, p.to_bytes()) for p in unique],
            )
        )
        assert assigned == lsn
        # mark_dirty_page, not mark_dirty: the admissions this SMO performed
        # (new siblings, history pages) may have evicted one of its own
        # unpinned pages already — re-admit the mutated object in that case.
        for page in unique:
            self.buffer.mark_dirty_page(page, lsn)
        return lsn
