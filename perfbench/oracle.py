"""The benchmark-side version oracle.

Every acknowledged write is recorded here with the *epoch* it committed
in.  Marks divide time into epochs: mark ``i`` is taken after every write
of epochs ``0..i`` committed and before any write of epoch ``i + 1``, so
the state as of mark ``i`` is, per key, the last version whose epoch is at
most ``i``.  A ``None`` value is a delete.
"""

from __future__ import annotations

import threading
from bisect import bisect_right


class VersionOracle:
    def __init__(self) -> None:
        self.epochs: dict[int, list[int]] = {}
        self.values: dict[int, list] = {}
        self.marks: list = []           # opaque per-workload mark handles
        self.epoch = 0
        self.version_bytes = 0          # key + value bytes of every version
        self._mu = threading.Lock()

    def write(self, key: int, value, nbytes: int) -> None:
        with self._mu:
            self.epochs.setdefault(key, []).append(self.epoch)
            self.values.setdefault(key, []).append(value)
            self.version_bytes += nbytes

    def mark(self, handle) -> int:
        """Close the current epoch; ``handle`` names the instant for reads."""
        with self._mu:
            self.marks.append(handle)
            self.epoch += 1
            return len(self.marks) - 1

    def current(self, key: int):
        values = self.values.get(key)
        return values[-1] if values else None

    def at(self, key: int, mark: int):
        epochs = self.epochs.get(key)
        if not epochs:
            return None
        i = bisect_right(epochs, mark)
        return self.values[key][i - 1] if i else None

    def history(self, key: int) -> list:
        return list(self.values.get(key, ()))

    def keys(self):
        return self.values.keys()
