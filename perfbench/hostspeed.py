"""Host speed, measured by a fixed reference kernel beside the workload.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give a Python process changes up to twofold from one
minute to the next.  A run's wall-clock figures follow that change, so two
runs of the same code minutes apart disagree by more than any regression
bound worth setting.

The disk is shared too, and a log force (``os.fsync``) can take a third
longer for minutes at a time.  So a timing is split in two: the time the
engine spent in ``os.fsync`` (``FSYNC`` times every call in this process)
and the rest.  ``HostSpeed`` times a fixed pure-Python kernel (record
packing, dict and list work, string building and sorting: the interpreter
work the engine does, with no I/O) and a reference force (a small append
and ``os.fsync`` to a file of its own) in the gaps of a run, and scales the
rest by the kernel and the forced part by the reference force, each to its
median on the machine the benchmark was defined on (``REFERENCE_S``,
``REFERENCE_FSYNC_S``).  A change to the engine moves a scaled figure in
the same proportion as the wall-clock one; a slow spell of the host moves
the kernel or the reference force too and cancels.  The run's median
factors and its wall-clock loop rate are printed beside the scaled
figures.

The kernel lives in the benchmark's own files, so no change under ``src/``
can change it.
"""

from __future__ import annotations

import os
import statistics
import struct
import threading
import time

# Median seconds of one ``kernel()`` call on the 2-vCPU VM (Python 3.11)
# the benchmark was defined on.  Scaled timings read as timings on that
# machine at its usual speed.
REFERENCE_S = 0.0057
# How the engine's unforced time follows the kernel's: when the kernel
# runs 1.8x faster, the engine runs 1.8 ** 0.8 = 1.6x faster, since memory
# stalls speed up less than interpreter work.  Fit over thirty runs of the
# three gated workloads on that VM, whose speed changed about twofold among
# them (with log forces not yet split off).
ELASTICITY = 0.8
# Median seconds of one reference force (a 64-byte append and ``os.fsync``)
# on that VM.
REFERENCE_FSYNC_S = 0.00011

# Kernel calls per sample; a sample is their median.
CALLS = 3

_REC = struct.Struct("<qqI")


def kernel() -> int:
    """Fixed interpreter work; returns a checksum so nothing is elided."""
    table: dict[int, bytes] = {}
    total = 0
    for i in range(3000):
        key = (i * 7919) % 5003
        blob = _REC.pack(key, i, len(table))
        table[key] = blob + str(i).encode()
    for key in sorted(table):
        a, b, c = _REC.unpack_from(table[key])
        total += a ^ b ^ c
    words = [f"k{i:05d}-{i * 31 % 97}" for i in range(1500)]
    words.sort(key=lambda w: w[::-1])
    total += sum(len(w) for w in words[::7])
    return total


class FsyncClock:
    """Wall seconds each thread of this process has spent in ``os.fsync``.

    ``install`` replaces ``os.fsync`` for the whole process; the engine
    looks the function up on every call, so its log forces are timed.
    """

    def __init__(self) -> None:
        self.real = os.fsync
        self._local = threading.local()

    def install(self) -> None:
        def fsync(fd) -> None:
            t0 = time.perf_counter()
            try:
                self.real(fd)
            finally:
                self._local.s = self.seconds() + time.perf_counter() - t0

        os.fsync = fsync

    def uninstall(self) -> None:
        os.fsync = self.real

    def seconds(self) -> float:
        return getattr(self._local, "s", 0.0)


FSYNC = FsyncClock()


def scaled(wall: float, fsync: float, scale: tuple[float, float]) -> float:
    """A duration of ``wall`` seconds, ``fsync`` of them in ``os.fsync``,
    at the reference speeds: ``scale`` is ``HostSpeed.since``'s result."""
    return (wall - fsync) * scale[0] + fsync * scale[1]


class HostSpeed:
    """Kernel samples taken over a run, and the scale they give a timing.

    Each timed piece of work is bracketed by samples: ``before =
    speed.last``, the work, then ``scale = speed.since(before)``.  The
    host's speed changes from second to second (cores shared with other
    tenants run the kernel at half speed for seconds at a time), so a
    piece is scaled by the samples at its own two ends, never by a
    run-wide average.  The reference forces go to a file in ``directory``.
    """

    def __init__(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        self._fd = os.open(os.path.join(directory, "hostspeed.force"),
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self.samples: list[tuple[float, float]] = []
        self.last = self.sample()

    def close(self) -> None:
        os.close(self._fd)

    def sample(self) -> tuple[float, float]:
        """Seconds one kernel call and one reference force take now (the
        median of a few of each)."""
        kernels, forces = [], []
        for _ in range(CALLS):
            t0 = time.perf_counter()
            kernel()
            kernels.append(time.perf_counter() - t0)
            os.write(self._fd, b"x" * 64)
            t0 = time.perf_counter()
            FSYNC.real(self._fd)
            forces.append(time.perf_counter() - t0)
        self.last = (statistics.median(kernels), statistics.median(forces))
        self.samples.append(self.last)
        return self.last

    def since(self, before: tuple[float, float]) -> tuple[float, float]:
        """Samples again; returns the factors that scale the time spent
        outside and inside ``os.fsync`` since the sample ``before`` to the
        reference machine's speeds (see ``scaled``)."""
        after = self.sample()
        cpu = (2.0 * REFERENCE_S / (before[0] + after[0])) ** ELASTICITY
        return cpu, 2.0 * REFERENCE_FSYNC_S / (before[1] + after[1])

    def factors(self) -> tuple[float, float]:
        """The reference speeds over this host's, from the median samples:
        (kernel, force)."""
        return (REFERENCE_S / statistics.median(k for k, _ in self.samples),
                REFERENCE_FSYNC_S / statistics.median(
                    d for _, d in self.samples))
