"""Per-slot cancel flags and heartbeats, and the ``/dev/shm`` leak audit.

:class:`WorkerSlots` is what the forked dispatcher workers share with the
process that forked them: one ``int64`` cancel flag and one
``time.monotonic_ns`` heartbeat stamp per worker slot, in an anonymous
``MAP_SHARED`` mapping created *before* the fork. Every child forked
afterwards — respawns included — maps the same pages, so there is nothing
to name, attach or unlink: the kernel frees the mapping when the last
process that maps it exits, however it exits.

Nothing in this package creates a named shared-memory segment. The
:func:`leaked_segments` audit (CI, the e2e harness and the test suite's
autouse fixture) checks that it stays that way: any ``/dev/shm`` entry
named :data:`SEGMENT_PREFIX` is a leak.
"""

from __future__ import annotations

import mmap
import time
from pathlib import Path

__all__ = ["SEGMENT_PREFIX", "WorkerSlots", "leaked_segments"]

#: The ``/dev/shm`` namespace the leak audit watches.
SEGMENT_PREFIX = "repro_"

_SHM_DIR = Path("/dev/shm")


def leaked_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live ``repro_*`` segments (the leak audit)."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in _SHM_DIR.glob(f"{prefix}*"))


class WorkerSlots:
    """One cancel flag and one heartbeat per worker slot, fork-shared.

    Create it before forking the workers that use it. Slot semantics
    mirror :class:`~repro.pipeline.cancel.CancelToken`: a nonzero flag
    means "stop at your next safe point". The heartbeat is the worker's
    last ``time.monotonic_ns()`` stamp (``CLOCK_MONOTONIC`` is system-wide
    on Linux, so parent and children compare stamps directly); ``0`` means
    never beaten.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one slot")
        self.n = n
        # fileno -1: anonymous; the default flags are MAP_SHARED, so the
        # pages stay shared with every child forked from here on.
        self._words = memoryview(mmap.mmap(-1, 16 * n)).cast("q")

    def set(self, slot: int) -> None:
        self._words[2 * slot] = 1

    def clear(self, slot: int) -> None:
        self._words[2 * slot] = 0

    def is_set(self, slot: int) -> bool:
        return self._words[2 * slot] != 0

    def beat(self, slot: int) -> None:
        """Stamp 'alive right now' into ``slot``."""
        self._words[2 * slot + 1] = time.monotonic_ns()

    def age_seconds(self, slot: int) -> float | None:
        """Seconds since the slot's last beat (``None``: never beaten)."""
        stamp = self._words[2 * slot + 1]
        if stamp == 0:
            return None
        return max(0.0, (time.monotonic_ns() - stamp) / 1e9)
