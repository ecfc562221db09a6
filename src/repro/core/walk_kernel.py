"""Native Phase-1 walk: compile the kernel library once, load it with ctypes.

:func:`load` returns a callable running the whole Phase-1 walk of one
partition in C (see ``walk.c``), or ``None`` when no working C compiler
is available — callers then use the pure-Python reference walk in
:mod:`repro.core.phase1`, which produces identical bytes.

``kernels.c`` instantiates ``walk.c`` once per index width, so the one
library has two entry points: ``phase1_walk_i32`` for int32 walk tables
and ``phase1_walk`` for int64 ones. The loader binds both or neither, and
the tables' dtype picks the entry point on every call.

The shared library is compiled lazily, on the first call, with the system
``cc`` and kept in a per-user cache keyed by the hash of every kernel
source: ``$XDG_CACHE_HOME/repro-euler/`` (default ``~/.cache/repro-euler/``), or
``repro-euler-<uid>`` under :func:`tempfile.gettempdir` when that is not
usable. Cache directories are created ``0o700``; a directory or library
not owned by the current user is refused, never loaded. Compilation
writes a temporary file and renames it into place, so concurrent first
uses by several threads or processes leave one loadable library.

The kernel is called through :class:`ctypes.CDLL`, which releases the GIL
for the duration of the walk: thread executors walk partitions in
parallel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from ..errors import InvariantViolation

__all__ = ["load", "WALK_PATH", "WALK_EB", "WALK_ANCHORED", "WALK_MERGED"]

#: Walk record kinds (column 2 of the walk records): an OB -> OB path, an
#: EB cycle, an internal cycle kept as its own anchored root, and an
#: internal cycle merged into a root at a pivot (not a root itself).
WALK_PATH, WALK_EB, WALK_ANCHORED, WALK_MERGED = range(4)

_KERNEL_DIR = Path(__file__).parent
#: The one translation unit; it includes every other kernel source.
_UNIT = _KERNEL_DIR / "kernels.c"
_FLAGS = ("-O2", "-shared", "-fPIC")
_lock = threading.Lock()
_resolved: list = []  # [callable or None] once the first load settled it


def _cache_dirs() -> list[Path]:
    """Candidate library directories, in order of preference."""
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return [Path(xdg) / "repro-euler",
            Path(tempfile.gettempdir()) / f"repro-euler-{os.geteuid()}"]


def load():
    """The native walk as ``walk(tables, edges) -> (items, recs)``, or None.

    The first call compiles (or finds) and loads the library; its outcome,
    including failure, is kept for the life of the process.
    """
    if not _resolved:
        with _lock:
            if not _resolved:
                _resolved.append(_load())
    return _resolved[0]


def _load():
    try:
        lib = ctypes.CDLL(str(_library()))
        entries = {np.dtype(np.int32): lib.phase1_walk_i32,
                   np.dtype(np.int64): lib.phase1_walk}
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    for fn in entries.values():
        fn.argtypes = [i64, i64, ptr, ptr, ptr, ptr, ptr, i64, ptr, i64, ptr,
                       ptr, ptr, ptr]
        fn.restype = i64
    return functools.partial(_walk, entries)


def _owned(path: Path) -> bool:
    return path.stat().st_uid == os.geteuid()


def _library() -> Path:
    """Path of the compiled kernel, compiling it into the cache if needed."""
    tag = hashlib.sha256(" ".join(_FLAGS).encode())
    for source in sorted(_KERNEL_DIR.glob("*.c")):
        tag.update(source.name.encode() + b"\0" + source.read_bytes())
    name = f"walk-{tag.hexdigest()[:16]}.so"
    for directory in _cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _owned(directory):
                continue
            path = directory / name
            if not path.exists():
                _compile(path)
            if _owned(path):
                return path
        except OSError:
            continue
    raise OSError("no usable cache directory for the walk kernel")


def _compile(path: Path) -> None:
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    fd, tmp = tempfile.mkstemp(prefix=".walk-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *_FLAGS, "-o", tmp, str(_UNIT)], check=True,
                       capture_output=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _ptr(a: np.ndarray, dtype) -> int:
    """Address of a C-contiguous ``dtype`` array (anything else is refused)."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"walk kernel needs C-contiguous {np.dtype(dtype)}, "
                         f"got {a.dtype}")
    return a.ctypes.data


def _walk(entries, t, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the kernel on one partition's walk tables (see ``walk.c``).

    The tables' width picks the entry point; the walk records come back at
    that width, the ItemArray as int64.
    """
    edges = np.ascontiguousarray(edges)
    if edges.shape != (t.m, 4) or t.offsets.size != t.size + 1:
        raise ValueError("walk tables do not match the EdgeTable")
    width = t.offsets.dtype
    fn = entries.get(width)
    if fn is None:
        raise ValueError(f"walk kernel has no entry point for {width} tables")
    items = np.empty((t.m, 4), dtype=np.int64)
    recs = np.empty((t.m, 4), dtype=width)  # every walk takes >= 1 edge
    n = fn(t.m, t.size, _ptr(t.offsets, width), _ptr(t.slot_enc, width),
           _ptr(t.slot_next, width), _ptr(t.eu_loc, width), _ptr(t.ob, width),
           t.ob.size, _ptr(t.eb, width), t.eb.size, _ptr(edges, np.int64),
           None if t.vert_ids is None else _ptr(t.vert_ids, width),
           _ptr(items, np.int64), _ptr(recs, width))
    if n == -1:
        raise MemoryError("Phase-1 walk kernel could not allocate its buffers")
    if n < 0:
        raise InvariantViolation("Phase-1 walk left merged cycles unspliced")
    return items, recs[:n]
