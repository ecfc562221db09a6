"""The native kernel library: compile it once, load it with ctypes.

:func:`load` returns a :class:`Kernels` handle on the library, or ``None``
when no working C compiler is available — callers then run the pure-Python
reference of each kernel, which produces identical bytes. The package
imports nothing else of :mod:`repro`, so :mod:`repro.graph` and
:mod:`repro.partitioning` can use it without importing :mod:`repro.core`.

``kernels.c`` is the one translation unit. It instantiates each kernel
source over vertex, edge or slot indices once per index width
(:func:`~repro.graph.graph.index_dtype`), so each of those has an
``int32`` entry point (``<name>_i32``) and an ``int64`` one (``<name>``),
and the arrays' dtype picks the entry point on every call:

* ``phase1_walk`` (``walk.c``): the whole Phase-1 walk of one partition;
* ``build_csr`` (``setup.c``): the CSR triple, by one stable counting sort;
* ``bfs_order`` and ``ldg`` (``setup.c``): the LDG partitioner's BFS
  vertex order and its streaming pass;
* ``components`` (``components.c``, int64 only): union-find component
  labels.

The loader binds every entry point or none.

The shared library is compiled lazily, on the first call, with the system
``cc`` and kept in a per-user cache keyed by the hash of every kernel
source and the compiler flags: ``$XDG_CACHE_HOME/repro-euler/`` (default
``~/.cache/repro-euler/``), or ``repro-euler-<uid>`` under
:func:`tempfile.gettempdir` when that is not usable. Cache directories
are created ``0o700``; a directory or library not owned by the current
user is refused, never loaded. Compilation writes a temporary file and
renames it into place, so concurrent first uses by several threads or
processes leave one loadable library. ``-ffp-contract=off`` keeps the
compiler from fusing LDG's multiply and subtract, so its scores round as
NumPy's do.

Kernels are called through :class:`ctypes.CDLL`, which releases the GIL
for the duration of the call: thread executors walk partitions in
parallel.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from ..errors import InvariantViolation

__all__ = ["load", "Kernels", "WALK_PATH", "WALK_EB", "WALK_ANCHORED",
           "WALK_MERGED"]

#: Walk record kinds (column 2 of the walk records): an OB -> OB path, an
#: EB cycle, an internal cycle kept as its own anchored root, and an
#: internal cycle merged into a root at a pivot (not a root itself).
WALK_PATH, WALK_EB, WALK_ANCHORED, WALK_MERGED = range(4)

_KERNEL_DIR = Path(__file__).parent
#: The one translation unit; it includes every other kernel source.
_UNIT = _KERNEL_DIR / "kernels.c"
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_lock = threading.Lock()
_resolved: list = []  # [Kernels or None] once the first load settled it

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
#: Argument types of each entry point (the return type is int64).
_SIGNATURES = {
    "phase1_walk": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _I64, _PTR,
                    _I64, _PTR, _PTR, _PTR, _PTR],
    "build_csr": [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR],
    "bfs_order": [_I64, _PTR, _PTR, _PTR, _PTR],
    "ldg": [_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR],
}
_WIDTHS = {np.dtype(np.int32): "_i32", np.dtype(np.int64): ""}


def _cache_dirs() -> list[Path]:
    """Candidate library directories, in order of preference."""
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return [Path(xdg) / "repro-euler",
            Path(tempfile.gettempdir()) / f"repro-euler-{os.geteuid()}"]


def load() -> "Kernels | None":
    """The native library's entry points, or None.

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
        return Kernels(ctypes.CDLL(str(_library())))
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


def _owned(path: Path) -> bool:
    return path.stat().st_uid == os.geteuid()


def _library() -> Path:
    """Path of the compiled library, compiling it into the cache if needed."""
    tag = hashlib.sha256(" ".join(_FLAGS).encode())
    for source in sorted(_KERNEL_DIR.glob("*.c")):
        tag.update(source.name.encode() + b"\0" + source.read_bytes())
    name = f"kernels-{tag.hexdigest()[:16]}.so"
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
    raise OSError("no usable cache directory for the kernel library")


def _compile(path: Path) -> None:
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    fd, tmp = tempfile.mkstemp(prefix=".kernels-", suffix=".so",
                               dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *_FLAGS, "-o", tmp, str(_UNIT)],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _ptr(a: np.ndarray, dtype) -> int:
    """Address of a C-contiguous ``dtype`` array (anything else is refused)."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(f"kernel needs C-contiguous {np.dtype(dtype)}, "
                         f"got {a.dtype}")
    return a.ctypes.data


def _check(status: int, what: str) -> int:
    if status == -1:
        raise MemoryError(f"{what} kernel could not allocate its buffers")
    return status


class Kernels:
    """The library's bound entry points, with array-level wrappers."""

    def __init__(self, lib: ctypes.CDLL):
        #: Entry point name -> ctypes function, every one the library has.
        self.entry_points: dict[str, ctypes._CFuncPtr] = {}
        for base, argtypes in _SIGNATURES.items():
            for suffix in _WIDTHS.values():
                fn = getattr(lib, base + suffix)
                fn.argtypes, fn.restype = argtypes, _I64
                self.entry_points[base + suffix] = fn
        fn = lib.components
        fn.argtypes, fn.restype = [_I64, _I64, _PTR, _PTR, _PTR], _I64
        self.entry_points["components"] = fn

    def _entry(self, base: str, width) -> ctypes._CFuncPtr:
        suffix = _WIDTHS.get(np.dtype(width))
        if suffix is None:
            raise ValueError(f"{base} kernel has no entry point for {width}")
        return self.entry_points[base + suffix]

    def walk(self, t, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Run the Phase-1 walk on one partition's walk tables (``walk.c``).

        The tables' width picks the entry point; the walk records come
        back at that width, the ``(m, 2)`` ItemArray as int64.
        """
        edges = np.ascontiguousarray(edges)
        if edges.shape != (t.m, 4) or t.offsets.size != t.size + 1:
            raise ValueError("walk tables do not match the EdgeTable")
        width = t.offsets.dtype
        fn = self._entry("phase1_walk", width)
        items = np.empty((t.m, 2), dtype=np.int64)
        recs = np.empty((t.m, 4), dtype=width)  # every walk takes >= 1 edge
        n = fn(t.m, t.size, _ptr(t.offsets, width), _ptr(t.slot_enc, width),
               _ptr(t.slot_next, width), _ptr(t.eu_loc, width),
               _ptr(t.ob, width), t.ob.size, _ptr(t.eb, width), t.eb.size,
               _ptr(edges, np.int64),
               None if t.vert_ids is None else _ptr(t.vert_ids, width),
               _ptr(items, np.int64), _ptr(recs, width))
        _check(n, "Phase-1 walk")
        if n < 0:
            raise InvariantViolation("Phase-1 walk left merged cycles unspliced")
        return items, recs[:n]

    def csr(self, n: int, u: np.ndarray, v: np.ndarray, width
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The CSR triple of int64 endpoint arrays at ``width``
        (``setup.c``); endpoints must lie in ``[0, n)``."""
        m = u.size
        offsets = np.empty(n + 1, dtype=width)
        targets = np.empty(2 * m, dtype=width)
        eids = np.empty(2 * m, dtype=width)
        _check(self._entry("build_csr", width)(
            n, m, _ptr(u, np.int64), _ptr(v, np.int64), _ptr(offsets, width),
            _ptr(targets, width), _ptr(eids, width)), "CSR")
        return offsets, targets, eids

    def bfs_order(self, offsets: np.ndarray, targets: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
        """BFS visitation order (int64) entering components in ``starts``
        order (``setup.c``)."""
        width = offsets.dtype
        n = offsets.size - 1
        order = np.empty(n, dtype=np.int64)
        _check(self._entry("bfs_order", width)(
            n, _ptr(offsets, width), _ptr(targets, width),
            _ptr(starts, np.int64), _ptr(order, np.int64)), "BFS order")
        return order

    def ldg(self, offsets: np.ndarray, targets: np.ndarray,
            order: np.ndarray, n_parts: int, capacity: int) -> np.ndarray:
        """LDG's partition map (int64) over ``order`` (``setup.c``)."""
        width = offsets.dtype
        n = offsets.size - 1
        part = np.empty(n, dtype=np.int64)
        _check(self._entry("ldg", width)(
            n, n_parts, capacity, _ptr(offsets, width), _ptr(targets, width),
            _ptr(order, np.int64), _ptr(part, np.int64)), "LDG")
        return part

    def components(self, n: int, u: np.ndarray, v: np.ndarray
                   ) -> tuple[np.ndarray, int]:
        """``(labels, k)``: int64 component labels of int64 endpoint
        arrays, numbered by smallest vertex (``components.c``)."""
        label = np.empty(n, dtype=np.int64)
        k = self.entry_points["components"](
            n, u.size, _ptr(u, np.int64), _ptr(v, np.int64),
            _ptr(label, np.int64))
        return label, int(k)
