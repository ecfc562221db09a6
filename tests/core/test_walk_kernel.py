"""The native Phase-1 walk kernel against the pure-Python reference walk.

``run_phase1`` runs its walk in C when the kernel loads and in Python
otherwise. Both must produce the same bytes — PathMap, stats and every
fragment body — on any input, including ones that violate the lemmas
(where ``validate=True`` must raise the same error), and the kernel's
int32 and int64 entry points must walk the same tables identically. The
loader must fall back silently when no compiler works, survive concurrent
first uses, keep its cache private and refuse a library it does not own.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import stat
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro import kernels
from repro.core import phase1
from repro.core.pathmap import FragmentBatch, FragmentStore, make_fid
from repro.core.phase1 import EDGE_COARSE, EDGE_RAW, run_phase1
from repro.errors import InvariantViolation
from repro.generate.synthetic import random_eulerian
from repro.graph.partition import PartitionedGraph
from tests.helpers import edges_of, fragment_census, rdeg_of


@contextmanager
def reference_walk():
    """Force the pure-Python walk (as if no compiler were available)."""
    saved = kernels.load
    kernels.load = lambda: None
    try:
        yield
    finally:
        kernels.load = saved


def _require_native():
    if kernels.load() is None:
        pytest.skip("no working C compiler: the native walk is unavailable")


def _outcome(case, validate):
    """Everything one Phase-1 run produces, or the error it raised.

    A case's ``priors`` are the coarse edges' fragments, by seq of a
    level-0 run of partition 0: the run reads only their raw-edge counts.
    """
    pid, level, rows, priors, rdeg = case
    batch = FragmentBatch(pid, level, known_edges={
        make_fid(0, 0, seq): n_edges
        for seq, (_, _, n_edges) in enumerate(priors)})
    try:
        pm, stats = run_phase1(pid, level, edges_of(rows), rdeg_of(rdeg),
                               batch, validate=validate)
    except InvariantViolation as exc:
        return "raised", str(exc)
    store = FragmentStore()
    store.adopt(batch)
    return (pm.ob_paths.tobytes(), pm.ob_path_edges.tobytes(),
            pm.anchored_cycles.tobytes(), pm.n_merged_cycles, pm.n_trivial,
            stats, fragment_census(store, bodies=True))


@st.composite
def arbitrary_graphs(draw):
    """Any live local graph: self loops, parallel and coarse edges, odd
    internal degrees, several components, dense or sparse vertex ids."""
    n = draw(st.integers(1, 8))
    spread = draw(st.sampled_from([1, 3, 1 << 20]))  # 1 << 20: sparse mode
    ids = [5 + spread * i for i in range(n)]
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans())
    rows, priors = [], []
    for e, (a, b, coarse) in enumerate(draw(st.lists(ends, max_size=40))):
        u, v = ids[a], ids[b]
        if coarse:
            rows.append((u, v, EDGE_COARSE, make_fid(0, 0, len(priors))))
            priors.append((u, v, 1 + e % 3))
        else:
            rows.append((u, v, EDGE_RAW, e))
    rdeg = {ids[k]: d for k, d in draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, 3))).items()}
    return 2, 1, rows, priors, rdeg


@st.composite
def partition_views(draw):
    """A level-0 partition of a random Eulerian graph: the lemmas hold, so
    this exercises mergeInto and the splice rather than the error path."""
    seed = draw(st.integers(0, 10_000))
    n_parts = draw(st.integers(1, 4))
    spread = draw(st.sampled_from([1, 1 << 20]))
    g = random_eulerian(30, n_walks=3, walk_len=12, seed=seed)
    part = np.random.default_rng(seed).integers(0, n_parts, g.n_vertices)
    pg = PartitionedGraph(g, part, n_parts)
    pid = draw(st.integers(0, n_parts - 1))
    view = pg.view(pid)
    u, v = g.edge_u * spread, g.edge_v * spread
    rows = [(int(u[e]), int(v[e]), EDGE_RAW, int(e)) for e in view.local_eids]
    rdeg: dict[int, int] = {}
    for src in (view.remote[:, 0] * spread).tolist():
        rdeg[src] = rdeg.get(src, 0) + 1
    return pid, 0, rows, [], rdeg


def _raw(*pairs):
    return [(u, v, EDGE_RAW, e) for e, (u, v) in enumerate(pairs)]


#: Shapes that pin mergeInto's "first owning root wins" rule:
#: - two OB paths through 5, then a cycle at 5 joins the first path;
#: - OB 5 is passed through by the first path before starting its own,
#:   then a cycle from 5 still joins the first path;
#: - triangles A and B become separate anchored roots, then cycle C joins
#:   A through B's vertex 4, and cycle D at 4 must still join B.
MERGE_SHAPES = [
    (0, 0, _raw((0, 5), (5, 1), (2, 5), (5, 3), (5, 6), (6, 7), (7, 5)), [],
     {0: 1, 1: 1, 2: 1, 3: 1}),
    (0, 0, _raw((0, 5), (5, 1), (5, 9), (5, 6), (6, 5)), [],
     {0: 1, 1: 1, 5: 1, 9: 1}),
    (0, 0, _raw((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 6),
                (6, 4), (4, 7), (7, 1), (4, 8), (8, 9), (9, 4)), [], {}),
]


@settings(deadline=None, max_examples=200)
@given(case=st.one_of(arbitrary_graphs(), partition_views()),
       validate=st.booleans())
@example(case=MERGE_SHAPES[0], validate=True)
@example(case=MERGE_SHAPES[1], validate=True)
@example(case=MERGE_SHAPES[2], validate=True)
def test_kernel_matches_reference(case, validate):
    _require_native()
    native = _outcome(case, validate)
    with reference_walk():
        reference = _outcome(case, validate)
    assert native == reference


def _tables_at_both_widths(case):
    """The case's EdgeTable, its walk tables at the run width, and the same
    tables cast to int64."""
    _, _, rows, _, rdeg = case
    edges = edges_of(rows)
    narrow = phase1._build_walk_tables(edges, rdeg_of(rdeg))
    wide = phase1._WalkTables()
    for name in phase1._WalkTables.__slots__:
        value = getattr(narrow, name)
        if isinstance(value, np.ndarray) and name != "bnd_ids":
            value = value.astype(np.int64)
        setattr(wide, name, value)
    return edges, narrow, wide


@settings(deadline=None, max_examples=200)
@given(case=st.one_of(arbitrary_graphs(), partition_views()))
@example(case=MERGE_SHAPES[0])
@example(case=MERGE_SHAPES[1])
@example(case=MERGE_SHAPES[2])
def test_both_widths_walk_identically(case):
    """The int32 entry point, the int64 entry point on the same tables cast
    to int64, and the reference walk at both widths return the same
    ItemArray bytes and walk records; the records keep the tables' width."""
    _require_native()
    edges, narrow, wide = _tables_at_both_widths(case)
    assert narrow.offsets.dtype == np.int32  # every id here fits
    kernel = kernels.load().walk
    items, recs = kernel(narrow, edges)
    assert recs.dtype == np.int32 and items.dtype == np.int64
    for tables, walk in ((wide, kernel), (narrow, phase1._walk_reference),
                         (wide, phase1._walk_reference)):
        other_items, other_recs = walk(tables, edges)
        assert other_items.dtype == np.int64
        assert other_items.tobytes() == items.tobytes()
        assert other_recs.dtype == tables.offsets.dtype
        assert other_recs.tolist() == recs.tolist()


def test_ids_beyond_int32_walk_at_int64():
    """Tables whose ids do not fit 31 bits are built at int64 and walk
    through the int64 entry point like the reference."""
    big = 1 << 31
    rows = [(big, big + 7, EDGE_RAW, 0), (big + 7, 5, EDGE_RAW, 1),
            (5, big, EDGE_RAW, 2)]
    edges = edges_of(rows)
    tables = phase1._build_walk_tables(edges, rdeg_of({}))
    assert tables.vert_ids is not None and tables.offsets.dtype == np.int64
    reference = phase1._walk_reference(tables, edges)
    _require_native()
    native = kernels.load().walk(tables, edges)
    assert native[0].tobytes() == reference[0].tobytes()
    assert native[1].tobytes() == reference[1].tobytes()
    assert sorted(native[0][:, 1].tolist()) == [5, big, big + 7]


def test_lemma_violation_raises_the_same_error_on_both_paths():
    # OBs 0 and 3; the path from 0 strands at internal odd-degree vertex 2.
    case = (0, 0, [(0, 1, EDGE_RAW, 0), (1, 2, EDGE_RAW, 1),
                   (3, 4, EDGE_RAW, 2)], [], {0: 1, 3: 1})
    _require_native()
    native = _outcome(case, validate=True)
    with reference_walk():
        reference = _outcome(case, validate=True)
    assert native == reference == (
        "raised", "Lemma 1 violated: path from OB 0 ended at non-OB 2")


# ---- loader ---------------------------------------------------------------


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private, empty library cache and no settled load outcome."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
    monkeypatch.setattr(kernels, "_resolved", [])
    return tmp_path


def _needs_cc():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")


def _sample_case():
    g = random_eulerian(40, n_walks=4, walk_len=14, seed=3)
    rows = [(int(a), int(b), EDGE_RAW, e)
            for e, (a, b) in enumerate(zip(g.edge_u, g.edge_v))]
    return 0, 0, rows, [], {0: 2, 5: 2}


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_broken_compiler_falls_back_silently(fresh_cache, monkeypatch, capfd,
                                             compiler):
    with reference_walk():
        expected = _outcome(_sample_case(), validate=True)
    fake = None
    if compiler == "failing":
        fake = fresh_cache / "cc"
        fake.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n")
        fake.chmod(0o755)
    monkeypatch.setattr(shutil, "which", lambda name: fake and str(fake))
    assert kernels.load() is None
    assert _outcome(_sample_case(), validate=True) == expected
    out, err = capfd.readouterr()
    assert out == err == ""
    leftovers = [p for p in fresh_cache.rglob("*") if p.suffix == ".so"]
    assert leftovers == []


def test_concurrent_first_use_leaves_one_loadable_library(fresh_cache):
    _needs_cc()
    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    code = "from repro import kernels; print(kernels._library())"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE) for _ in range(3)]
    paths = set()
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0
        paths.add(out.decode().strip())
    assert len(paths) == 1
    path = Path(paths.pop())
    assert sorted(path.parent.iterdir()) == [path]  # no temp files left
    assert ctypes.CDLL(str(path)).phase1_walk


def test_cache_directory_is_private(fresh_cache):
    _needs_cc()
    assert kernels.load() is not None
    lib_dir = fresh_cache / "xdg" / "repro-euler"
    assert stat.S_IMODE(lib_dir.stat().st_mode) == 0o700
    assert [p.suffix for p in lib_dir.iterdir()] == [".so"]


def test_library_not_owned_by_user_is_refused(fresh_cache, monkeypatch):
    _needs_cc()
    kernels._library()  # a genuine library sits in the cache
    owned = kernels._owned
    monkeypatch.setattr(kernels, "_owned",
                        lambda p: p.suffix != ".so" and owned(p))
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: opened.append(a))
    assert kernels.load() is None
    assert opened == []


def test_cache_directory_not_owned_by_user_is_refused(fresh_cache, monkeypatch):
    _needs_cc()
    kernels._library()
    uid = os.geteuid()
    monkeypatch.setattr(os, "geteuid", lambda: uid + 1)
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda *a, **k: opened.append(a))
    assert kernels.load() is None
    assert opened == []
