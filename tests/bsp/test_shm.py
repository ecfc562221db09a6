"""Unit tests for the shared-memory data plane (:mod:`repro.bsp.shm`).

Every test is leak-audited: whatever segments it creates must be gone from
``/dev/shm`` by the end (the suite-wide ``_no_shm_leaks`` fixture in
``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bsp import shm

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory not available"
)


# ---------------------------------------------------------------------------
# SharedSegmentStore: keyed long-lived segments
# ---------------------------------------------------------------------------


def test_segment_store_publish_attach_unpublish():
    with shm.SharedSegmentStore(tag="tst") as store:
        arrays = {"u": np.arange(100, dtype=np.int64),
                  "v": np.arange(100, 200, dtype=np.int64)}
        store.publish("g1", arrays)
        assert "g1" in store and store.keys() == ["g1"]

        desc = store.descriptor("g1")
        views = shm.attach_arrays(desc)
        np.testing.assert_array_equal(views["u"], arrays["u"])
        np.testing.assert_array_equal(views["v"], arrays["v"])

        stats = store.stats()
        assert stats["segments"] == 1
        assert stats["bytes"] >= arrays["u"].nbytes + arrays["v"].nbytes
        assert stats["attaches"] == 1

        assert store.unpublish("g1") is True
        assert "g1" not in store
        with pytest.raises(FileNotFoundError):
            shm.attach_arrays(desc)  # segment gone -> durable-source fallback
    assert store.stats()["segments"] == 0


def test_segment_store_close_unlinks_everything():
    store = shm.SharedSegmentStore(tag="tst")
    store.publish("a", {"x": np.ones(32)})
    store.publish("b", {"y": np.arange(8, dtype=np.uint8)})
    names = [store.descriptor(k)["segment"] for k in ("a", "b")]
    store.close()
    for name in names:
        assert name not in shm.leaked_segments()
    store.close()  # idempotent


# ---------------------------------------------------------------------------
# CancelFlags: the cross-process cancellation plane
# ---------------------------------------------------------------------------


def test_cancel_flags_set_clear_across_attach():
    owner = shm.CancelFlags.create(4)
    try:
        peer = shm.CancelFlags.attach(owner.descriptor)
        owner.set(2)
        assert peer.is_set(2) and not peer.is_set(0)
        peer.close()  # consumer close never unlinks
        owner.clear(2)
        assert not owner.is_set(2)
    finally:
        owner.close()


def test_cancel_flags_owner_close_unlinks():
    owner = shm.CancelFlags.create(2)
    name = owner.descriptor["segment"]
    assert name in shm.leaked_segments()
    owner.close()
    assert name not in shm.leaked_segments()


# ---------------------------------------------------------------------------
# startup janitor: pid-liveness sweep
# ---------------------------------------------------------------------------


def test_segment_names_carry_creator_pid():
    import os

    owner = shm.CancelFlags.create(1)
    try:
        name = owner.descriptor["segment"]
        assert shm.segment_creator_pid(name) == os.getpid()
    finally:
        owner.close()
    assert shm.segment_creator_pid("not_ours") is None
    assert shm.segment_creator_pid("repro_bad") is None
    assert shm.segment_creator_pid("repro_tag_zz_1") is None


def _spawn_segment_holder():
    """A child process (different parent chain than any engine under test)
    that creates one segment and keeps running until killed."""
    import subprocess
    import sys

    code = (
        "import sys, time\n"
        "from repro.bsp import shm\n"
        "flags = shm.CancelFlags.create(1)\n"
        "print(flags.descriptor['segment'], flush=True)\n"
        "time.sleep(120)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE, text=True,
        env={**__import__("os").environ,
             "PYTHONPATH": str(__import__("pathlib").Path(
                 shm.__file__).resolve().parents[2])},
    )
    name = proc.stdout.readline().strip()
    assert name.startswith(shm.SEGMENT_PREFIX)
    return proc, name


def test_sweep_spares_live_foreign_owner_then_reclaims_after_kill():
    """The satellite contract: a still-alive host started by a different
    parent must never lose its segments to another process's janitor —
    but once it is SIGKILL'd, the same sweep reclaims them."""
    import signal

    proc, name = _spawn_segment_holder()
    try:
        assert name in shm.leaked_segments()
        swept = shm.sweep_stale_segments()
        assert name not in swept
        assert name in shm.leaked_segments(), "janitor killed a live host's segment"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    # SIGKILL ran no cleanup handlers: the segment is stranded until swept.
    assert name in shm.leaked_segments()
    swept = shm.sweep_stale_segments()
    assert name in swept
    assert name not in shm.leaked_segments()


def test_sweep_treats_zombie_creator_as_dead():
    """A dead-but-unreaped creator (state Z) pins nothing — its address
    space is gone — so the janitor must reclaim its segments."""
    import os

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: create a segment, tell the parent, die unreaped
        os.close(r)
        try:
            flags = shm.CancelFlags.create(1)
            os.write(w, flags.descriptor["segment"].encode())
        finally:
            os.close(w)
            os._exit(0)
    os.close(w)
    name = os.read(r, 256).decode()
    os.close(r)
    try:
        # Wait for the child to actually become a zombie (it exited, we
        # have not reaped it yet).
        import time

        for _ in range(100):
            with open(f"/proc/{pid}/stat", "rb") as f:
                stat = f.read()
            if stat.rpartition(b")")[2].split()[:1] == [b"Z"]:
                break
            time.sleep(0.01)
        assert name in shm.leaked_segments()
        swept = shm.sweep_stale_segments()
        assert name in swept
    finally:
        os.waitpid(pid, 0)
    assert name not in shm.leaked_segments()


def test_sweep_never_touches_own_segments():
    owner = shm.CancelFlags.create(1)
    try:
        name = owner.descriptor["segment"]
        assert name not in shm.sweep_stale_segments()
        assert name in shm.leaked_segments()
    finally:
        owner.close()
