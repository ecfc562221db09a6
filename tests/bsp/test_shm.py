"""Unit tests for :mod:`repro.bsp.shm`: fork-shared worker slots and the
``/dev/shm`` leak audit.

The slots live in an anonymous mapping, so a child sees them only by being
forked after they exist — which is exactly how the forked dispatcher pool
uses them.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bsp import shm


def test_slots_start_clear_and_unbeaten():
    slots = shm.WorkerSlots(3)
    for slot in range(3):
        assert not slots.is_set(slot)
        assert slots.age_seconds(slot) is None
    slots.set(1)
    assert slots.is_set(1) and not slots.is_set(0) and not slots.is_set(2)
    slots.clear(1)
    assert not slots.is_set(1)
    slots.beat(2)
    assert 0.0 <= slots.age_seconds(2) < 5.0
    assert slots.age_seconds(1) is None
    with pytest.raises(ValueError):
        shm.WorkerSlots(0)


def test_forked_child_shares_flags_and_heartbeats():
    """The child sees a flag the parent raises after the fork, and the
    parent reads the heartbeat the child stamps — with no named segment."""
    before = shm.leaked_segments()
    slots = shm.WorkerSlots(2)
    ready_r, ready_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: stamp slot 1, then wait for the parent's flag
        code = 1
        try:
            os.close(ready_r)
            slots.beat(1)
            os.write(ready_w, b"x")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if slots.is_set(1):
                    code = 0 if not slots.is_set(0) else 2
                    break
                time.sleep(0.005)
        finally:
            os._exit(code)
    os.close(ready_w)
    try:
        assert os.read(ready_r, 1) == b"x"
        age = slots.age_seconds(1)
        assert age is not None and age < 10.0
        assert slots.age_seconds(0) is None
        slots.set(1)
    finally:
        os.close(ready_r)
        _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert shm.leaked_segments() == before
