"""Unit tests for the frame protocol and placement.

The executor parity suite proves the remote wire is invisible in pipeline
*output*; this file pins the wire-level contracts it relies on: exact
framing, byte accounting, writable receive-side arrays, allocation-bomb
guards, host-spec parsing and the stable pid → slot map.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from repro.bsp import transport as tr
from repro.obs import MetricsRegistry


def _payload():
    return {
        "cols": np.arange(64, dtype=np.int64),
        "mask": np.ones(8, dtype=np.int64),
        "meta": {"pid": 3, "k": 2},
    }


def _assert_payload_equal(a, b):
    np.testing.assert_array_equal(a["cols"], b["cols"])
    np.testing.assert_array_equal(a["mask"], b["mask"])
    assert a["meta"] == b["meta"]


# -- frame protocol ----------------------------------------------------------


def test_encode_decode_frame_roundtrip():
    obj = _payload()
    parts, total, buffer_bytes = tr.encode_frame(obj)
    blob = b"".join(bytes(p) for p in parts)
    assert len(blob) == total
    # int64 columns ship raw, out of band: every array byte is a buffer byte.
    assert buffer_bytes == obj["cols"].nbytes + obj["mask"].nbytes
    back = tr.decode_frame(blob)
    _assert_payload_equal(obj, back)


def test_decoded_arrays_are_writable():
    back = tr.decode_frame(b"".join(
        bytes(p) for p in tr.encode_frame(_payload())[0]
    ))
    back["cols"][0] = -7  # must not raise: downstream merges write in place
    assert back["cols"][0] == -7


def test_frame_overhead_is_fixed_not_proportional():
    """Framing/meta overhead must not scale with array payload size —
    the guarantee the remote run's bytes-on-wire budget is built on."""
    def overhead(n):
        arr = np.arange(n, dtype=np.int64)
        _, total, buffer_bytes = tr.encode_frame({"a": arr})
        return total - buffer_bytes

    small, big = overhead(16), overhead(1 << 16)
    assert big - small < 64  # length digits only, not re-encoded elements


def test_decode_rejects_bad_magic():
    with pytest.raises(ValueError, match="bad frame magic"):
        tr.decode_frame(b"NOPE" + b"\x00" * 16)


def test_recv_rejects_allocation_bomb():
    a, b = socket.socketpair()
    try:
        # A forged header advertising a giant meta must be rejected before
        # any allocation of that size is attempted.
        a.sendall(struct.Struct("<4sIQ").pack(b"REF1", 0, tr.MAX_FRAME_BYTES + 1))
        with pytest.raises(ValueError, match="too large"):
            tr.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_send_recv_over_socketpair_and_wire_stats():
    before = tr.wire_stats()
    a, b = socket.socketpair()
    try:
        obj = _payload()
        got = {}

        def rx():
            got["obj"] = tr.recv_frame(b)

        t = threading.Thread(target=rx)
        t.start()
        sent = tr.send_frame(a, obj)
        t.join(timeout=10)
        _assert_payload_equal(obj, got["obj"])
        after = tr.wire_stats()
        stats = {k: after[k] - before[k] for k in after}
        assert stats["messages"] == 1
        assert stats["bytes_total"] == sent
        assert stats["buffer_bytes"] == obj["cols"].nbytes + obj["mask"].nbytes
        assert stats["overhead_bytes"] == sent - stats["buffer_bytes"]
    finally:
        a.close()
        b.close()


def test_recv_frame_eof_on_clean_close():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(EOFError):
            tr.recv_frame(b)
    finally:
        b.close()


def test_frame_connection_request_reply():
    a, b = socket.socketpair()
    sent = tr.WireStats(registry=MetricsRegistry(), scope="client")
    server = tr.FrameConnection(b)
    client = tr.FrameConnection(a, stats=sent)
    try:
        def serve_one():
            req = server.recv()
            server.send({"echo": req})

        t = threading.Thread(target=serve_one)
        t.start()
        reply = client.request({"op": "ping"}, timeout=10)
        t.join(timeout=10)
        assert reply == {"echo": {"op": "ping"}}
        assert sent.snapshot()["messages"] == 1
        assert sent.snapshot()["bytes_total"] > 0
    finally:
        client.close()
        server.close()


# -- host addressing ---------------------------------------------------------


def test_parse_hosts_forms():
    want = [("10.0.0.1", 9701), ("10.0.0.2", 9702)]
    assert tr.parse_hosts("10.0.0.1:9701,10.0.0.2:9702") == want
    assert tr.parse_hosts(["10.0.0.1:9701", ("10.0.0.2", 9702)]) == want
    assert tr.parse_hosts(None) == []
    assert tr.parse_hosts("") == []
    with pytest.raises(ValueError, match="bad host spec"):
        tr.parse_hosts("no-port")


# -- placement ---------------------------------------------------------------


def test_slot_of_stable_and_in_range():
    assert [tr.slot_of(p, 3) for p in range(6)] == [0, 1, 2, 0, 1, 2]
    assert tr.slot_of(np.int64(7), 3) == 1
    # Non-int pids map via CRC of their string form — identical across
    # processes (unlike hash()), and always in range.
    assert tr.slot_of("part-a", 4) == tr.slot_of("part-a", 4)
    assert 0 <= tr.slot_of("part-a", 4) < 4
    with pytest.raises(ValueError):
        tr.slot_of(0, 0)


def test_static_placement_groups_tasks_by_pid():
    placement = tr.StaticPlacement(2)
    tasks = [(pid, "state", "msgs", "rec") for pid in range(5)]
    groups = placement.group(tasks)
    assert sorted(groups) == [0, 1]
    assert [t[0] for t in groups[0]] == [0, 2, 4]
    assert [t[0] for t in groups[1]] == [1, 3]
