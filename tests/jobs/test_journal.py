"""Job journal: durability format, torn-tail tolerance, prefix idempotence.

The recovery guarantee rests on one property: **replaying any byte prefix
of a journal is well-defined and idempotent** — a crash can truncate the
file mid-record, never corrupt the meaning of what came before. The
hypothesis block pins exactly that, over random event sequences and random
cut points.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.journal import (
    EVENT_STATE,
    TERMINAL_EVENTS,
    JobJournal,
    config_from_dict,
    config_to_dict,
    reduce_records,
)
from repro.pipeline import RunConfig


# ---------------------------------------------------------------------------
# Record format
# ---------------------------------------------------------------------------


def test_append_replay_round_trip(tmp_path):
    j = JobJournal(tmp_path / "journal.wal")
    j.append("submitted", "job-000001", scenario="circuit", priority=3,
             config={"n_parts": 4})
    j.append("started", "job-000001", attempt=0)
    j.append("done", "job-000001")
    j.close()
    records = JobJournal(tmp_path / "journal.wal").replay()
    assert [r["event"] for r in records] == ["submitted", "started", "done"]
    assert records[0]["config"] == {"n_parts": 4}
    assert [r["seq"] for r in records] == [1, 2, 3]


def test_directory_path_uses_conventional_filename(tmp_path):
    j = JobJournal(tmp_path / "jdir")
    j.append("submitted", "job-000001")
    j.close()
    assert (tmp_path / "jdir" / JobJournal.FILENAME).exists()


def test_sequence_continues_after_replay(tmp_path):
    j = JobJournal(tmp_path / "j.wal")
    j.append("submitted", "job-000001")
    j.close()
    j2 = JobJournal(tmp_path / "j.wal")
    j2.replay()
    record = j2.append("started", "job-000001")
    assert record["seq"] == 2
    j2.close()


def test_torn_tail_is_dropped(tmp_path):
    j = JobJournal(tmp_path / "j.wal")
    j.append("submitted", "job-000001")
    j.append("started", "job-000001")
    j.close()
    path = tmp_path / "j.wal"
    data = path.read_bytes()
    path.write_bytes(data[:-7])  # tear the final record mid-line
    records = JobJournal(path).replay()
    assert [r["event"] for r in records] == ["submitted"]


def test_corrupt_record_ends_replay(tmp_path):
    j = JobJournal(tmp_path / "j.wal")
    j.append("submitted", "job-000001")
    j.append("started", "job-000001")
    j.append("done", "job-000001")
    j.close()
    path = tmp_path / "j.wal"
    lines = path.read_bytes().splitlines(keepends=True)
    # Flip a payload byte inside record 2: the CRC no longer matches, so
    # nothing at or after the damage is trusted.
    bad = lines[1].replace(b'"started"', b'"startled"')
    path.write_bytes(lines[0] + bad + lines[2])
    records = JobJournal(path).replay()
    assert [r["event"] for r in records] == ["submitted"]


# ---------------------------------------------------------------------------
# Prefix idempotence (the recovery property)
# ---------------------------------------------------------------------------

_EVENTS = sorted(EVENT_STATE)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_any_prefix_replays_idempotently(tmp_path_factory, data):
    """Replay(prefix) is a prefix of replay(full), and replay is stable."""
    root = tmp_path_factory.mktemp("journal-prop")
    j = JobJournal(root / "j.wal")
    events = data.draw(st.lists(
        st.tuples(st.sampled_from(_EVENTS), st.integers(1, 4)),
        min_size=1, max_size=12,
    ))
    for event, jid in events:
        j.append(event, f"job-{jid:06d}", attempt=0)
    j.close()
    path = root / "j.wal"
    full_bytes = path.read_bytes()
    full = JobJournal(path).replay()
    assert len(full) == len(events)

    # Fixed-bound draw (record bytes include timestamps, so the file length
    # varies between replays of the same example): mod into the file.
    cut = data.draw(st.integers(0, 1 << 20)) % (len(full_bytes) + 1)
    path.write_bytes(full_bytes[:cut])
    first = JobJournal(path).replay()
    second = JobJournal(path).replay()
    # Idempotent: same prefix in, same records out, every time.
    assert first == second
    # Well-defined: a byte-prefix of the file is a record-prefix of the log.
    assert first == full[: len(first)]
    assert len(full) - len(first) <= _records_cut(full_bytes, cut) + 1
    # The reduction (what recovery acts on) is equally stable.
    assert reduce_records(first) == reduce_records(second)


def _records_cut(full_bytes: bytes, cut: int) -> int:
    """How many complete records the cut removed (for the bound above)."""
    return full_bytes[cut:].count(b"\n")


# ---------------------------------------------------------------------------
# Reduction + checkpoint
# ---------------------------------------------------------------------------


def test_reduce_records_tracks_last_event_and_spec(tmp_path):
    j = JobJournal(tmp_path / "j.wal")
    j.append("submitted", "job-000001", scenario="circuit")
    j.append("started", "job-000001", attempt=0)
    j.append("retry", "job-000001", attempt=1, error="worker died")
    j.append("submitted", "job-000002", scenario="path")
    j.append("started", "job-000002", attempt=0)
    j.append("done", "job-000002")
    j.close()
    states = reduce_records(JobJournal(tmp_path / "j.wal").replay())
    assert states["job-000001"]["event"] == "retry"
    assert states["job-000001"]["attempt"] == 1
    assert states["job-000001"]["error"] == "worker died"
    assert states["job-000001"]["spec"]["scenario"] == "circuit"
    assert states["job-000002"]["event"] in TERMINAL_EVENTS


def test_checkpoint_keeps_only_live_jobs(tmp_path):
    j = JobJournal(tmp_path / "j.wal")
    j.append("submitted", "job-000001")
    j.append("started", "job-000001")
    j.append("done", "job-000001")
    j.append("submitted", "job-000002")  # still live
    kept = j.checkpoint()
    assert kept == 1
    records = j.replay()
    assert [r["job_id"] for r in records] == ["job-000002"]
    # The journal still appends (and checksums) correctly after compaction.
    j.append("started", "job-000002")
    j.close()
    records = JobJournal(tmp_path / "j.wal").replay()
    assert [r["event"] for r in records] == ["submitted", "started"]


def test_stats_reports_path_and_size(tmp_path):
    j = JobJournal(tmp_path / "j.wal", fsync=False)
    j.append("submitted", "job-000001")
    stats = j.stats()
    assert stats["appended"] == 1 and stats["bytes"] > 0
    assert stats["fsync"] is False
    j.close()


# ---------------------------------------------------------------------------
# Wire-config round trip (shared by HTTP wire and journal spec)
# ---------------------------------------------------------------------------


def test_config_round_trip_defaults_and_values():
    config = RunConfig(n_parts=8, strategy="deferred", seed=3, verify=True)
    payload = json.loads(json.dumps(config_to_dict(config)))
    assert config_from_dict(payload) == config
    # None-valued fields are dropped, so defaults reproduce exactly.
    assert "executor" not in payload and "transport" not in payload
    # A retired field an older journal may hold is accepted and ignored.
    assert config_from_dict({"transport": "shm"}) == RunConfig()


def test_config_from_dict_rejects_junk():
    with pytest.raises(ValueError, match="unknown config field"):
        config_from_dict({"pool": "thread"})
    with pytest.raises(ValueError, match="JSON boolean"):
        config_from_dict({"verify": "false"})
