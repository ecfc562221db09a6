"""Cooperative cancellation at pipeline safe points, on every backend.

The load-bearing matrix: a token that trips itself after a fixed number of
checks proves run_pipeline stops **mid-run at a superstep boundary** — not
just at the start — deterministically, under the serial, thread and
process backends and the shared thread pool. Deadline (timeout) tokens
ride the same checks.
"""

import time

import pytest

from repro.bsp.executors import SharedPool
from repro.errors import RunCancelledError
from repro.generate.synthetic import grid_city
from repro.pipeline import CancelToken, RunConfig, run_pipeline
from repro.scenarios import run_scenario


class TripAfter(CancelToken):
    """Cancels itself at the N-th check — a deterministic mid-run cancel."""

    def __init__(self, n_checks: int, timeout_seconds=None):
        super().__init__(timeout_seconds)
        self.n_checks = n_checks
        self.seen: list[str] = []

    def check(self, where: str = "") -> None:
        self.seen.append(where)
        if len(self.seen) >= self.n_checks:
            self.cancel()
        super().check(where)


# The second field is the shared pool's worker count (0: no shared pool).
BACKENDS = [
    pytest.param({"executor": "serial"}, 0, id="serial"),
    pytest.param({"executor": "thread", "workers": 2}, 0, id="thread"),
    pytest.param({"executor": "process", "workers": 2}, 0, id="process"),
    pytest.param({}, 2, id="shared-thread-pool"),
]


@pytest.mark.parametrize("cfg_kwargs,pool_workers", BACKENDS)
def test_cancel_at_superstep_boundary_every_backend(grid8, cfg_kwargs,
                                                    pool_workers):
    # Trip at the 3rd check: pipeline start, superstep 0, *superstep 1* —
    # squarely mid-run, after real work has been committed.
    token = TripAfter(3)
    pool = SharedPool(pool_workers) if pool_workers else None
    try:
        config = RunConfig(n_parts=4, cancel=token, pool=pool, **cfg_kwargs)
        with pytest.raises(RunCancelledError) as exc:
            run_pipeline(grid8, config)
    finally:
        if pool is not None:
            pool.close()
    assert exc.value.reason == "cancel"
    assert exc.value.where == "superstep boundary"
    assert token.seen == ["pipeline start", "superstep boundary",
                          "superstep boundary"]


def test_pre_cancelled_token_stops_before_any_work(grid8):
    token = CancelToken()
    token.cancel()
    with pytest.raises(RunCancelledError) as exc:
        run_pipeline(grid8, RunConfig(n_parts=4, cancel=token))
    assert exc.value.where == "pipeline start"


def test_deadline_rides_the_same_checks(grid8):
    token = CancelToken(timeout_seconds=0.001)
    time.sleep(0.01)
    with pytest.raises(RunCancelledError) as exc:
        run_pipeline(grid8, RunConfig(n_parts=4, cancel=token))
    assert exc.value.reason == "timeout"
    assert "deadline exceeded" in str(exc.value)


def test_arm_restarts_the_deadline_clock():
    token = CancelToken(timeout_seconds=30.0)
    assert not token.expired
    token._deadline = time.monotonic() - 1.0  # simulate an elapsed budget
    assert token.expired and token.should_stop
    token.arm()
    assert not token.expired

    with pytest.raises(ValueError):
        CancelToken(timeout_seconds=0.0)


def test_explicit_cancel_wins_over_expired_deadline():
    token = CancelToken(timeout_seconds=0.001)
    time.sleep(0.01)
    token.cancel()
    with pytest.raises(RunCancelledError) as exc:
        token.check("tie-break")
    assert exc.value.reason == "cancel"  # DELETE lands on CANCELLED, not FAILED


def test_scenario_layer_checks_between_sub_runs():
    # components: one sub-run per component; cancel after the first
    # sub-run boundary check fires inside _run_batch.
    from repro.generate.synthetic import random_eulerian
    from repro.graph.graph import Graph
    import numpy as np

    a, b = grid_city(4, 4), random_eulerian(20, 3, 8, seed=1)
    u = np.concatenate([a.edge_u, b.edge_u + a.n_vertices])
    v = np.concatenate([a.edge_v, b.edge_v + a.n_vertices])
    both = Graph(a.n_vertices + b.n_vertices, u, v)

    # Checks 1-2 are "after reduce" and the first "sub-run boundary";
    # tripping at the 5th lands inside/between sub-runs, proving the
    # scenario layer threads the token into its batch loop.
    token = TripAfter(5)
    with pytest.raises(RunCancelledError):
        run_scenario(both, "components", RunConfig(n_parts=4, cancel=token))
    assert token.seen[0] == "after reduce"
    assert token.seen.count("sub-run boundary") >= 1


def test_process_fanout_polls_the_token_and_matches_plain_runs():
    """components fan-out: tokens are stripped from shipped configs, the
    parent polls between futures, and results stay bit-identical."""
    from repro.generate.synthetic import random_eulerian
    from repro.graph.graph import Graph
    import numpy as np

    a, b = grid_city(4, 4), random_eulerian(20, 3, 8, seed=1)
    u = np.concatenate([a.edge_u, b.edge_u + a.n_vertices])
    v = np.concatenate([a.edge_v, b.edge_v + a.n_vertices])
    both = Graph(a.n_vertices + b.n_vertices, u, v)

    plain = run_scenario(both, "components", RunConfig(n_parts=4))
    tracked = run_scenario(
        both, "components",
        RunConfig(n_parts=4, executor="process", workers=2,
                  cancel=CancelToken(timeout_seconds=600)),
    )
    assert len(plain.circuits) == len(tracked.circuits)
    for p, t in zip(plain.circuits, tracked.circuits):
        assert np.array_equal(p.vertices, t.vertices)

    pre = CancelToken()
    pre.cancel()
    with pytest.raises(RunCancelledError):
        run_scenario(both, "components",
                     RunConfig(n_parts=4, executor="process", workers=2,
                               cancel=pre))


def test_completed_run_with_token_is_unchanged(grid8):
    plain = run_pipeline(grid8, RunConfig(n_parts=4))
    token = CancelToken(timeout_seconds=600)
    tracked = run_pipeline(grid8, RunConfig(n_parts=4, cancel=token))
    import numpy as np

    assert np.array_equal(plain.circuit.vertices, tracked.circuit.vertices)
    assert np.array_equal(plain.circuit.edge_ids, tracked.circuit.edge_ids)
