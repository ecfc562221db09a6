"""Deterministic fault injection: plan grammar, arming, safe-point firing.

The harness is only useful if it is *predictable*: a plan must fire at
exactly the configured boundary, stop firing once the attempt index passes
its ``attempts`` bound, and never change the result of a run that
completes. These tests pin that contract at the unit level (the plan
itself) and through the pipeline (faults ride ``RunConfig.faults`` into
the superstep-boundary checkpoint).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import FaultInjectedError, TransientJobError
from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.generate.synthetic import random_eulerian
from repro.pipeline import RunConfig, run_pipeline


# ---------------------------------------------------------------------------
# Spec / grammar
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("meteor")
    with pytest.raises(ValueError):
        FaultSpec("fail", at=-1)
    with pytest.raises(ValueError):
        FaultSpec("fail", attempts=0)
    with pytest.raises(ValueError):
        FaultSpec("slow", delay=-0.1)


def test_parse_grammar_round_trips():
    plan = FaultPlan.parse("worker_kill@at=2;fail@at=0,attempts=3;"
                           "slow@at=1,delay=0.25;delta_apply@")
    kinds = [s.kind for s in plan.specs]
    assert kinds == ["worker_kill", "fail", "slow", "delta_apply"]
    assert plan.specs[0].at == 2
    assert plan.specs[1].attempts == 3
    assert plan.specs[2].delay == 0.25
    assert set(kinds) <= set(FAULT_KINDS)
    with pytest.raises(ValueError, match="unknown fault arg"):
        FaultPlan.parse("fail@when=now")


def test_from_env_reads_repro_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert FaultPlan.from_env() is None
    monkeypatch.setenv("REPRO_FAULTS", "fail@at=1")
    plan = FaultPlan.from_env()
    assert plan is not None and plan.specs[0].at == 1


# ---------------------------------------------------------------------------
# Attempt arming — the bit-parity enabler
# ---------------------------------------------------------------------------


def test_for_attempt_disarms_after_budget():
    plan = FaultPlan.parse("fail@at=0;slow@at=1,attempts=2,delay=0.01")
    first = plan.for_attempt(0)
    assert [s.kind for s in first.specs] == ["fail", "slow"]
    second = plan.for_attempt(1)
    assert [s.kind for s in second.specs] == ["slow"]  # fail spent its attempt
    assert plan.for_attempt(2) is None  # fully disarmed => no plan at all


def test_superstep_fires_at_exact_boundary():
    plan = FaultPlan.parse("fail@at=2")
    plan.superstep()  # boundary 0
    plan.superstep()  # boundary 1
    with pytest.raises(FaultInjectedError):
        plan.superstep()  # boundary 2 — fires
    assert isinstance(FaultInjectedError("x"), TransientJobError)


def test_pickle_resets_boundary_counter():
    plan = FaultPlan.parse("fail@at=1")
    plan.superstep()  # advance to boundary 1
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.specs == plan.specs
    clone.superstep()  # boundary 0 in the clone — must NOT fire
    with pytest.raises(FaultInjectedError):
        clone.superstep()


def test_worker_kill_raises_in_process(monkeypatch):
    # Outside a marked dispatcher worker the kill degrades to a raise —
    # SIGKILLing the test process is not an option.
    monkeypatch.delenv("REPRO_FAULT_WORKER", raising=False)
    plan = FaultPlan.parse("worker_kill@at=0")
    with pytest.raises(FaultInjectedError, match="worker kill"):
        plan.superstep()


def test_host_kill_parses_and_raises_in_process(monkeypatch):
    # host_kill only SIGKILLs inside a dedicated `repro-euler worker`
    # process (REPRO_FAULT_HOST marker); everywhere else — including an
    # in-process WorkerHost in a test — it degrades to a transient raise.
    monkeypatch.delenv("REPRO_FAULT_HOST", raising=False)
    plan = FaultPlan.parse("host_kill@at=1,attempts=2")
    assert plan.specs[0].kind == "host_kill"
    assert "host_kill" in FAULT_KINDS
    plan.superstep()  # boundary 0 — not yet
    with pytest.raises(FaultInjectedError, match="host kill"):
        plan.superstep()


def test_host_kill_ignores_worker_marker(monkeypatch):
    # The worker marker must NOT arm host kills: a forked dispatcher
    # worker hit by host_kill raises transiently instead of dying.
    monkeypatch.setenv("REPRO_FAULT_WORKER", str(__import__("os").getpid()))
    monkeypatch.delenv("REPRO_FAULT_HOST", raising=False)
    plan = FaultPlan.parse("host_kill@at=0")
    with pytest.raises(FaultInjectedError, match="host kill"):
        plan.superstep()


# ---------------------------------------------------------------------------
# Through the pipeline
# ---------------------------------------------------------------------------


def test_pipeline_fault_aborts_at_safe_point():
    g = random_eulerian(40, 4, 12, seed=1)
    config = RunConfig(n_parts=2, faults=FaultPlan.parse("fail@at=0"))
    with pytest.raises(FaultInjectedError):
        run_pipeline(g, config)


def test_pipeline_slow_fault_never_changes_result():
    g = random_eulerian(40, 4, 12, seed=1)
    clean = run_pipeline(g, RunConfig(n_parts=2))
    slowed = run_pipeline(
        g, RunConfig(n_parts=2, faults=FaultPlan.parse("slow@at=1,delay=0.05"))
    )
    assert np.array_equal(clean.circuit.edge_ids, slowed.circuit.edge_ids)
    assert np.array_equal(clean.circuit.vertices, slowed.circuit.vertices)
