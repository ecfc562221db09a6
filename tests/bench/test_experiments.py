"""Smoke tests for the experiment functions on the *smallest* workload.

The real reproductions run in ``benchmarks/``; here we only check that each
experiment function returns the documented structure (fast configs).
"""

import pytest

from repro.bench.experiments import (
    baselines_experiment,
    fig4_degree_distribution,
    fig7_phase1_complexity,
    fig8_memory_state,
    run_workload,
)


@pytest.fixture(scope="module")
def small_run():
    return run_workload("G20k/P2")


def test_run_workload_memoizes(small_run):
    again = run_workload("G20k/P2")
    assert again is small_run


def test_run_workload_verifies_circuit(small_run):
    g, _ = __import__("repro.bench.workloads", fromlist=["load_workload"]).load_workload("G20k/P2")
    assert small_run.circuit.n_edges == g.n_edges


def test_fig4_structure():
    out = fig4_degree_distribution(scale=10, do_print=False)
    assert out["n_odd_after"] == 0
    assert out["n_odd_before"] > 0
    assert 0 < out["extra_edge_fraction"] < 0.2
    assert out["rows"]


def test_fig7_structure():
    # A P8 run gives 15 Phase-1 points (8 leaves + 4 + 2 + 1) of up to
    # ~50 ms: one ~20 ms scheduler stall cannot sink the fit, as it can
    # with a P2 run's 3 points of a few ms each.
    out = fig7_phase1_complexity(names=("G50k/P8",), do_print=False)
    g = out["graphs"]["G50k/P8"]
    assert len(g["points"]) >= 8
    assert g["pearson_r"] > 0.5  # linear relationship
    assert g["slope_sec_per_unit"] > 0


def test_fig8_structure():
    out = fig8_memory_state("G20k/P2", do_print=False)
    assert out["rows"][0]["level"] == 0
    # dedup+deferred must bite; G20k/P2 has only a 23% cut so the saving is
    # modest here (the P8 workloads in benchmarks/ show the paper-scale drop).
    assert out["level0_cumulative_drop"] > 0.08


def test_baselines_rows():
    rows = baselines_experiment(n_vertices=60, do_print=False)
    assert len(rows) == 6  # Hierholzer, Fleury, 2x Makki, cycle-hook, ours
    makki = next(r for r in rows if "Makki" in r["Algorithm"])
    ours = next(r for r in rows if "ours" in r["Algorithm"])
    assert any("Cycle-hook" in r["Algorithm"] for r in rows)
    assert makki["Supersteps"] > 10 * ours["Supersteps"]
