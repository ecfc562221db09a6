"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bsp import shm
from repro.generate.synthetic import (
    grid_city,
    paper_figure1_graph,
    random_eulerian,
    ring_of_cliques,
)
from repro.graph.graph import Graph


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    """Every test is audited for new ``/dev/shm/repro_*`` segments.

    Nothing in the package creates a named segment (the forked workers'
    cancel flags and heartbeats live in an anonymous mapping, and graphs
    are read through the catalog's mmap'd NPZ files), so any new one is a
    leak. The audit diffs against whatever pre-existed, so unrelated
    processes on the box cannot false-positive it.
    """
    before = set(shm.leaked_segments())
    yield
    leaked = sorted(set(shm.leaked_segments()) - before)
    assert leaked == [], f"test leaked shm segments: {leaked}"


@pytest.fixture
def fig1():
    """The paper's Fig. 1 graph and its 4-way partition map."""
    return paper_figure1_graph()


@pytest.fixture
def triangle():
    """K3 — the smallest nontrivial Eulerian graph."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def two_triangles():
    """Two triangles sharing vertex 0 (the classic Hierholzer merge case)."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


@pytest.fixture
def grid8():
    """An 8x8 torus grid (4-regular, Eulerian)."""
    return grid_city(8, 8)


@pytest.fixture
def cliques():
    """Ring of 4 odd cliques (Eulerian, community structure)."""
    return ring_of_cliques(4, 5)


@pytest.fixture(params=[0, 1, 2])
def random_eul(request):
    """A few seeded random Eulerian multigraphs."""
    return random_eulerian(60, n_walks=5, walk_len=18, seed=request.param)


# Re-exported for older imports; the canonical home is tests/helpers.py.
from tests.helpers import make_eulerian_suite  # noqa: E402,F401
