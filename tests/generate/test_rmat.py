"""Tests for the R-MAT generator."""

import numpy as np
import pytest

from repro.generate import rmat
from repro.generate.rmat import RMAT_DEFAULTS, rmat_graph


def test_vertex_count_is_power_of_two():
    g = rmat_graph(8, seed=0)
    assert g.n_vertices == 256


def test_scale_zero_and_empty():
    g = rmat_graph(0, seed=0)
    assert g.n_vertices == 1 and g.n_edges == 0


def test_deterministic_given_seed():
    a = rmat_graph(10, seed=5)
    b = rmat_graph(10, seed=5)
    assert a == b


def test_different_seeds_differ():
    a = rmat_graph(10, seed=1)
    b = rmat_graph(10, seed=2)
    assert a != b


def test_no_self_loops_by_default():
    g = rmat_graph(10, seed=3)
    assert not np.any(np.asarray(g.edge_u) == np.asarray(g.edge_v))


def test_dedup_yields_simple_graph():
    g = rmat_graph(9, avg_degree=8, seed=4)
    lo = np.minimum(g.edge_u, g.edge_v)
    hi = np.maximum(g.edge_u, g.edge_v)
    codes = lo * g.n_vertices + hi
    assert np.unique(codes).size == codes.size


def test_no_dedup_keeps_duplicates_possible():
    g = rmat_graph(6, avg_degree=20, seed=4, dedup=False)
    g2 = rmat_graph(6, avg_degree=20, seed=4, dedup=True)
    assert g.n_edges >= g2.n_edges


def test_avg_degree_close_to_target():
    g = rmat_graph(12, avg_degree=6.0, seed=0, dedup=False, drop_self_loops=False)
    realized = 2 * g.n_edges / g.n_vertices
    assert realized == pytest.approx(6.0, rel=0.01)


def test_skew_produces_heavy_tail():
    """With the default skewed probabilities, max degree far exceeds the mean
    (power-law-ish); with uniform probabilities it does not."""
    skewed = rmat_graph(12, avg_degree=8, seed=0)
    uniform = rmat_graph(12, avg_degree=8, seed=0, probs=(0.25, 0.25, 0.25, 0.25))
    mean_s = skewed.degrees().mean()
    mean_u = uniform.degrees().mean()
    assert skewed.degrees().max() > 8 * mean_s
    assert uniform.degrees().max() < 6 * mean_u


def test_bad_probs_raise():
    with pytest.raises(ValueError):
        rmat_graph(5, probs=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        rmat_graph(-1)
    with pytest.raises(ValueError, match="non-negative"):
        rmat_graph(5, probs=(0.7, -0.1, 0.2, 0.2))
    with pytest.raises(ValueError, match="avg_degree"):
        rmat_graph(5, avg_degree=-1.0)


def test_generator_instance_accepted():
    rng = np.random.default_rng(9)
    g = rmat_graph(8, seed=rng)
    assert g.n_edges > 0


@pytest.mark.parametrize("block_draws", [1, 7, 100])
def test_block_size_does_not_change_the_output(monkeypatch, block_draws):
    """Many small blocks read the stream as one block does, and leave a
    caller's generator at the same position."""
    def draw():
        rng = np.random.default_rng(3)
        graphs = [rmat_graph(scale, 6.0, seed=rng) for scale in range(1, 10)]
        return graphs, rng.random()
    want = draw()
    monkeypatch.setattr(rmat, "_BLOCK_DRAWS", block_draws)
    assert draw() == want
