"""Tests for Alg. 2's merge tree (greedy matching over the meta-graph)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.merge_tree import build_merge_tree
from repro.graph.metagraph import MetaGraph, build_metagraph
from repro.graph.partition import PartitionedGraph


def test_fig2_merge_tree(fig1):
    """The paper's Fig. 2: P3-P4 merge first (heaviest), then P1-P2, then the
    two parents; parent is the larger id."""
    g, part = fig1
    tree = build_merge_tree(build_metagraph(PartitionedGraph(g, part)))
    l0 = {(m.child, m.parent) for m in tree.levels[0]}
    assert l0 == {(2, 3), (0, 1)}
    l1 = {(m.child, m.parent) for m in tree.levels[1]}
    assert l1 == {(1, 3)}
    assert tree.root == 3
    assert tree.n_levels == 3  # Phase-1 supersteps for 4 partitions


def test_single_partition_tree():
    tree = build_merge_tree(MetaGraph([0], {}))
    assert tree.levels == []
    assert tree.root == 0
    assert tree.n_levels == 1


def test_greedy_prefers_heavy_edges():
    mg = MetaGraph([0, 1, 2, 3], {(0, 1): 10, (1, 2): 9, (2, 3): 8, (0, 3): 1})
    tree = build_merge_tree(mg)
    picked = {(m.child, m.parent) for m in tree.levels[0]}
    # (0,1) first, then (2,3); (1,2) conflicts with both.
    assert picked == {(0, 1), (2, 3)}
    assert {m.weight for m in tree.levels[0]} == {10, 8}


def test_odd_partition_count_skips_one():
    mg = MetaGraph([0, 1, 2], {(0, 1): 5, (1, 2): 3, (0, 2): 1})
    tree = build_merge_tree(mg)
    assert len(tree.levels[0]) == 1
    assert len(tree.levels) == 2  # 3 -> 2 -> 1
    assert tree.n_levels == 3  # matches the paper's "3 supersteps for 3 parts"


def test_disconnected_metagraph_forced_pairs():
    mg = MetaGraph([0, 1, 2, 3], {})
    tree = build_merge_tree(mg)
    assert tree.root == 3 or tree.root in (1, 2, 3)
    # Tree closes despite zero weights.
    alive = tree.alive_at(len(tree.levels))
    assert len(alive) == 1


def test_heights_match_log2():
    for n in (2, 3, 4, 8, 16, 31):
        mg = MetaGraph(list(range(n)), {(i, j): 1 for i in range(n) for j in range(i + 1, n)})
        tree = build_merge_tree(mg)
        assert tree.n_levels == int(np.ceil(np.log2(n))) + 1


def test_alive_at_and_parents_at():
    mg = MetaGraph([0, 1, 2, 3], {(0, 1): 2, (2, 3): 2, (1, 3): 1})
    tree = build_merge_tree(mg)
    assert tree.alive_at(0) == [0, 1, 2, 3]
    assert tree.alive_at(1) == [1, 3]
    assert tree.alive_at(2) == [3]
    assert tree.parents_at(0) == {0: 1, 2: 3}
    assert tree.parents_at(99) == {}


def test_merge_level_of():
    mg = MetaGraph([0, 1, 2, 3], {(0, 1): 9, (2, 3): 8, (1, 3): 1})
    tree = build_merge_tree(mg)
    assert tree.merge_level_of(0, 1) == 0
    assert tree.merge_level_of(2, 3) == 0
    assert tree.merge_level_of(0, 2) == 1
    assert tree.merge_level_of(1, 2) == 1
    assert tree.merge_level_of(0, 0) == 0  # same partition: level 0 trivially
    # The leaf-pair table the placement reads agrees pair by pair.
    assert tree.merge_levels().tolist() == [
        [tree.merge_level_of(i, j) for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError):
        tree.merge_level_of(0, 99)


def test_random_policy_valid_tree():
    mg = MetaGraph(list(range(6)), {(i, j): i + j for i in range(6) for j in range(i + 1, 6)})
    for seed in range(3):
        tree = build_merge_tree(mg, policy="random", seed=seed)
        assert len(tree.alive_at(len(tree.levels))) == 1


def test_unknown_policy_raises():
    with pytest.raises(ValueError):
        build_merge_tree(MetaGraph([0, 1], {(0, 1): 1}), policy="optimal")


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 20), st.integers(0, 100))
def test_property_tree_is_a_matching_per_level(n, seed):
    rng = np.random.default_rng(seed)
    weights = {
        (i, j): int(rng.integers(1, 50))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    }
    tree = build_merge_tree(MetaGraph(list(range(n)), weights))
    seen_total: set[int] = set()
    for level in tree.levels:
        touched: set[int] = set()
        for m in level:
            assert m.child < m.parent  # parent = larger id
            assert m.child not in touched and m.parent not in touched
            touched.update((m.child, m.parent))
            assert m.child not in seen_total  # a child never reappears
            seen_total.add(m.child)
    assert len(tree.alive_at(len(tree.levels))) == 1
    assert tree.n_levels >= int(np.ceil(np.log2(n))) + 1
