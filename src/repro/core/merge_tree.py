"""Phase 2 planning (Alg. 2): the static merge tree over the meta-graph.

Built once, up front, on one machine, from the (small) meta-graph: at every
level a *maximal matching* pairs up partitions, preferring pairs with many
edges between them ("greedy strategy ... prioritizes partitions with high
meta-edge weight", §3.2) so the next Phase-1 run can consume as many
newly-local edges as possible. The pair's parent is the member with the
larger partition id, per the paper's example. Unmatched partitions (odd
count, or isolated meta-vertices in disconnected graphs) carry over to the
next level; if a level produces no matches at all while several partitions
remain (fully disconnected meta-graph) we force weight-0 pairings so the
tree always terminates with a single root.

The ``policy`` knob ("greedy" vs "random") exists for the matching ablation
benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..graph.metagraph import MetaGraph

__all__ = ["Merge", "MergeTree", "build_merge_tree"]


@dataclass(frozen=True)
class Merge:
    """One pairwise merge: ``child`` is absorbed into ``parent`` at ``level``."""

    level: int
    child: int
    parent: int
    #: Meta-edge weight between the two groups when matched (diagnostics).
    weight: int


@dataclass
class MergeTree:
    """The full merge plan.

    ``levels[l]`` holds the merges that happen *after* Phase 1 ran at level
    ``l``, producing the partitions of level ``l+1``. The number of Phase-1
    supersteps is therefore ``len(levels) + 1`` — the paper's
    ``ceil(log2 n) + 1`` coordination cost for ``n`` initial partitions.
    """

    n_parts: int
    levels: list[list[Merge]] = field(default_factory=list)

    @property
    def n_levels(self) -> int:
        """Number of Phase-1 levels (= supersteps), ``len(levels) + 1``."""
        return len(self.levels) + 1

    @property
    def root(self) -> int:
        """The single surviving partition id."""
        alive = set(range(self.n_parts))
        for level in self.levels:
            for m in level:
                alive.discard(m.child)
        assert len(alive) == 1, "merge tree must end with one root"
        return next(iter(alive))

    def parents_at(self, level: int) -> dict[int, int]:
        """child -> parent map for merges at ``level`` (empty past the end)."""
        if level >= len(self.levels):
            return {}
        return {m.child: m.parent for m in self.levels[level]}

    def alive_at(self, level: int) -> list[int]:
        """Partition ids that exist when Phase 1 runs at ``level``."""
        alive = set(range(self.n_parts))
        for l in range(min(level, len(self.levels))):
            for m in self.levels[l]:
                alive.discard(m.child)
        return sorted(alive)

    def merge_level_of(self, i: int, j: int) -> int:
        """The level at whose *end* partitions ``i`` and ``j``'s groups merge.

        Remote edges between the groups become local before Phase 1 at
        ``merge_level_of(i, j) + 1``. Returns ``len(levels)`` if they never
        merge (only possible for ids outside the tree).
        """
        group = {p: p for p in range(self.n_parts)}
        if group.get(i) is None or group.get(j) is None:
            raise ValueError("partition id out of range")
        gi, gj = i, j
        for l, level in enumerate(self.levels):
            remap = {m.child: m.parent for m in level}
            gi = remap.get(gi, gi)
            gj = remap.get(gj, gj)
            if gi == gj:
                return l
        return len(self.levels)

    def merge_levels(self, dtype=np.int64) -> np.ndarray:
        """:meth:`merge_level_of` for every pair of leaves, as one
        ``(n_parts, n_parts)`` table: a per-edge lookup is then one
        fancy index by the endpoints' partitions."""
        never = len(self.levels)
        group = np.arange(self.n_parts)
        table = np.full((self.n_parts, self.n_parts), never, dtype=dtype)
        for l, level in enumerate(self.levels):
            for m in level:
                group[group == m.child] = m.parent
            table[(group[:, None] == group) & (table == never)] = l
        return table


def _greedy_matching(mg: MetaGraph) -> list[tuple[int, int, int]]:
    """Max-weight-first maximal matching; returns ``(i, j, weight)`` picks."""
    used: set[int] = set()
    picks: list[tuple[int, int, int]] = []
    for w, i, j in mg.edges_sorted():
        if i in used or j in used:
            continue
        used.add(i)
        used.add(j)
        picks.append((i, j, w))
    return picks


def _random_matching(mg: MetaGraph, rng: random.Random) -> list[tuple[int, int, int]]:
    """Uniformly random maximal matching (ablation baseline)."""
    edges = [(i, j, w) for (i, j), w in mg.weights.items()]
    rng.shuffle(edges)
    used: set[int] = set()
    picks: list[tuple[int, int, int]] = []
    for i, j, w in edges:
        if i in used or j in used:
            continue
        used.add(i)
        used.add(j)
        picks.append((i, j, w))
    return picks


def build_merge_tree(
    mg: MetaGraph, policy: str = "greedy", seed: int = 0
) -> MergeTree:
    """Run Alg. 2 on the level-0 meta-graph.

    Parameters
    ----------
    mg:
        Meta-graph of the initial partitioned graph.
    policy:
        ``"greedy"`` (paper) or ``"random"`` (ablation).
    seed:
        Seed for the random policy.
    """
    if policy not in ("greedy", "random"):
        raise ValueError(f"unknown matching policy {policy!r}")
    rng = random.Random(seed)
    tree = MergeTree(n_parts=len(mg.vertices))
    cur = mg
    level = 0
    while len(cur.vertices) > 1:
        picks = (
            _greedy_matching(cur) if policy == "greedy" else _random_matching(cur, rng)
        )
        matched = {v for i, j, _ in picks for v in (i, j)}
        leftovers = [v for v in cur.vertices if v not in matched]
        # Alg. 2's matching covers *all* meta-vertices (the paper builds a
        # full binary tree, height ceil(log2 n)+1): pair any leftover
        # vertices with weight-0 merges; at most one vertex (odd count)
        # carries over to the next level.
        for k in range(0, len(leftovers) - 1, 2):
            picks.append((leftovers[k], leftovers[k + 1], 0))
        merges = []
        parent_of: dict[int, int] = {}
        for i, j, w in picks:
            child, parent = (i, j) if i < j else (j, i)  # parent = larger id
            merges.append(Merge(level=level, child=child, parent=parent, weight=w))
            parent_of[child] = parent
        tree.levels.append(merges)
        cur = cur.merged([(m.child, m.parent) for m in merges], parent_of)
        level += 1
    return tree
