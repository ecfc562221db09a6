"""Chinese Postman routes: closed covering walks on non-Eulerian graphs.

The paper's stated future work (§6): *"We will also consider generalizing
this to non Eulerian graphs, by allowing edge revisits."* Reduction:
eulerize by duplicating a shortest path between each pair of greedily
matched odd-degree vertices (each duplicated edge is one *revisit*, a.k.a.
deadheading) — exact CPP needs minimum-weight perfect matching (O(|V|^3));
greedy nearest-neighbour on BFS distances is a ~2-approximation adequate
for route planning. Postprocess: map duplicate edge ids back to the
originals (:func:`map_edge_ids`) and report the deadhead fraction.
"""

from __future__ import annotations

import numpy as np

from ..core.circuit import EulerCircuit, check_step_incidence
from ..errors import DisconnectedGraphError, InvalidCircuitError
from ..graph.graph import Graph
from ..graph.properties import n_edge_components, odd_vertices
# ``shortest_path`` stays importable from here: benchmarks/e2e/tracing.py
# wraps this module's BFS names.
from ..graph.traversal import bfs_distances, shortest_path, tree_path  # noqa: F401
from ..pipeline import RunConfig, RunContext
from .base import Scenario, SubProblem, register_scenario

__all__ = [
    "PostmanScenario",
    "eulerize_plan",
    "greedy_odd_matching",
    "map_edge_ids",
    "verify_covering_walk",
]


def greedy_odd_matching(
    graph: Graph, odd: np.ndarray
) -> list[tuple[list[int], list[int]]]:
    """Nearest-neighbour pairing of odd vertices, one shortest path per pair.

    Each still-unmatched odd vertex, in ``odd`` order, pairs with the
    nearest unmatched one (ties to the earliest in ``odd`` order). One BFS
    per pair finds it: the search stops at the first level holding an
    unmatched odd vertex, and the path is read off that BFS's parents
    (:func:`~repro.graph.traversal.bfs_tree`'s). Returns the paths as
    ``(vertices, edge_ids)`` in matching order; a pair is a path's
    endpoints.
    """
    odd = np.asarray(odd, dtype=np.int64)
    unmatched = np.zeros(graph.n_vertices, dtype=bool)
    unmatched[odd] = True
    paths: list[tuple[list[int], list[int]]] = []
    for a in odd.tolist():
        if not unmatched[a]:
            continue
        unmatched[a] = False
        dist, parent, parent_edge = bfs_distances(
            graph, a, stop=unmatched, return_parents=True
        )
        reached = odd[unmatched[odd] & (dist[odd] >= 0)]
        if reached.size == 0:
            raise DisconnectedGraphError(
                f"odd vertex {a} cannot reach any other odd vertex",
                num_components=n_edge_components(graph),
            )
        b = int(reached[0])
        unmatched[b] = False
        paths.append(tree_path(parent, parent_edge, b))
    return paths


def map_edge_ids(
    edge_ids: np.ndarray, n_edges: int, dup_orig: np.ndarray
) -> tuple[np.ndarray, int]:
    """Map augmented-graph edge ids back to the original graph's.

    Ids ``>= n_edges`` are duplicates; duplicate ``i`` revisits original
    edge ``dup_orig[i]`` (several duplicates may share one original — e.g.
    overlapping duplicated shortest paths). Returns the mapped id array and
    the revisit count.
    """
    mapped = np.asarray(edge_ids, dtype=np.int64).copy()
    dup_mask = mapped >= n_edges
    n_revisits = int(dup_mask.sum())
    if n_revisits:
        orig = np.asarray(dup_orig, dtype=np.int64)
        mapped[dup_mask] = orig[mapped[dup_mask] - n_edges]
    return mapped, n_revisits


def verify_covering_walk(graph: Graph, walk: EulerCircuit) -> None:
    """Check a closed covering walk: every edge >= once, incident, closed."""
    if graph.n_edges == 0:
        return
    counts = np.bincount(walk.edge_ids, minlength=graph.n_edges)
    if not bool((counts >= 1).all()):
        missing = np.flatnonzero(counts == 0)[:8].tolist()
        raise InvalidCircuitError(f"covering walk misses edges {missing}")
    check_step_incidence(graph, walk.vertices, walk.edge_ids)
    if not walk.is_closed:
        raise InvalidCircuitError("covering walk is not closed")


def eulerize_plan(graph: Graph) -> dict:
    """The postman reduction's expensive part, as a cacheable plan.

    Matches odd vertices greedily and lays duplicate edges along shortest
    paths; the result is three flat arrays plus the graph shape they were
    computed for, so a catalog can persist the plan keyed by graph content
    and :meth:`PostmanScenario.reduce` can validate it before reuse. The
    computation is deterministic, so a cached plan is bit-identical to a
    fresh one.
    """
    odd = odd_vertices(graph)
    dup_u: list[int] = []
    dup_v: list[int] = []
    dup_orig: list[int] = []  # original eid each duplicate revisits
    for verts, eids in greedy_odd_matching(graph, odd):
        dup_u += verts[:-1]
        dup_v += verts[1:]
        dup_orig += eids
    return {
        "dup_u": np.asarray(dup_u, dtype=np.int64),
        "dup_v": np.asarray(dup_v, dtype=np.int64),
        "dup_orig": np.asarray(dup_orig, dtype=np.int64),
        "n_odd_vertices": int(odd.size),
        "n_vertices": graph.n_vertices,
        "n_edges": graph.n_edges,
    }


def _cached_plan(graph: Graph, config: RunConfig) -> dict | None:
    """A catalog-provided eulerization plan, iff it matches this graph."""
    derived = config.derived
    if not isinstance(derived, dict):
        return None
    plan = derived.get("eulerize_plan")
    if not isinstance(plan, dict):
        return None
    if (
        int(plan.get("n_vertices", -1)) != graph.n_vertices
        or int(plan.get("n_edges", -1)) != graph.n_edges
        or "dup_u" not in plan
        or "dup_v" not in plan
        or "dup_orig" not in plan
    ):
        return None
    return plan


class PostmanScenario(Scenario):
    """Closed walk covering every edge at least once, revisits minimized."""

    name = "postman"

    def reduce(self, graph: Graph, config: RunConfig) -> list[SubProblem]:
        if graph.n_edges == 0:
            return []
        if n_edge_components(graph) > 1:
            raise DisconnectedGraphError(
                "postman route requires edges in a single component "
                "(use the 'components' scenario to cover each separately)",
                num_components=n_edge_components(graph),
            )
        plan = _cached_plan(graph, config)
        if plan is None:
            plan = eulerize_plan(graph)
        augmented = graph.with_extra_edges(plan["dup_u"], plan["dup_v"])
        return [
            SubProblem(
                key="eulerized",
                graph=augmented,
                n_parts=config.n_parts,
                meta={
                    "dup_orig": np.asarray(plan["dup_orig"], dtype=np.int64),
                    "n_odd_vertices": int(plan["n_odd_vertices"]),
                },
            )
        ]

    def postprocess(
        self,
        graph: Graph,
        config: RunConfig,
        subs: list[SubProblem],
        contexts: list[RunContext],
    ) -> tuple[list[EulerCircuit], dict]:
        if not subs:  # edgeless graph: the empty walk covers everything
            empty = EulerCircuit(
                vertices=np.empty(0, dtype=np.int64),
                edge_ids=np.empty(0, dtype=np.int64),
            )
            return [empty], {
                "n_revisits": 0,
                "deadhead_fraction": 0.0,
                "n_odd_vertices": 0,
            }
        circ = contexts[0].circuit
        mapped, n_revisits = map_edge_ids(
            circ.edge_ids, graph.n_edges, subs[0].meta["dup_orig"]
        )
        walk = EulerCircuit(vertices=circ.vertices, edge_ids=mapped)
        if config.verify:
            # The pipeline verified the eulerized circuit; this checks the
            # id mapping produced a covering walk of the original graph.
            verify_covering_walk(graph, walk)
        return [walk], {
            "n_revisits": n_revisits,
            "deadhead_fraction": n_revisits / graph.n_edges,
            "n_odd_vertices": subs[0].meta["n_odd_vertices"],
        }


register_scenario(PostmanScenario())
