"""Euler circuit result type and its verifier.

:func:`verify_circuit` is the ground-truth check used by the test suite and
(optionally) the driver: a valid circuit must (1) use every undirected edge
id exactly once, (2) have consecutive edges sharing the intermediate vertex,
and (3) be closed. Since the paper leaves Phase 3 unimplemented, this
verifier is what makes our end-to-end reproduction falsifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidCircuitError
from ..graph.graph import Graph

__all__ = [
    "EulerCircuit",
    "check_step_incidence",
    "edge_coverage",
    "verify_circuit",
]


@dataclass(frozen=True)
class EulerCircuit:
    """An Euler circuit (or path) through a graph.

    Attributes
    ----------
    vertices:
        Vertex sequence ``int64[n_edges + 1]``; ``vertices[0] ==
        vertices[-1]`` for a circuit.
    edge_ids:
        Edge-id sequence ``int64[n_edges]``; ``edge_ids[i]`` joins
        ``vertices[i]`` and ``vertices[i+1]``.
    """

    vertices: np.ndarray
    edge_ids: np.ndarray

    @property
    def n_edges(self) -> int:
        """Number of edges traversed."""
        return int(self.edge_ids.shape[0])

    @property
    def is_closed(self) -> bool:
        """True when the walk returns to its start (a circuit, not a path)."""
        return self.n_edges == 0 or int(self.vertices[0]) == int(self.vertices[-1])

    @property
    def start(self) -> int:
        """First vertex of the walk."""
        return int(self.vertices[0]) if self.vertices.size else -1

    def __len__(self) -> int:
        return self.n_edges

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "circuit" if self.is_closed else "path"
        return f"EulerCircuit({kind}, n_edges={self.n_edges}, start={self.start})"


#: Steps per block of the walk checks: their working memory is a few
#: block-sized temporaries plus one bool per edge, whatever the walk's length.
CHECK_BLOCK = 1 << 16


def _id_blocks(edge_ids: np.ndarray, n_edges: int):
    """Yield ``(start, block)`` over ``edge_ids``, range-checking each block.

    Raises :class:`~repro.errors.InvalidCircuitError` naming the first id
    outside ``[0, n_edges)``: such an id indexes no edge, so no later check
    may index with it.
    """
    for lo in range(0, edge_ids.shape[0], CHECK_BLOCK):
        block = edge_ids[lo:lo + CHECK_BLOCK]
        bad = (block < 0) | (block >= n_edges)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidCircuitError(
                f"step {lo + i}: edge id {int(block[i])} is not an edge of "
                f"the graph (ids 0..{n_edges - 1})"
            )
        yield lo, block


def check_step_incidence(
    graph: Graph, vertices: np.ndarray, edge_ids: np.ndarray
) -> None:
    """Raise unless every walk step's vertex pair matches its edge id.

    The one incidence definition shared by every walk verifier (circuit,
    covering walk, reassembled component): step ``i`` must join
    ``vertices[i]`` and ``vertices[i+1]`` via edge ``edge_ids[i]`` in either
    orientation. Runs in blocks of :data:`CHECK_BLOCK` steps.
    """
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    for lo, block in _id_blocks(edge_ids, graph.n_edges):
        eu = graph.edge_u[block]
        ev = graph.edge_v[block]
        a = vertices[lo:lo + block.shape[0]]
        b = vertices[lo + 1:lo + 1 + block.shape[0]]
        ok = ((a == eu) & (b == ev)) | ((a == ev) & (b == eu))
        if not bool(ok.all()):
            bad = int(np.argmin(ok))
            raise InvalidCircuitError(
                f"step {lo + bad}: edge {int(block[bad])}="
                f"({int(eu[bad])},{int(ev[bad])}) "
                f"does not join vertices {int(a[bad])}->{int(b[bad])}"
            )


def edge_coverage(edge_ids: np.ndarray, n_edges: int) -> np.ndarray:
    """``bool (n_edges,)``: which edges the walk uses, range-checked.

    Built block by block, so the only m-long temporary is the bitmap itself.
    """
    seen = np.zeros(n_edges, dtype=bool)
    for _, block in _id_blocks(edge_ids, n_edges):
        seen[block] = True
    return seen


def verify_circuit(
    graph: Graph, circuit: EulerCircuit, require_closed: bool = True
) -> None:
    """Raise :class:`~repro.errors.InvalidCircuitError` unless valid.

    Checks, vectorized in blocks: edge count equals the graph's, every edge
    id is in range and used exactly once, every step's endpoints match its
    edge id, consecutive incidence, and closure (unless ``require_closed``
    is False, for Euler paths). With exactly ``m`` ids in range, "each used
    once" is "every edge covered", so a bool bitmap decides it; counts are
    taken only to name the duplicated and missing ids of a failing walk.
    """
    m = graph.n_edges
    eids = np.asarray(circuit.edge_ids, dtype=np.int64)
    verts = np.asarray(circuit.vertices, dtype=np.int64)
    if eids.shape[0] != m:
        raise InvalidCircuitError(
            f"circuit has {eids.shape[0]} edges, graph has {m}"
        )
    if m == 0:
        return
    if verts.shape[0] != m + 1:
        raise InvalidCircuitError(
            f"vertex sequence length {verts.shape[0]} != n_edges + 1 ({m + 1})"
        )
    if not edge_coverage(eids, m).all():
        counts = np.bincount(eids, minlength=m)
        dup = np.flatnonzero(counts > 1)[:8].tolist()
        missing = np.flatnonzero(counts == 0)[:8].tolist()
        raise InvalidCircuitError(
            f"edge multiset mismatch: duplicated {dup}, missing {missing}"
        )
    check_step_incidence(graph, verts, eids)
    if require_closed and not circuit.is_closed:
        raise InvalidCircuitError(
            f"walk is not closed: starts at {int(verts[0])}, ends at {int(verts[-1])}"
        )
