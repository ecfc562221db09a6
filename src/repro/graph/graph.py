"""Undirected multigraph with stable integer edge ids.

This is the base substrate every other module builds on. Design points,
driven by the paper (§3.1) and the HPC guides:

* Vertices are dense integers ``0..n-1``; edges are identified by a dense
  integer id equal to their index in the endpoint arrays. Both the Phase-1
  traversal ("mark edge visited") and the §5 remote-edge-deduplication
  improvement need edge *identity*, not just endpoint pairs, and parallel
  edges must be representable — hence a multigraph keyed by edge id.
* Endpoints live in NumPy ``int64`` arrays; adjacency is CSR built once
  (at the graph's index width, see :mod:`repro.graph.csr`) and cached. A
  :class:`Graph` is immutable after construction — mutation happens by
  building a new graph (see :class:`GraphBuilder`), which keeps the CSR
  cache trivially coherent.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from .csr import build_csr, index_dtype

__all__ = ["Graph", "GraphBuilder", "index_dtype"]


class Graph:
    """An immutable undirected multigraph.

    Parameters
    ----------
    n_vertices:
        Number of vertices (ids ``0..n_vertices-1``; isolated vertices are
        allowed and simply have degree 0).
    edge_u, edge_v:
        Endpoint arrays; undirected edge ``i`` joins ``edge_u[i]`` and
        ``edge_v[i]``. The arrays are copied into ``int64`` storage.
    """

    # __weakref__ lets the graph catalog track live references to a graph
    # it may want to evict (an mmap-backed Graph must not lose its NPZ file
    # while a job still reads through the mapping).
    __slots__ = ("_n", "_u", "_v", "_csr", "__weakref__")

    def __init__(self, n_vertices: int, edge_u=(), edge_v=()):
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        self._n = int(n_vertices)
        self._u = np.array(edge_u, dtype=np.int64).reshape(-1)
        self._v = np.array(edge_v, dtype=np.int64).reshape(-1)
        if self._u.shape != self._v.shape:
            raise ValueError("edge_u and edge_v must have equal length")
        if self._u.size and (
            min(self._u.min(), self._v.min()) < 0
            or max(self._u.max(), self._v.max()) >= self._n
        ):
            raise ValueError("edge endpoint out of range")
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs."""
        pairs = list(edges)
        if pairs:
            arr = np.array(pairs, dtype=np.int64)
            return cls(n_vertices, arr[:, 0], arr[:, 1])
        return cls(n_vertices)

    @classmethod
    def from_arrays(cls, n_vertices: int, edge_u, edge_v, check: bool = True) -> "Graph":
        """Wrap existing ``int64`` endpoint arrays **without copying**.

        The zero-copy constructor for memory-mapped storage (the graph
        catalog loads edge arrays with ``load_npz(..., mmap=True)`` and
        hands them straight here). Arrays of any other dtype fall back to
        the copying ``__init__``. ``check=False`` skips the endpoint range
        scan — only for sources that validated the arrays when persisting
        them, since the scan would otherwise page in the whole mapping.
        """
        u = np.asarray(edge_u).reshape(-1)
        v = np.asarray(edge_v).reshape(-1)
        if u.dtype != np.int64 or v.dtype != np.int64:
            return cls(n_vertices, u, v)
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        if u.shape != v.shape:
            raise ValueError("edge_u and edge_v must have equal length")
        if check and u.size and (
            min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_vertices
        ):
            raise ValueError("edge endpoint out of range")
        g = cls.__new__(cls)
        g._n = int(n_vertices)
        g._u = u
        g._v = v
        g._csr = None
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of *undirected* edges (the paper's bi-directed counts are 2x)."""
        return int(self._u.shape[0])

    @property
    def edge_u(self) -> np.ndarray:
        """First-endpoint array (read-only view)."""
        u = self._u.view()
        u.flags.writeable = False
        return u

    @property
    def edge_v(self) -> np.ndarray:
        """Second-endpoint array (read-only view)."""
        v = self._v.view()
        v.flags.writeable = False
        return v

    def endpoints(self, eid: int) -> tuple[int, int]:
        """Return the ``(u, v)`` endpoints of undirected edge ``eid``."""
        return int(self._u[eid]), int(self._v[eid])

    def other_endpoint(self, eid: int, vertex: int) -> int:
        """Return the endpoint of ``eid`` that is not ``vertex``.

        For a self loop both endpoints equal ``vertex`` and ``vertex`` is
        returned.
        """
        u, v = int(self._u[eid]), int(self._v[eid])
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise ValueError(f"vertex {vertex} is not an endpoint of edge {eid}")

    # -- adjacency ---------------------------------------------------------

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cached CSR triple ``(offsets, targets, eids)``, at the
        graph's index width (built lazily)."""
        if self._csr is None:
            self._csr = build_csr(self._n, self._u, self._v)
        return self._csr

    @contextmanager
    def csr_scope(self) -> Iterator[None]:
        """Keep a CSR built inside this block only until the block exits.

        A pipeline run reads the adjacency during Setup (the Eulerian
        check, the partitioner) and never again; a CSR it had to build is
        dropped on exit rather than pinned to the graph for the graph's
        lifetime. A CSR cached before the block stays cached.
        """
        cached = self._csr is not None
        try:
            yield
        finally:
            if not cached:
                self._csr = None

    def degrees(self) -> np.ndarray:
        """Vector of undirected degrees (self loops count 2, as in the paper).

        Two ``bincount`` passes over the endpoint arrays: int64, O(n), and
        no CSR is built for it.
        """
        deg = np.bincount(self._u, minlength=self._n)
        deg += np.bincount(self._v, minlength=self._n)
        return deg

    def degree(self, vertex: int) -> int:
        """Degree of a single vertex."""
        offsets = self.csr[0]
        return int(offsets[vertex + 1] - offsets[vertex])

    def incident(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbours, edge_ids)`` arrays for ``vertex``'s half-edges."""
        offsets, targets, eids = self.csr
        lo, hi = offsets[vertex], offsets[vertex + 1]
        return targets[lo:hi], eids[lo:hi]

    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbour array of ``vertex`` (with multiplicity, self loops twice)."""
        return self.incident(vertex)[0]

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(eid, u, v)`` for every undirected edge."""
        for i in range(self.n_edges):
            yield i, int(self._u[i]), int(self._v[i])

    # -- derived graphs ----------------------------------------------------

    def subgraph_edges(self, eids: np.ndarray) -> "Graph":
        """Graph with the same vertex set but only the given edge ids."""
        eids = np.asarray(eids, dtype=np.int64)
        return Graph(self._n, self._u[eids], self._v[eids])

    def with_extra_edges(self, extra_u, extra_v) -> "Graph":
        """New graph with additional edges appended (ids of old edges stable)."""
        return Graph(
            self._n,
            np.concatenate([self._u, np.asarray(extra_u, dtype=np.int64)]),
            np.concatenate([self._v, np.asarray(extra_v, dtype=np.int64)]),
        )

    # -- dunder ------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(n_vertices={self._n}, n_edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._u, other._u)
            and np.array_equal(self._v, other._v)
        )

    def __hash__(self):  # Graphs are mutable-free but large; keep unhashable.
        raise TypeError("Graph is not hashable")


class GraphBuilder:
    """Incremental construction helper producing an immutable :class:`Graph`.

    Example
    -------
    >>> b = GraphBuilder(4)
    >>> b.add_edge(0, 1); b.add_edge(1, 2)
    0
    1
    >>> g = b.build()
    >>> g.n_edges
    2
    """

    def __init__(self, n_vertices: int = 0):
        self.n_vertices = int(n_vertices)
        self._us: list[int] = []
        self._vs: list[int] = []

    def ensure_vertex(self, vertex: int) -> None:
        """Grow the vertex space so that ``vertex`` is valid."""
        if vertex >= self.n_vertices:
            self.n_vertices = vertex + 1

    def add_edge(self, u: int, v: int) -> int:
        """Append an undirected edge, growing the vertex space; returns its id."""
        if u < 0 or v < 0:
            raise ValueError("vertex ids must be non-negative")
        self.ensure_vertex(max(u, v))
        self._us.append(u)
        self._vs.append(v)
        return len(self._us) - 1

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        """Append many undirected edges."""
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def n_edges(self) -> int:
        """Number of edges added so far."""
        return len(self._us)

    def build(self) -> Graph:
        """Produce the immutable :class:`Graph`."""
        return Graph(self.n_vertices, self._us, self._vs)
