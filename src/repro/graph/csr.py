"""CSR (compressed sparse row) adjacency construction.

The paper models an undirected edge as a *pair of directed half-edges*
(``e_ij`` and ``e_ji``, §3.1). This module builds the CSR arrays for that
doubled representation from the undirected edge arrays: by one stable
counting sort in the kernel library (``setup.c``), or, without a
compiler, by :func:`_build_csr_reference`'s stable NumPy argsort, which
gives the same bytes.

The CSR triple is, at the graph's index width
(:func:`~repro.graph.graph.index_dtype`: ``int32`` whenever the vertex
ids and ``2 * n_edges`` fit):

``offsets``
    ``[n_vertices + 1]`` — half-edges of vertex ``v`` live in
    ``targets[offsets[v]:offsets[v+1]]``.
``targets``
    ``[2 * n_edges]`` — the neighbour at the other end of each half-edge.
``eids``
    ``[2 * n_edges]`` — the undirected edge id of each half-edge, so the
    two half-edges of one undirected edge share an id and a traversal can
    mark both visited at once.
"""

from __future__ import annotations

import numpy as np

from .. import kernels

__all__ = ["build_csr", "csr_degrees", "index_dtype"]


def index_dtype(n_ids: int, n_edges: int) -> type[np.signedinteger]:
    """The storage width of a run's vertex-, edge- and slot-index tables.

    ``np.int32`` when every vertex id is below 2**31 (``n_ids`` is one past
    the largest) and the half-edge slot codes ``edge << 1 | forward`` fit,
    i.e. ``2 * n_edges < 2**31``; ``np.int64`` otherwise. Only storage
    narrows: arithmetic on these tables stays 64-bit, and tables that carry
    fragment ids, like every output, stay ``int64``.
    """
    if n_ids <= 1 << 31 and 2 * n_edges < 1 << 31:
        return np.int32
    return np.int64


def build_csr(
    n_vertices: int, edge_u: np.ndarray, edge_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build CSR adjacency for the doubled directed-half-edge representation.

    Parameters
    ----------
    n_vertices:
        Number of vertices; vertex ids must lie in ``[0, n_vertices)``.
    edge_u, edge_v:
        Endpoint arrays of the undirected edges; edge ``i`` connects
        ``edge_u[i]`` and ``edge_v[i]``. Self loops are permitted and
        contribute two half-edges at the same vertex.

    Returns
    -------
    (offsets, targets, eids):
        The CSR triple described in the module docstring. Within one vertex,
        half-edges where the vertex is the ``u`` endpoint appear first (in
        ascending edge id), then those where it is the ``v`` endpoint (also
        ascending) — a fixed order that makes traversal deterministic.
    """
    edge_u = np.ascontiguousarray(edge_u, dtype=np.int64)
    edge_v = np.ascontiguousarray(edge_v, dtype=np.int64)
    if edge_u.shape != edge_v.shape:
        raise ValueError("edge_u and edge_v must have the same shape")
    m = edge_u.shape[0]
    if m and (
        edge_u.min() < 0
        or edge_v.min() < 0
        or edge_u.max() >= n_vertices
        or edge_v.max() >= n_vertices
    ):
        raise ValueError("edge endpoint out of range [0, n_vertices)")
    width = index_dtype(n_vertices, m)
    native = kernels.load()
    if native is not None:
        return native.csr(n_vertices, edge_u, edge_v, width)
    return _build_csr_reference(n_vertices, edge_u, edge_v, width)


def _build_csr_reference(n_vertices, edge_u, edge_v, width):
    """:func:`build_csr` in NumPy: the reference ``setup.c`` must match."""
    m = edge_u.shape[0]
    # Source vertex of each half-edge: (u->v) for eid then (v->u) for eid.
    src = np.concatenate([edge_u, edge_v]).astype(width)
    counts = np.bincount(src, minlength=n_vertices)
    offsets = np.zeros(n_vertices + 1, dtype=width)
    np.cumsum(counts, out=offsets[1:])

    # Stable sort by source groups half-edges per vertex while preserving the
    # (ascending-eid) order within each vertex.
    order = np.argsort(src, kind="stable").astype(width)
    del src
    targets = np.concatenate([edge_v, edge_u]).astype(width)[order]
    # Half-edge ``i`` belongs to edge ``i mod m``: the sort order becomes
    # the eid column in place, with no per-half-edge eid table built.
    eids = np.subtract(order, m, out=order, where=order >= m)
    return offsets, targets, eids


def csr_degrees(offsets: np.ndarray) -> np.ndarray:
    """Return the degree vector implied by CSR ``offsets`` (diff of offsets)."""
    return np.diff(offsets)
