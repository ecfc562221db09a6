"""Vectorized R-MAT power-law graph generator (paper §4.2 workload).

The paper generates its inputs with a parallel R-MAT tool [35] at an average
undirected degree of 5 and default quadrant probabilities. R-MAT (Chakrabarti
et al., SDM 2004) places each edge by descending ``log2(n)`` levels of a
2x2 recursive partition of the adjacency matrix, picking quadrant
``(a, b, c, d)`` at every level. NumPy draws the bits for a block of edges
at a time, all row bits before all column bits, so the generator is fast
enough for the benchmark harness without compiled code and holds O(n_edges)
int64 words rather than two ``(n_edges, scale)`` float matrices.
"""

from __future__ import annotations

import numpy as np

from ..graph.graph import Graph

__all__ = ["rmat_graph", "RMAT_DEFAULTS"]

#: Default quadrant probabilities, the common (0.57, 0.19, 0.19, 0.05)
#: "Graph500-style" skew that yields a power-law degree distribution.
RMAT_DEFAULTS = (0.57, 0.19, 0.19, 0.05)

#: Uniforms drawn per block (2 MB of float64). One ``(n_edges, scale)`` draw
#: per axis holds ~20 B per edge and level at once (the doubles, the bit
#: matrices, the column probabilities): ~300 B per edge, where the graph it
#: returns takes 16. Blocks hold O(n_edges) int64 words instead, and read
#: the generator's stream in the same order as one call, so the block size
#: does not change the output.
_BLOCK_DRAWS = 1 << 18


def rmat_graph(
    scale: int,
    avg_degree: float = 5.0,
    probs: tuple[float, float, float, float] = RMAT_DEFAULTS,
    seed: int | np.random.Generator = 0,
    drop_self_loops: bool = True,
    dedup: bool = True,
) -> Graph:
    """Generate an undirected R-MAT graph with ``2**scale`` vertices.

    Parameters
    ----------
    scale:
        ``log2`` of the number of vertices.
    avg_degree:
        Target average *undirected* degree (the paper uses 5); the number of
        sampled edges is ``n * avg_degree / 2`` before dedup/self-loop drops,
        so the realized average is slightly below the target, as with the
        original tool.
    probs:
        Quadrant probabilities ``(a, b, c, d)``; must sum to 1.
    seed:
        Integer seed or a ``numpy.random.Generator``.
    drop_self_loops:
        Remove ``u == v`` samples (default True).
    dedup:
        Remove duplicate undirected edges (default True), keeping the graph
        simple; the eulerizer may still be asked to tolerate multi-edges.

    Returns
    -------
    Graph
        The generated undirected graph (not necessarily connected or
        Eulerian; see :func:`repro.generate.eulerize.eulerize`).
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if avg_degree < 0:
        raise ValueError(f"avg_degree must be non-negative, got {avg_degree}")
    a, b, c, d = probs
    if min(probs) < 0:
        raise ValueError(f"quadrant probabilities must be non-negative, got {probs}")
    total = a + b + c + d
    if not np.isclose(total, 1.0):
        raise ValueError(f"quadrant probabilities must sum to 1, got {total}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    n = 1 << scale
    m = int(round(n * avg_degree / 2))
    if m == 0 or scale == 0:
        return Graph(n)

    # Per level: P(row bit = 1) = c + d; given the row bit, the column bit
    # probability differs — this is the standard two-step factorization of
    # the quadrant choice.
    p_row1 = c + d
    p_col1_given_row0 = b / (a + b) if (a + b) > 0 else 0.0
    p_col1_given_row1 = d / (c + d) if (c + d) > 0 else 0.0

    # All row uniforms, then all column uniforms, in row-major order: the
    # stream one ``(m, scale)`` draw per axis would read. A row's bits are
    # recovered from ``u`` rather than kept.
    weights = (1 << np.arange(scale - 1, -1, -1, dtype=np.int64))
    rows = max(1, _BLOCK_DRAWS // scale)
    blocks = [slice(lo, min(lo + rows, m)) for lo in range(0, m, rows)]
    u = np.empty(m, dtype=np.int64)
    v = np.empty(m, dtype=np.int64)
    for blk in blocks:
        k = blk.stop - blk.start
        u[blk] = (rng.random((k, scale)) < p_row1) @ weights
    for blk in blocks:
        k = blk.stop - blk.start
        row_bits = (u[blk, None] & weights) != 0
        col_prob = np.where(row_bits, p_col1_given_row1, p_col1_given_row0)
        v[blk] = (rng.random((k, scale)) < col_prob) @ weights

    if drop_self_loops:
        keep = u != v
        u, v = u[keep], v[keep]
    if dedup and u.size:
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        code = lo * n + hi
        _, idx = np.unique(code, return_index=True)
        idx.sort()
        u, v = u[idx], v[idx]
    return Graph(n, u, v)
