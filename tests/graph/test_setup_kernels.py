"""Setup's kernels against their NumPy references, and the LDG maps they pin.

The kernel library runs Setup's adjacency work: union-find component
labels, the counting-sort CSR, and LDG with its BFS order. Each must give
the bytes of its Python reference — the no-compiler fallback — on any
multigraph, including self loops, parallel edges and isolated vertices.
LDG's maps must also stay the ones the NumPy partitioner produced on the
e2e inputs, so catalogs' persisted ``part_ldg_p<k>_s<seed>.npz`` files
stay valid.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.generate.eulerize import eulerian_rmat
from repro.graph.csr import _build_csr_reference, build_csr
from repro.graph.graph import Graph, index_dtype
from repro.graph.properties import (
    _components_reference,
    connected_components,
    n_edge_components,
)
from repro.partitioning.ldg import (
    _bfs_order_reference,
    _ldg_reference,
    bfs_order,
    ldg_partition,
)


def _native():
    native = kernels.load()
    if native is None:
        pytest.skip("no working C compiler: the native kernels are unavailable")
    return native


@st.composite
def multigraphs(draw):
    """Any undirected multigraph: self loops, parallel edges, isolated
    vertices and several components."""
    n = draw(st.integers(1, 40))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(ends, max_size=80))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return Graph(n, u, v)


@settings(deadline=None, max_examples=200)
@given(graph=multigraphs())
def test_components_kernel_matches_reference(graph):
    native = _native()
    labels, k = native.components(graph.n_vertices,
                                  np.ascontiguousarray(graph.edge_u),
                                  np.ascontiguousarray(graph.edge_v))
    reference = _components_reference(graph)
    assert labels.dtype == np.int64
    assert labels.tobytes() == reference.tobytes()
    assert k == int(reference.max()) + 1
    assert connected_components(graph).tobytes() == reference.tobytes()
    edge_bearing = reference[graph.degrees() > 0]
    assert n_edge_components(graph) == (
        np.unique(edge_bearing).size if graph.n_edges else 0)


@settings(deadline=None, max_examples=200)
@given(graph=multigraphs(), width=st.sampled_from([np.int32, np.int64]))
def test_csr_kernel_matches_reference(graph, width):
    """The whole triple, eid column included, at either width."""
    native = _native()
    u = np.ascontiguousarray(graph.edge_u)
    v = np.ascontiguousarray(graph.edge_v)
    got = native.csr(graph.n_vertices, u, v, width)
    expected = _build_csr_reference(graph.n_vertices, u, v, width)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == width
        assert a.tobytes() == b.tobytes()
    run_width = index_dtype(graph.n_vertices, graph.n_edges)
    assert all(a.dtype == run_width for a in build_csr(graph.n_vertices, u, v))


@settings(deadline=None, max_examples=200)
@given(graph=multigraphs(), seed=st.integers(0, 2**32 - 1))
def test_bfs_order_kernel_matches_reference(graph, seed):
    native = _native()
    offsets, targets, _ = graph.csr
    starts = np.random.default_rng(seed).permutation(graph.n_vertices)
    got = native.bfs_order(offsets, targets, starts)
    assert got.tobytes() == _bfs_order_reference(offsets, targets, starts).tobytes()
    assert bfs_order(graph, seed).tobytes() == got.tobytes()


@settings(deadline=None, max_examples=200)
@given(graph=multigraphs(), n_parts=st.integers(1, 16),
       seed=st.integers(0, 1000),
       slack=st.sampled_from([-0.5, 0.0, 0.05, 1.0]),
       order=st.sampled_from(["bfs", "natural", "random"]))
def test_ldg_kernel_matches_reference(graph, n_parts, seed, slack, order):
    """``part_of`` bit for bit, including ties, full parts and (with a
    negative slack) every part full."""
    native = _native()
    got = ldg_partition(graph, n_parts, slack=slack, order=order, seed=seed)
    offsets, targets, _ = graph.csr
    if order == "bfs":
        order_arr = _bfs_order_reference(
            offsets, targets,
            np.random.default_rng(seed).permutation(graph.n_vertices))
    elif order == "natural":
        order_arr = np.arange(graph.n_vertices, dtype=np.int64)
    else:
        order_arr = np.random.default_rng(seed).permutation(graph.n_vertices)
    n = graph.n_vertices
    capacity = int(np.ceil(n / n_parts * (1.0 + slack)))
    expected = _ldg_reference(offsets, targets, order_arr, n_parts, capacity)
    assert got.part_of.tobytes() == expected.tobytes()
    assert native.ldg(offsets, targets, order_arr, n_parts,
                      capacity).tobytes() == expected.tobytes()


#: sha256 of LDG's little-endian int64 ``part_of`` (8 parts, seed 0) on the
#: e2e circuit inputs ``eulerian_rmat(17, avg_degree=8.0, seed=s)``,
#: recorded with the NumPy partitioner before LDG moved into the kernel
#: library.
E2E_PART_OF = {
    1: "74f563deb7596a6ac0b133d52bc8c67293c8367059c886921877b6182c45ef56",
    2: "1a61ae33519eb7d61896d4ec141fe2daa8359cb6b0508bb84b22a2c21e43f5dc",
    3: "8d28c6d80b7f1e05051ce7146261ad665809f6a830cf2ec2aa0bf1570f93d906",
}


@pytest.mark.parametrize("seed", sorted(E2E_PART_OF))
def test_ldg_maps_of_the_e2e_inputs_are_pinned(seed):
    _native()  # the NumPy pass takes ~1.5 s per input; parity covers it
    graph, _ = eulerian_rmat(17, avg_degree=8.0, seed=seed)
    part_of = ldg_partition(graph, 8, seed=0).part_of
    digest = hashlib.sha256(
        np.ascontiguousarray(part_of, dtype="<i8").tobytes()).hexdigest()
    assert digest == E2E_PART_OF[seed]
