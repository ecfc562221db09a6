"""Peak memory of the §4.2 generators, per edge, under tracemalloc.

tracemalloc sees NumPy's buffers and Python's objects, not memory the
allocator keeps after a free; CI's generator step gates the process's
``VmHWM`` for that.
"""

import tracemalloc

from repro.generate.eulerize import eulerize, largest_component
from repro.generate.rmat import rmat_graph

#: Bytes per edge. Drawing each endpoint axis as one ``(m, scale)`` matrix
#: peaks at ~310 on this input and a set of edge tuples at ~275; row blocks
#: and a sorted code array peak at ~100 and ~85.
BOUND = 150


def traced_peak(fn):
    """``fn()`` and the most memory it held at once."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rmat_peak_per_edge():
    g, peak = traced_peak(lambda: rmat_graph(15, avg_degree=8.0, seed=1))
    assert peak / g.n_edges <= BOUND


def test_eulerize_peak_per_input_edge():
    cc, _ = largest_component(rmat_graph(15, avg_degree=8.0, seed=1))
    _, peak = traced_peak(lambda: eulerize(cc, seed=2))
    assert peak / cc.n_edges <= BOUND
