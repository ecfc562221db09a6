"""The eulerizer against its set-of-tuples reference.

``eulerize`` keeps the input's edge keys in a sorted code array
(``_EdgeKeys``). The reference below is the pairing loop as it was written
over one Python set of ``(lo, hi)`` tuples, with counters added: the
rewrite must give the same graph, ``EulerizeInfo`` and generator position
on every input.

A swap repair can discard the key of a parallel copy of an input edge,
which hides that input edge from the one set. No later lookup can ask for
that key (both its endpoints are already paired, and every later key holds
a vertex still in the pool), so no output shows it; the set-model test
checks ``_EdgeKeys`` directly instead.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.generate.eulerize import EulerizeInfo, _EdgeKeys, eulerize
from repro.generate.rmat import rmat_graph
from repro.graph.graph import Graph
from repro.graph.properties import odd_vertices


def reference_eulerize(graph, rng, max_retries=16):
    """The set-based eulerizer; returns ``(graph, info, counts)``."""
    counts = Counter()
    odd = odd_vertices(graph)
    if odd.size == 0:
        return graph, EulerizeInfo(0, 0, 0.0, 0), counts

    existing = set()
    if graph.n_edges:
        lo = np.minimum(graph.edge_u, graph.edge_v)
        hi = np.maximum(graph.edge_u, graph.edge_v)
        existing = set(map(tuple, np.column_stack([lo, hi]).tolist()))
    inputs = frozenset(existing)

    pool = odd.copy()
    rng.shuffle(pool)
    accepted: list[tuple[int, int]] = []
    n_parallel = 0

    def _try_swap_repair(a: int, b: int) -> bool:
        probe = rng.permutation(len(accepted))[:64] if accepted else []
        for idx in probe:
            c, d = accepted[idx]
            for x, y in (((a, c), (b, d)), ((a, d), (b, c))):
                k1 = (min(x), max(x))
                k2 = (min(y), max(y))
                if (
                    x[0] != x[1]
                    and y[0] != y[1]
                    and k1 not in existing
                    and k2 not in existing
                    and k1 != k2
                ):
                    gone = (min(c, d), max(c, d))
                    counts["input_discards"] += gone in inputs
                    existing.discard(gone)
                    accepted[idx] = k1
                    accepted.append(k2)
                    existing.add(k1)
                    existing.add(k2)
                    return True
        return False

    for attempt in range(max_retries + 1):
        rejected: list[int] = []
        last_round = attempt == max_retries
        for k in range(0, pool.size - 1, 2):
            a, b = int(pool[k]), int(pool[k + 1])
            key = (a, b) if a <= b else (b, a)
            dup = key in existing
            if a != b and not dup:
                accepted.append(key)
                existing.add(key)
            elif last_round:
                if a != b and _try_swap_repair(a, b):
                    counts["swaps"] += 1
                    continue
                accepted.append(key)
                existing.add(key)
                n_parallel += 1
            else:
                rejected.extend((a, b))
        if not rejected:
            break
        pool = np.array(rejected, dtype=np.int64)
        rng.shuffle(pool)
    counts["parallel"] = n_parallel
    extra = np.array(accepted, dtype=np.int64).reshape(-1, 2)
    out = graph.with_extra_edges(extra[:, 0], extra[:, 1])
    info = EulerizeInfo(
        n_odd=int(odd.size),
        n_added=len(accepted),
        added_fraction=len(accepted) / graph.n_edges if graph.n_edges else 0.0,
        n_parallel=n_parallel,
    )
    return out, info, counts


def _both(scale, avg_degree, seed, dedup, max_retries):
    """Run both eulerizers on one dense R-MAT; return the reference's counts."""
    g = rmat_graph(scale, avg_degree, seed=seed, dedup=dedup)
    rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    out, info = eulerize(g, seed=rng_new, max_retries=max_retries)
    ref_out, ref_info, counts = reference_eulerize(g, rng_ref, max_retries)
    assert out == ref_out
    assert info == ref_info
    assert rng_new.integers(1 << 62) == rng_ref.integers(1 << 62)
    return counts


@settings(deadline=None, max_examples=300)
@given(
    scale=st.integers(3, 5),
    avg_degree=st.floats(8.0, 16.0),
    seed=st.integers(0, 2**32 - 1),
    dedup=st.booleans(),
    max_retries=st.integers(0, 3),
)
def test_eulerize_matches_set_reference(scale, avg_degree, seed, dedup, max_retries):
    _both(scale, avg_degree, seed, dedup, max_retries)


def test_fixed_cases_cover_swaps_parallels_and_input_discards():
    # ``n_parallel`` alone cannot show a swap, and an input-edge discard
    # happens in under 2% of dense cases: count all three.
    total = Counter()
    for scale in (3, 4, 5):
        for avg_degree in (12.0, 16.0):
            for seed in range(200):
                total += _both(scale, avg_degree, seed, seed % 2 == 0, seed % 4)
    assert total["swaps"] > 0
    assert total["parallel"] > 0
    assert total["input_discards"] > 0


vertex = st.integers(0, 5)


@settings(deadline=None, max_examples=300)
@given(
    edges=st.lists(st.tuples(vertex, vertex), max_size=12),
    ops=st.lists(st.tuples(st.sampled_from(["add", "discard"]), vertex, vertex),
                 max_size=30),
)
def test_edge_keys_act_as_one_set_of_tuples(edges, ops):
    keys = _EdgeKeys(Graph.from_edges(6, edges))
    model = {(min(e), max(e)) for e in edges}
    every = [(a, b) for a in range(6) for b in range(a, 6)]
    for op, a, b in ops:
        key = (min(a, b), max(a, b))
        getattr(keys, op)(key)
        getattr(model, op)(key)
        assert [k in keys for k in every] == [k in model for k in every]
