"""The generators' outputs, pinned bit for bit by sha256 digest.

Cached inputs depend on these bytes: the Table-1 cache in
``.workload_cache/`` and the e2e harness's ``.cache/inputs/`` key generated
graphs by generator arguments, not by content. A digest covers
``n_vertices``, the little-endian int64 ``edge_u`` and ``edge_v``, and where
there is one the ``EulerizeInfo`` and one more int64 array: a component's
labels, or the next draws of a caller's generator.
``generator_digests.json`` was recorded before R-MAT drew its uniforms in
row blocks and before the eulerizer's edge set became a sorted code array;
both rewrites must leave every digest unchanged.

Re-record only for an intended output change, which also invalidates those
caches::

    PYTHONPATH=src python tests/generate/test_generator_digests.py \\
        > tests/generate/generator_digests.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.generate.eulerize import eulerian_rmat, eulerize, largest_component
from repro.generate.rmat import rmat_graph

DIGESTS = Path(__file__).with_name("generator_digests.json")


def digest(graph, info=None, extra=None) -> str:
    h = hashlib.sha256()
    h.update(np.array([graph.n_vertices], dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(graph.edge_u, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(graph.edge_v, dtype="<i8").tobytes())
    if info is not None:
        h.update(repr(dataclasses.astuple(info)).encode())
    if extra is not None:
        h.update(np.ascontiguousarray(extra, dtype="<i8").tobytes())
    return h.hexdigest()


def _rmat_grid():
    for scale in range(13):
        for avg_degree in (2.5, 4.0, 8.0):
            for seed in (0, 1, 7):
                yield (f"rmat-s{scale}-d{avg_degree}-r{seed}",
                       digest(rmat_graph(scale, avg_degree, seed=seed)))


def _rmat_variants():
    flags = {"raw": dict(dedup=False, drop_self_loops=False),
             "nodedup": dict(dedup=False),
             "loops": dict(drop_self_loops=False)}
    probs = {"uniform": (0.25, 0.25, 0.25, 0.25),
             "rowonly": (0.0, 0.0, 0.5, 0.5),
             "diag": (0.5, 0.0, 0.0, 0.5)}
    for scale in (1, 3, 6, 9, 12):
        for name, kw in flags.items():
            yield (f"rmat-{name}-s{scale}",
                   digest(rmat_graph(scale, 6.0, seed=scale, **kw)))
        for name, p in probs.items():
            yield (f"rmat-{name}-s{scale}",
                   digest(rmat_graph(scale, 6.0, probs=p, seed=scale)))


def _caller_generator():
    # The graph and the next draws of a Generator passed as ``seed``.
    for scale, avg_degree in ((0, 5.0), (4, 0.0), (5, 3.0), (11, 8.0)):
        rng = np.random.default_rng(100 + scale)
        g = rmat_graph(scale, avg_degree, seed=rng)
        yield (f"rng-after-rmat-s{scale}-d{avg_degree}",
               digest(g, extra=rng.integers(0, 1 << 62, 8)))


def _eulerize_cases():
    for scale in (4, 6, 8, 10):
        for avg_degree in (3.0, 5.0):
            for seed in (1, 2):
                yield (f"eulerian-rmat-s{scale}-d{avg_degree}-r{seed}",
                       digest(*eulerian_rmat(scale, avg_degree, seed)))
    # Dense inputs force retries, swap repairs and parallel edges.
    for scale in (3, 4, 5):
        for seed in range(4):
            for retries in (0, 1, 3):
                g = rmat_graph(scale, 12.0, seed=seed, dedup=seed % 2 == 0)
                yield (f"eulerize-dense-s{scale}-r{seed}-t{retries}",
                       digest(*eulerize(g, seed=seed + 1, max_retries=retries)))


def _paper_inputs():
    # The first input of circuit-rmat500k and circuit-remote.
    yield ("eulerian-rmat-s17-d8.0-r1",
           digest(*eulerian_rmat(17, avg_degree=8.0, seed=1)))
    # postman-rmat's input family.
    g, labels = largest_component(rmat_graph(12, avg_degree=3.0, seed=1))
    yield "largest-component-rmat-s12-d3.0-r1", digest(g, extra=labels)


FAMILIES = {
    "rmat": _rmat_grid,
    "rmat-variants": _rmat_variants,
    "caller-generator": _caller_generator,
    "eulerize": _eulerize_cases,
    "paper-inputs": _paper_inputs,
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_generator_output_matches_recorded_digest(family):
    expected = json.loads(DIGESTS.read_text())[family]
    got = dict(FAMILIES[family]())
    assert got.keys() == expected.keys()
    assert [n for n in got if got[n] != expected[n]] == []


if __name__ == "__main__":
    print(json.dumps({family: dict(cases()) for family, cases in FAMILIES.items()},
                     indent=1))
