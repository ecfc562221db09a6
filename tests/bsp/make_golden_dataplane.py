#!/usr/bin/env python
"""Regenerate ``golden_dataplane.json`` — the representation-parity fixture.

The fixture pins the exact circuits and fragment censuses the *seed*
tuple-based data plane produced on fixed-seed workloads; the columnar data
plane must reproduce them bit-for-bit (see
``test_executor_parity.py::test_columnar_path_matches_seed_goldens``).

Only regenerate this file when an *algorithmic* change intentionally alters
traversal order (and say so in the commit); a representation or performance
change must never need to.

Usage::

    PYTHONPATH=src python tests/bsp/make_golden_dataplane.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core import find_euler_circuit  # noqa: E402
from repro.generate.eulerize import eulerian_rmat  # noqa: E402
from repro.generate.synthetic import grid_city  # noqa: E402
from tests.helpers import fragment_census  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "golden_dataplane.json"


def golden_graphs():
    """The fixed-seed workloads the parity goldens are pinned on."""
    return {
        "grid8": grid_city(8, 8),
        "rmat10": eulerian_rmat(10, avg_degree=4.0, seed=5)[0],
    }


def golden_configs():
    """(config-name, find_euler_circuit kwargs) cases per workload."""
    return {
        "eager-p4": dict(n_parts=4, seed=0, strategy="eager"),
        "proposed-p4": dict(n_parts=4, seed=0, strategy="proposed"),
    }


def fingerprint(res) -> dict:
    """Digests + human-debuggable summary of one run's outcome: the record
    ``golden_dataplane.json`` holds per case, and what the golden tests
    compare a run against."""
    census = fragment_census(res.store)
    circuit_sha = hashlib.sha256(
        res.circuit.vertices.tobytes() + b"|" + res.circuit.edge_ids.tobytes()
    ).hexdigest()
    census_sha = hashlib.sha256(repr(census).encode()).hexdigest()
    return {
        "circuit_sha256": circuit_sha,
        "census_sha256": census_sha,
        "n_circuit_edges": int(res.circuit.edge_ids.size),
        "n_fragments": len(census),
        "n_paths": sum(1 for c in census if c[1] == "path"),
        "first_vertices": res.circuit.vertices[:8].tolist(),
    }


def main() -> None:
    doc: dict = {"cases": {}}
    for gname, g in golden_graphs().items():
        for cname, kwargs in golden_configs().items():
            res = find_euler_circuit(g, verify=True, validate=True, **kwargs)
            doc["cases"][f"{gname}/{cname}"] = fingerprint(res)
    FIXTURE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {len(doc['cases'])} golden cases -> {FIXTURE}")


if __name__ == "__main__":
    main()
