"""The paper's contribution: the partition-centric Euler-circuit algorithm.

Public API:

* :func:`find_euler_circuit` — end-to-end driver (Phases 1–3 on the BSP
  engine); returns an :class:`EulerResult` with the circuit, the execution
  report (all Fig. 5–9 quantities) and the fragment store.
* :func:`verify_circuit`, :class:`EulerCircuit` — result type + validator.
* :func:`run_phase1`, :func:`build_merge_tree`, :func:`reconstruct_circuit`
  — the three phases individually, for tests/advanced use.
* :class:`FragmentStore`, :class:`PathMap` — Phase-1 book-keeping: one
  columnar block per Phase-1 run, read through ``columns()`` and
  ``body(fid)``.
* :data:`STRATEGIES` — the §5 remote-edge memory strategies.
"""

from .circuit import EulerCircuit, verify_circuit
from .driver import EulerResult, ExecutionReport, find_euler_circuit
from .improvements import STRATEGIES, DeferredStore, plan_remote_placement
from .memory_model import Fig8Series, fig8_table, ideal_series, measured_series
from .merge_tree import Merge, MergeTree, build_merge_tree
from .merging import LONGS, PartitionState, merge_states
from .pathmap import FragmentStore, PathMap
from .phase1 import Phase1Stats, run_phase1
from .phase3 import build_pending_index, reconstruct_circuit

__all__ = [
    "EulerCircuit",
    "verify_circuit",
    "EulerResult",
    "ExecutionReport",
    "find_euler_circuit",
    "STRATEGIES",
    "DeferredStore",
    "plan_remote_placement",
    "Fig8Series",
    "fig8_table",
    "ideal_series",
    "measured_series",
    "Merge",
    "MergeTree",
    "build_merge_tree",
    "LONGS",
    "PartitionState",
    "merge_states",
    "FragmentStore",
    "PathMap",
    "Phase1Stats",
    "run_phase1",
    "build_pending_index",
    "reconstruct_circuit",
]
