"""BSP substrate: partition-centric and vertex-centric superstep engines.

Simulates the execution model the paper targets (Spark extended to a
partition-centric abstraction; Pregel for the vertex-centric baseline) with
barrier-synchronized supersteps, bulk message delivery and the cost
accounting (§3.5, §4.3) every benchmark reads.
"""

from .accounting import (
    CAT_COPY_SINK,
    CAT_COPY_SRC,
    CAT_CREATE,
    CAT_PHASE1,
    PartitionStepRecord,
    RunStats,
)
from .engine import BSPEngine, ComputeResult
from .executors import (
    EXECUTORS,
    ProcessExecutor,
    RemoteExecutor,
    SerialExecutor,
    SharedPool,
    ThreadExecutor,
    make_executor,
    resolve_executor_name,
)
from .transport import StaticPlacement, parse_hosts, wire_stats
from .programs import bsp_connected_components, bsp_degree_histogram
from .messages import MailRouter
from .vertex_engine import VertexBSPEngine, VertexComputeResult, VertexRunStats

__all__ = [
    "BSPEngine",
    "ComputeResult",
    "EXECUTORS",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "RemoteExecutor",
    "SharedPool",
    "make_executor",
    "resolve_executor_name",
    "StaticPlacement",
    "parse_hosts",
    "wire_stats",
    "bsp_connected_components",
    "bsp_degree_histogram",
    "MailRouter",
    "VertexBSPEngine",
    "VertexComputeResult",
    "VertexRunStats",
    "PartitionStepRecord",
    "RunStats",
    "CAT_CREATE",
    "CAT_COPY_SRC",
    "CAT_COPY_SINK",
    "CAT_PHASE1",
]
