"""Scenario protocol, registry, and the :func:`run_scenario` entry point.

A *scenario* expresses one workload family as a **reduction** (a graph
transform producing one or more Eulerian sub-problems) plus a
**postprocess** (mapping each sub-problem's circuit back to walks over the
original graph). Every sub-problem executes through the full staged
pipeline (:func:`repro.pipeline.run_pipeline`), so each scenario gets the
executor backends, spill, validation, verification, and the
schema-versioned :class:`~repro.pipeline.context.RunContext` artifact for
free — no side-door code paths.

Multi-sub-problem scenarios (``components``) run as a *batch*: the
partition budget is split across sub-problems by largest-remainder
allocation (:func:`allocate_parts`, never overshooting the request), and
with ``RunConfig(executor="process", workers>1)`` the sub-problems fan out
across a process pool — one OS process per sub-graph, the first
multi-graph execution path toward serving many concurrent requests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..core.circuit import EulerCircuit
from ..graph.graph import Graph
from ..obs import Span
from ..pipeline import RunConfig, RunContext, run_pipeline
from ..pipeline.context import ExecutionReport

__all__ = [
    "Scenario",
    "SubProblem",
    "SubRun",
    "ScenarioResult",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "allocate_parts",
    "run_scenario",
]


@dataclass(frozen=True)
class SubProblem:
    """One Eulerian sub-graph a scenario's reduction produced.

    ``meta`` is scenario-private mapping state the postprocess needs
    (vertex/edge id maps, the virtual edge id, duplicated-edge origins).
    """

    key: str
    graph: Graph
    n_parts: int
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SubRun:
    """One executed sub-problem: its key, budget, and full run artifact."""

    key: str
    n_parts: int
    context: RunContext
    meta: dict = field(default_factory=dict)

    @property
    def report(self) -> ExecutionReport:
        """The figure-series view of this sub-run."""
        return self.context.report


@dataclass
class ScenarioResult:
    """Typed return value of :func:`run_scenario`.

    ``circuits`` holds the final walks in *original-graph* vertex/edge ids
    (one per sub-run for ``components``; exactly one for the single-walk
    scenarios). ``sub_runs`` carries every pipeline artifact; ``metrics``
    aggregates scenario-level numbers (e.g. ``deadhead_fraction``,
    ``n_components``, ``n_parts_allocated``).
    """

    scenario: str
    config: RunConfig
    circuits: list[EulerCircuit]
    sub_runs: list[SubRun]
    metrics: dict

    @property
    def circuit(self) -> EulerCircuit:
        """The single walk of a one-walk scenario (raises on batches)."""
        if len(self.circuits) != 1:
            raise ValueError(
                f"scenario {self.scenario!r} produced {len(self.circuits)} "
                "walks; iterate .circuits instead"
            )
        return self.circuits[0]

    @property
    def reports(self) -> list[ExecutionReport]:
        """Per-sub-run execution reports, in sub-run order."""
        return [s.report for s in self.sub_runs]

    @property
    def n_parts_allocated(self) -> int:
        """Total partition budget spent across all sub-runs."""
        return sum(s.n_parts for s in self.sub_runs)

    def compact(self) -> "ScenarioResult":
        """Keep the walks, metrics and per-sub-run reports; drop the rest.

        What a finished job retains: every sub-run's context is compacted
        (:meth:`RunContext.compact`) and its scenario-private ``meta``
        (id maps, duplicate-edge origins) dropped. The serialized artifact
        (:func:`~repro.bench.report_io.scenario_to_dict`) is unchanged. In
        place; returns ``self``.
        """
        self.sub_runs = [replace(s, context=s.context.compact(), meta={})
                         for s in self.sub_runs]
        return self


class Scenario(ABC):
    """A workload expressed as reduction + postprocess over the pipeline."""

    #: Registry key (set by subclasses).
    name: str = ""

    @abstractmethod
    def reduce(self, graph: Graph, config: RunConfig) -> list[SubProblem]:
        """Transform ``graph`` into Eulerian sub-problems.

        May raise :class:`~repro.errors.NotEulerianError` /
        :class:`~repro.errors.DisconnectedGraphError` when the graph does
        not admit this scenario. An empty list short-circuits the pipeline
        (the postprocess still runs, with no contexts).
        """

    @abstractmethod
    def postprocess(
        self,
        graph: Graph,
        config: RunConfig,
        subs: list[SubProblem],
        contexts: list[RunContext],
    ) -> tuple[list[EulerCircuit], dict]:
        """Map sub-problem circuits back to original-graph walks + metrics.

        Must honor ``config.verify`` for any walk transformation it applies
        on top of the (already pipeline-verified) sub-circuits.
        """


#: Name → scenario instance. Populated by :func:`register_scenario`.
SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (keyed by its ``name``)."""
    if not scenario.name:
        raise ValueError("scenario must define a non-empty name")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


def allocate_parts(n_parts: int, weights) -> np.ndarray:
    """Largest-remainder split of a partition budget across weighted items.

    Every item receives at least one partition; the total is exactly
    ``max(len(weights), n_parts)`` — i.e. the budget is never overshot
    unless there are more items than partitions (each pipeline run needs
    one). Deterministic: remainder ties break by item index.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    k = int(w.size)
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.ones(k, dtype=np.int64)
    extra = int(n_parts) - k
    total = float(w.sum())
    if extra <= 0 or total <= 0:
        return out
    quota = extra * w / total
    base = np.floor(quota).astype(np.int64)
    out += base
    rem = quota - base
    left = extra - int(base.sum())
    if left > 0:
        # Stable largest-remainder: sort by (-remainder, index).
        order = np.lexsort((np.arange(k), -rem))
        out[order[:left]] += 1
    return out


def _sub_config(config: RunConfig, sub: SubProblem, n_subs: int) -> RunConfig:
    """The per-sub-problem RunConfig: budget applied, spill dir namespaced."""
    spill = config.spill_dir
    if spill is not None and n_subs > 1:
        # Structured fids repeat across sub-runs; give each its own spill
        # namespace so frag_<fid>.npy files cannot collide.
        spill = str(Path(spill) / sub.key)
    return replace(config, n_parts=sub.n_parts, spill_dir=spill)


def _run_sub(args: tuple[Graph, RunConfig]) -> RunContext:
    """Top-level pool task (must be picklable): one pipeline run."""
    graph, config = args
    return run_pipeline(graph, config)


def _run_batch(subs: list[SubProblem], config: RunConfig) -> list[RunContext]:
    """Execute the sub-problems, fanning out across processes when asked.

    The fan-out ships each sub-graph to a worker process and runs the
    pipeline there with the serial backend (the parallelism is *across*
    graphs); every other configuration runs the sub-problems sequentially
    with the configured backend *inside* each run. Both paths produce
    bit-identical circuits — the executor-parity contract of the pipeline.

    A config carrying an externally-owned pool never fans out here: the
    pool object cannot (and must not) cross a process boundary, and the
    job engine already provides the cross-request parallelism — each
    sub-run executes on the shared pool instead.

    A cancel token is checked before every sub-run (and polled while
    fan-out futures are pending); it is stripped from any config shipped
    to a worker process — the token's locks cannot cross a process
    boundary, so cancellation of a fan-out lands between futures.
    """
    n = len(subs)
    token = config.cancel
    if (n > 1 and config.pool is None
            and config.executor == "process" and config.workers > 1):
        inner = replace(config, executor="serial", workers=1, cancel=None,
                        repair=None)
        tasks = [(s.graph, _sub_config(inner, s, n)) for s in subs]
        with ProcessPoolExecutor(max_workers=min(config.workers, n)) as pool:
            if token is None:
                return list(pool.map(_run_sub, tasks))
            futures = [pool.submit(_run_sub, t) for t in tasks]
            out = []
            for fut in futures:
                while True:
                    try:
                        out.append(fut.result(timeout=0.1))
                        break
                    except _FuturesTimeout:
                        if token.should_stop:
                            for f in futures:
                                f.cancel()
                            token.check("components fan-out")
            return out
    out = []
    for s in subs:
        if token is not None:
            token.check("sub-run boundary")
        out.append(run_pipeline(s.graph, _sub_config(config, s, n)))
    return out


def run_scenario(
    graph: Graph,
    scenario: str | Scenario = "circuit",
    config: RunConfig | None = None,
) -> ScenarioResult:
    """Run one scenario end-to-end through the staged pipeline.

    ``scenario`` is a registry name (``"circuit"`` | ``"path"`` |
    ``"components"`` | ``"postman"``) or a :class:`Scenario` instance;
    ``config`` threads the full :class:`~repro.pipeline.context.RunConfig`
    (executor backend, workers, matching, spill_dir, validate, verify)
    into every sub-run. Returns a :class:`ScenarioResult` with walks in
    original-graph ids, the per-sub-run artifacts, and aggregate metrics.
    """
    sc = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if config is None:
        config = RunConfig()
    with Span("scenario_reduce", scenario=sc.name):
        subs = sc.reduce(graph, config)
    if config.cancel is not None:
        # Checkpoint even when the reduction produced no sub-problems, so
        # a cancel that landed during reduce() still stops the scenario.
        config.cancel.check("after reduce")
    contexts = _run_batch(subs, config)
    with Span("scenario_postprocess", scenario=sc.name):
        circuits, metrics = sc.postprocess(graph, config, subs, contexts)
    sub_runs = [
        SubRun(key=s.key, n_parts=s.n_parts, context=ctx, meta=dict(s.meta))
        for s, ctx in zip(subs, contexts)
    ]
    return ScenarioResult(
        scenario=sc.name,
        config=config,
        circuits=circuits,
        sub_runs=sub_runs,
        metrics=metrics,
    )
