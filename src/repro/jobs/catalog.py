"""Graph catalog: content-addressed graph store with derived-artifact caches.

The per-request execution path re-parses and re-partitions its input on
every call — exactly the cold-start cost a long-lived service must not pay
per request. The catalog amortizes it:

* **Graphs** are keyed by a content hash (:func:`graph_key`) and persisted
  as *uncompressed* NPZ under ``<root>/graphs/``, so repeat loads
  memory-map the edge arrays (``load_npz(..., mmap=True)``) instead of
  re-parsing text or copying buffers. The mapped pages live in the page
  cache, so every process reading one root — the engine and its forked
  dispatcher workers — shares one copy of a graph. Loaded graphs are
  additionally kept in an in-process table, so the steady-state hit is a
  dict lookup. That table (with the derived-artifact tables below) holds
  only what the process reads again: roots, and a delta version while it
  is pinned or has no child. A superseded version leaves memory and a
  later :meth:`GraphCatalog.get` rebuilds it through its chain.
* **Derived artifacts** are cached per graph hash under
  ``<root>/derived/<key>/``: partition maps keyed by ``(partitioner,
  n_parts, seed)`` and postman eulerization plans. Entries carry the full
  key they were computed under; the pipeline validates the key against the
  actual run before use (see :func:`repro.pipeline.setup.cached_partition`),
  so a cache can accelerate but never alter a result.
* An **index** (``<root>/index.json``, written atomically) records
  per-graph metadata and last-use ordering; :meth:`GraphCatalog.put`
  enforces an optional on-disk **size budget** by evicting
  least-recently-used graphs together with their derived artifacts.
* **Delta chains** make mutations first-class: :meth:`GraphCatalog.mutate`
  applies a :class:`~repro.deltas.GraphDelta` to a cataloged base, keys
  the child by content hash, and persists only the (tiny) delta NPZ under
  ``<root>/deltas/<child>.npz`` with a ``delta_of`` back-pointer in the
  index — the child's full NPZ is materialized lazily
  (:meth:`GraphCatalog.materialize`), on the first export or disk load
  that needs it. A child's canonical partition map is the parent's cached
  map *extended* over the delta (new vertices join the partition of their
  first already-placed neighbour), which is what lets incremental repair
  and full recompute of the child agree bit-for-bit. Eviction never
  unlinks a base graph an unmaterialized child still needs — chain
  parents are protected alongside pins.

All public methods are thread-safe — the job engine's dispatcher threads
and the HTTP front end share one catalog instance.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading
import time
import weakref
from pathlib import Path

import numpy as np

from ..graph.graph import Graph
from ..graph.io import atomic_write, load_npz, save_npz
from ..obs import MetricsRegistry
from ..partitioning import partition as partition_graph

__all__ = ["graph_key", "shard_of", "GraphCatalog"]


def graph_key(graph: Graph) -> str:
    """Content hash of a graph (vertex count + exact edge arrays).

    Identical edge lists in identical order hash equal; a reordered edge
    list is a different graph as far as run reproducibility is concerned
    (edge ids shift), so the hash is deliberately order-sensitive.
    """
    h = hashlib.sha256()
    h.update(int(graph.n_vertices).to_bytes(8, "little"))
    h.update(np.ascontiguousarray(graph.edge_u, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(graph.edge_v, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def shard_of(key: str, n_shards: int) -> int:
    """The home shard of a graph key among ``n_shards`` worker hosts.

    Content-hash sharding: the key is already a uniform sha256 prefix, so
    its leading 32 bits modulo the host count spread graphs evenly and —
    crucially — *deterministically*: every coordinator, restarted or not,
    computes the same home for the same graph, so a host's partition-local
    NPZ cache keeps hitting across coordinator restarts.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return int(key[:8], 16) % n_shards


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


#: The catalog's event kinds (one ``repro_catalog_events_total`` child each).
_STAT_KINDS = (
    "graph_hits",
    "graph_misses",
    "partition_hits",
    "partition_misses",
    "plan_hits",
    "plan_misses",
    "evictions",
    "mutations",
    "delta_rebuilds",
    "partition_extensions",
)


class GraphCatalog:
    """Content-addressed store of graphs and their derived setup artifacts."""

    def __init__(self, root, size_budget_bytes: int | None = None,
                 metrics: MetricsRegistry | None = None):
        self.root = Path(root)
        self.size_budget_bytes = size_budget_bytes
        # Private registry by default: tests build fresh catalogs and
        # assert exact hit/miss counts, so two catalogs must never share
        # counter series. The engine's /metrics page renders it beside
        # its own.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        family = self.metrics.counter(
            "repro_catalog_events_total",
            "Catalog cache hits/misses, evictions and rebuilds by kind",
            labelnames=("kind",),
        )
        self._events = {k: family.labels(kind=k) for k in _STAT_KINDS}
        self._lock = threading.RLock()
        self._graphs: dict[str, Graph] = {}
        self._partitions: dict[tuple[str, str, int, int], dict] = {}
        self._plans: dict[str, dict] = {}
        #: Refcounts of keys in active use (queued/running jobs) — pinned
        #: keys are exempt from budget eviction, so an accepted job can
        #: never lose its graph before it runs.
        self._pins: dict[str, int] = {}
        #: Weak references to every Graph object this catalog has handed
        #: out, keyed by graph key. Eviction consults them: unlinking an
        #: NPZ while a job still reads through its mmap'd arrays would feed
        #: that job freed pages, so the unlink is deferred until the last
        #: reference dies (see :meth:`_evict`).
        self._live: dict[str, "weakref.ref[Graph]"] = {}
        (self.root / "graphs").mkdir(parents=True, exist_ok=True)
        (self.root / "derived").mkdir(parents=True, exist_ok=True)
        (self.root / "deltas").mkdir(parents=True, exist_ok=True)
        self._index: dict[str, dict] = self._load_index()

    @property
    def stats(self) -> dict:
        """Hit/miss/eviction counts by kind (the ``/catalog`` endpoint),
        read from ``repro_catalog_events_total``."""
        return {k: int(c.value) for k, c in self._events.items()}

    # -- index ------------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _load_index(self) -> dict[str, dict]:
        if not self._index_path.exists():
            return {}
        try:
            return json.loads(self._index_path.read_text())
        except (OSError, ValueError):
            return {}

    def _save_index(self) -> None:
        with atomic_write(self._index_path, suffix=".json") as fh:
            fh.write(json.dumps(self._index, indent=2, sort_keys=True).encode())

    def refresh(self) -> None:
        """Merge the on-disk index into memory (multi-process readers).

        A forked dispatcher worker's catalog is a fork-time snapshot;
        graphs the parent cataloged later exist on disk but not in the
        worker's index. Called on a key miss, this picks them up without
        any cross-process locking — the index file is written atomically.
        A version the merge shows superseded stops being :meth:`_hot` and
        leaves memory, as it does in the catalog that mutated it.
        """
        with self._lock:
            self._index.update(self._load_index())
            held = (set(self._graphs) | set(self._plans)
                    | {ck[0] for ck in self._partitions})
            for key in held:
                if not self._hot(key):
                    self._forget(key)

    def _touch(self, key: str) -> None:
        self._index[key]["last_used"] = time.time()

    # -- graphs -----------------------------------------------------------

    def _graph_path(self, key: str) -> Path:
        return self.root / "graphs" / f"{key}.npz"

    def _delta_path(self, key: str) -> Path:
        return self.root / "deltas" / f"{key}.npz"

    def _derived_dir(self, key: str) -> Path:
        return self.root / "derived" / key

    def put(self, graph: Graph, name: str = "", pin: bool = False) -> str:
        """Persist ``graph`` (idempotent) and return its content key.

        ``pin=True`` takes one :meth:`pin` reference *inside the same
        lock hold* — the catalog-then-pin TOCTOU closes: a concurrent
        ``put`` under a size budget can never evict the key between the
        two steps, because there is no in-between.
        """
        key = graph_key(graph)
        with self._lock:
            path = self._graph_path(key)
            if key not in self._index or not path.exists():
                # Uncompressed so later loads can memory-map the members.
                save_npz(graph, path, compressed=False)
                self._index[key] = {
                    "name": name,
                    "n_vertices": graph.n_vertices,
                    "n_edges": graph.n_edges,
                    "bytes": path.stat().st_size,
                    "created": time.time(),
                    "last_used": time.time(),
                }
            else:
                if name and not self._index[key].get("name"):
                    self._index[key]["name"] = name
                self._touch(key)
            self._graphs[key] = graph
            self._live[key] = weakref.ref(graph)
            if pin:
                self._pins[key] = self._pins.get(key, 0) + 1
            self._evict_to_budget(protect=key)
            self._save_index()
        return key

    def resident(self, key: str) -> bool:
        """Whether :meth:`get` would answer ``key`` from memory."""
        with self._lock:
            return key in self._graphs

    def get(self, key: str) -> Graph:
        """Load a cataloged graph (memory table, then mmap from disk).

        Hot path: only in-memory state is touched on a hit — the last-used
        ordering persists to ``index.json`` on the next put/eviction, not
        here (approximate durability of LRU order is fine; a whole-index
        rewrite per request is not). An unmaterialized delta version is
        rebuilt from its nearest ancestor in memory or on disk, one
        ``delta_rebuilds`` per call.
        """
        with self._lock:
            g = self._graphs.get(key)
            if g is not None:
                self._events["graph_hits"].inc()
                self._touch(key)
                return g
            if key not in self._index:
                raise KeyError(f"unknown graph key {key!r}")
            chain, k = [], key
            while g is None:
                path = self._graph_path(k)
                if path.exists():
                    self._events["graph_misses"].inc()
                    # The archive was written from a validated Graph at
                    # put(); skip the range re-scan so the mapping stays lazy.
                    g, _ = load_npz(path, mmap=True, validate=False)
                    self._live[k] = weakref.ref(g)
                    self._keep(k, g)
                    break
                # Unmaterialized delta version: rebuild from the chain.
                chain.append(k)
                k = self._index[k].get("delta_of")
                if k is None or k not in self._index or k in chain:
                    raise KeyError(f"unknown graph key {key!r}")
                g = self._graphs.get(k)
            for k in reversed(chain):
                g = self.load_delta(k).apply(g)
                self._keep(k, g)
            if chain:
                self._events["delta_rebuilds"].inc()
                self._live[key] = weakref.ref(g)
            self._touch(key)
            return g

    def _hot(self, key: str) -> bool:
        """Whether ``key``'s graph and derived tables stay in memory.

        Roots always do. A delta version does while it is pinned or has no
        child: once superseded and released, nothing reads it again unless
        asked by key, and :meth:`get` can rebuild it through its chain.
        """
        entry = self._index.get(key)
        if entry is None or entry.get("delta_of") is None or key in self._pins:
            return True
        return not any(e.get("delta_of") == key for e in self._index.values())

    def _keep(self, key: str, graph: Graph) -> None:
        if self._hot(key):
            self._graphs.setdefault(key, graph)

    def _forget(self, key: str) -> None:
        """Drop ``key`` from memory (disk is untouched).

        Besides eviction, runs when a version stops being :meth:`_hot`:
        when it gains a child (here, or on disk as :meth:`refresh` finds)
        and when its last pin is released.
        """
        self._graphs.pop(key, None)
        self._plans.pop(key, None)
        for ck in [c for c in self._partitions if c[0] == key]:
            self._partitions.pop(ck)

    def export_bytes(self, key: str) -> bytes:
        """The raw NPZ bytes of a cataloged graph (for host provisioning).

        What a coordinator frames to a remote :class:`WorkerHost` that does
        not hold ``key`` yet — the uncompressed archive written at
        :meth:`put`, byte for byte, so the receiving host's
        :meth:`put_bytes` re-derives the *same* content key.
        """
        with self._lock:
            path = self._graph_path(key)
            if key not in self._index:
                raise KeyError(f"unknown graph key {key!r}")
            if not path.exists():
                if self._index[key].get("delta_of") is None:
                    raise KeyError(f"unknown graph key {key!r}")
                self.materialize(key)
            self._touch(key)
            return path.read_bytes()

    def put_bytes(self, data: bytes, name: str = "", pin: bool = False) -> str:
        """Catalog a graph received as NPZ bytes; returns its content key.

        The inverse of :meth:`export_bytes`. The archive is parsed and
        re-keyed through :meth:`put`, so the returned key is derived from
        the actual edge arrays — a corrupted or mislabeled transfer can
        never poison the catalog under a wrong key.
        """
        import io

        with np.load(io.BytesIO(data)) as z:
            graph = Graph.from_arrays(
                int(z["n_vertices"]),
                np.array(z["edge_u"], dtype=np.int64),
                np.array(z["edge_v"], dtype=np.int64),
                check=False,
            )
        return self.put(graph, name=name, pin=pin)

    def shard_of(self, key: str, n_shards: int) -> int:
        """See module-level :func:`shard_of` (kept on the class for callers
        holding only a catalog)."""
        return shard_of(key, n_shards)

    def meta(self, key: str) -> dict:
        """Index metadata for one graph (raises ``KeyError`` if unknown)."""
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                raise KeyError(f"unknown graph key {key!r}")
            return dict(entry)

    def pin(self, key: str) -> None:
        """Exempt ``key`` from eviction while in use (refcounted)."""
        with self._lock:
            if key not in self._index:
                raise KeyError(f"unknown graph key {key!r}")
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: str) -> None:
        """Release one :meth:`pin` reference (no-op when not pinned)."""
        with self._lock:
            count = self._pins.get(key, 0) - 1
            if count > 0:
                self._pins[key] = count
            elif self._pins.pop(key, None) is not None and not self._hot(key):
                self._forget(key)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            seen: set[str] = set()
            while key in self._index and key not in seen:
                if self._graph_path(key).exists():
                    return True
                seen.add(key)
                # Unmaterialized delta child: resolvable iff the delta
                # file survives and the chain bottoms out in a real NPZ.
                parent = self._index[key].get("delta_of")
                if parent is None or not self._delta_path(key).exists():
                    return False
                key = parent
            return False

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._index)

    def entries(self) -> list[dict]:
        """Index rows for the serving front end (key + metadata)."""
        with self._lock:
            return [
                {"graph_key": k, **self._index[k]} for k in sorted(self._index)
            ]

    # -- delta chains -------------------------------------------------------

    def mutate(self, base_key: str, delta, name: str = "",
               pin: bool = False, faults=None) -> str:
        """Apply ``delta`` to a cataloged graph; the child's content key.

        The child graph is kept hot in the in-process table and keyed by
        its true content hash, but **only the delta NPZ** is persisted
        (``deltas/<child>.npz`` plus a ``delta_of`` index back-pointer) —
        the full child archive is written lazily by :meth:`materialize`.
        The base, now superseded, leaves memory unless pinned (a root
        stays). Idempotent: re-applying the same delta lands on the same
        key.
        """
        from ..deltas.delta import GraphDelta

        if not isinstance(delta, GraphDelta):
            raise ValueError(f"mutate expects a GraphDelta, got {type(delta)}")
        with self._lock:
            if base_key not in self._index:
                raise KeyError(f"unknown graph key {base_key!r}")
            if faults is not None:
                faults.delta_apply()
            base = self.get(base_key)
            child = delta.apply(base)
            key = graph_key(child)
            self._events["mutations"].inc()
            if key in self._index:
                self._touch(key)
                if pin:
                    self._pins[key] = self._pins.get(key, 0) + 1
                self._keep(key, child)
                return key
            dpath = self._delta_path(key)
            dpath.write_bytes(delta.to_bytes())
            self._index[key] = {
                "name": name,
                "n_vertices": child.n_vertices,
                "n_edges": child.n_edges,
                "bytes": dpath.stat().st_size,
                "created": time.time(),
                "last_used": time.time(),
                "delta_of": base_key,
            }
            self._graphs[key] = child
            self._live[key] = weakref.ref(child)
            if pin:
                self._pins[key] = self._pins.get(key, 0) + 1
            if not self._hot(base_key):
                self._forget(base_key)
            self._evict_to_budget(protect=key)
            self._save_index()
        return key

    def delta_parent(self, key: str) -> str | None:
        """The chain parent of ``key`` (``None`` for root graphs)."""
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                raise KeyError(f"unknown graph key {key!r}")
            return entry.get("delta_of")

    def load_delta(self, key: str):
        """The stored :class:`GraphDelta` producing ``key`` from its parent."""
        from ..deltas.delta import GraphDelta

        with self._lock:
            path = self._delta_path(key)
            if key not in self._index or not path.exists():
                raise KeyError(f"no stored delta for graph key {key!r}")
            return GraphDelta.from_bytes(path.read_bytes())

    def export_delta_bytes(self, key: str) -> tuple[str, bytes]:
        """``(parent_key, delta_npz_bytes)`` for remote delta shipping.

        Raises ``KeyError`` when ``key`` is a root graph or its delta file
        is gone — callers fall back to :meth:`export_bytes`.
        """
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                raise KeyError(f"unknown graph key {key!r}")
            parent = entry.get("delta_of")
            path = self._delta_path(key)
            if parent is None or not path.exists():
                raise KeyError(f"no stored delta for graph key {key!r}")
            return parent, path.read_bytes()

    def put_delta_bytes(self, parent_key: str, data: bytes,
                        name: str = "") -> str:
        """Catalog a delta received as NPZ bytes (remote host side).

        The inverse of :meth:`export_delta_bytes`: the delta is re-applied
        against the locally-held parent and the child is re-keyed from the
        actual arrays, so a corrupted transfer cannot poison the shard.
        """
        from ..deltas.delta import GraphDelta

        return self.mutate(parent_key, GraphDelta.from_bytes(data), name=name)

    def materialize(self, key: str) -> Path:
        """Write the full NPZ for a delta child (idempotent); its path.

        The delta file and ``delta_of`` pointer survive materialization —
        they keep serving remote delta shipping and provenance — but the
        chain no longer *needs* the parent, so eviction protection lapses.
        """
        with self._lock:
            if key not in self._index:
                raise KeyError(f"unknown graph key {key!r}")
            path = self._graph_path(key)
            if not path.exists():
                g = self.get(key)
                save_npz(g, path, compressed=False)
                self._index[key]["bytes"] = path.stat().st_size
                self._save_index()
            return path

    def _chain_protected(self) -> set[str]:
        """Keys some *unmaterialized* delta child still needs to rebuild."""
        protected: set[str] = set()
        for key, entry in self._index.items():
            parent = entry.get("delta_of")
            if parent is None or self._graph_path(key).exists():
                continue
            seen = {key}
            while parent is not None and parent in self._index:
                protected.add(parent)
                if (self._graph_path(parent).exists()
                        or parent in seen):
                    break  # chain bottoms out (or is cyclic/corrupt)
                seen.add(parent)
                parent = self._index[parent].get("delta_of")
        return protected

    # -- derived artifacts -------------------------------------------------

    def partition_map(
        self, key: str, partitioner: str, n_parts: int, seed: int
    ) -> dict:
        """A cached vertex→partition map entry for this graph.

        The returned dict is exactly what
        :func:`repro.pipeline.setup.cached_partition` validates: the map
        plus the full key it was computed under (clamped part count, graph
        shape). Computed once per ``(graph, partitioner, n_parts, seed)``
        and persisted; later calls hit memory or disk.
        """
        with self._lock:
            meta = self._index.get(key)
            if meta is None:
                raise KeyError(f"unknown graph key {key!r}")
            # Clamp exactly like Setup so the entry key always matches.
            n_eff = max(1, min(int(n_parts), int(meta["n_vertices"])))
            ck = (key, partitioner, n_eff, int(seed))
            entry = self._partitions.get(ck)
            if entry is not None:
                self._events["partition_hits"].inc()
                return entry
            path = self._derived_dir(key) / f"part_{partitioner}_p{n_eff}_s{seed}.npz"
            if path.exists():
                with np.load(path) as z:
                    part_of = np.array(z["part_of"], dtype=np.int64)
                self._events["partition_hits"].inc()
            else:
                # A delta child's canonical map is the parent's map
                # extended over the delta — this is what makes incremental
                # repair and a full recompute of the child see the same
                # partitioning (and therefore the same circuit).
                part_of = self._extended_partition(
                    key, meta, partitioner, n_parts, seed, n_eff
                )
                if part_of is None:
                    self._events["partition_misses"].inc()
                    g = self.get(key)
                    part_of = np.asarray(
                        partition_graph(
                            g, n_eff, method=partitioner, seed=seed
                        ).part_of,
                        dtype=np.int64,
                    )
                else:
                    self._events["partition_extensions"].inc()
                with atomic_write(path, suffix=".npz") as fh:
                    np.savez(fh, part_of=part_of)
            entry = {
                "part_of": part_of,
                "n_parts": n_eff,
                "partitioner": partitioner,
                "seed": int(seed),
                "n_vertices": int(meta["n_vertices"]),
                "n_edges": int(meta["n_edges"]),
            }
            if self._hot(key):
                self._partitions[ck] = entry
            return entry

    def _extended_partition(self, key: str, meta: dict, partitioner: str,
                            n_parts: int, seed: int, n_eff: int):
        """Parent map extended over ``key``'s delta, or ``None``.

        New vertices join the partition of their first already-placed
        endpoint in delta-insert order (partition 0 when every neighbour
        is also new) — deterministic, so every process derives the same
        extension. Falls back to ``None`` (cold partitioning) when the
        clamped part counts disagree between parent and child.
        """
        parent = meta.get("delta_of")
        if parent is None or parent not in self._index:
            return None
        if not self._delta_path(key).exists():
            return None
        parent_entry = self.partition_map(parent, partitioner, n_parts, seed)
        if parent_entry["n_parts"] != n_eff:
            return None
        from ..deltas.delta import extend_part_of

        return extend_part_of(parent_entry["part_of"], self.load_delta(key))

    def eulerize_plan(self, key: str) -> dict:
        """A cached postman eulerization plan for this graph (see postman)."""
        from ..scenarios.postman import eulerize_plan as compute_plan

        with self._lock:
            if key not in self._index:
                raise KeyError(f"unknown graph key {key!r}")
            plan = self._plans.get(key)
            if plan is not None:
                self._events["plan_hits"].inc()
                return plan
            path = self._derived_dir(key) / "eulerize_plan.npz"
            if path.exists():
                with np.load(path) as z:
                    plan = {
                        "dup_u": np.array(z["dup_u"], dtype=np.int64),
                        "dup_v": np.array(z["dup_v"], dtype=np.int64),
                        "dup_orig": np.array(z["dup_orig"], dtype=np.int64),
                        "n_odd_vertices": int(z["n_odd_vertices"]),
                        "n_vertices": int(z["n_vertices"]),
                        "n_edges": int(z["n_edges"]),
                    }
                self._events["plan_hits"].inc()
            else:
                self._events["plan_misses"].inc()
                plan = compute_plan(self.get(key))
                with atomic_write(path, suffix=".npz") as fh:
                    np.savez(fh, **plan)
            if self._hot(key):
                self._plans[key] = plan
            return plan

    def derived_for(self, key: str, config, scenario: str) -> dict:
        """Assemble the ``RunConfig.derived`` mapping for one job.

        Always includes the partition map for the cataloged graph under the
        job's partitioning key; adds the eulerization plan for postman
        jobs. Sub-problems whose graph differs from the cataloged one
        (components, augmented path/postman graphs) fail the pipeline's
        validation checks and recompute — correctness never depends on what
        is injected here.
        """
        derived = {
            "partition_map": self.partition_map(
                key, config.partitioner, config.n_parts, config.seed
            )
        }
        if scenario == "postman":
            derived["eulerize_plan"] = self.eulerize_plan(key)
        return derived

    # -- eviction ----------------------------------------------------------

    def disk_bytes(self) -> int:
        """Total on-disk footprint of graphs + derived artifacts."""
        with self._lock:
            total = 0
            for key in self._index:
                for p in (self._graph_path(key), self._delta_path(key)):
                    if p.exists():
                        total += p.stat().st_size
                d = self._derived_dir(key)
                if d.exists():
                    total += _dir_bytes(d)
            return total

    def _evict_to_budget(self, protect: str | None = None) -> None:
        if self.size_budget_bytes is None:
            return
        while self.disk_bytes() > self.size_budget_bytes and len(self._index) > 1:
            # Chain parents an unmaterialized child still rebuilds through
            # are as untouchable as pins: evicting one would strand every
            # descendant delta (see the evict-parent regression test).
            chained = self._chain_protected()
            victims = sorted(
                (k for k in self._index
                 if k != protect and k not in self._pins
                 and k not in chained),
                key=lambda k: self._index[k]["last_used"],
            )
            if not victims:
                return
            self._evict(victims[0])

    def _evict(self, key: str) -> None:
        # Drop the catalog's own strong reference *before* probing the
        # weakref: what's left alive after this pop is exactly the set of
        # in-flight users still reading through the graph's mmap.
        self._forget(key)
        self._index.pop(key, None)
        self._events["evictions"].inc()
        ref = self._live.pop(key, None)
        live = ref() if ref is not None else None
        if live is not None:
            # An in-flight job still holds the mmap'd Graph; unlinking now
            # would yank its pages. Defer the file removal to the moment
            # the last reference dies (re-checking that the key wasn't
            # re-published in the meantime).
            weakref.finalize(live, self._deferred_unlink, key)
        else:
            self._unlink_files(key)

    def _unlink_files(self, key: str) -> None:
        self._graph_path(key).unlink(missing_ok=True)
        self._delta_path(key).unlink(missing_ok=True)
        shutil.rmtree(self._derived_dir(key), ignore_errors=True)

    def _deferred_unlink(self, key: str) -> None:
        with self._lock:
            if key in self._index:
                return  # re-published since eviction; files are live again
            self._unlink_files(key)
