"""Deterministic fault injection: seeded plans driving chaos tests.

The paper's BSP model assumes machines that fail; proving the serving
stack actually survives worker death needs faults that fire *on demand*,
at a *known point*, and — crucially — stop firing on the retry so the
recovered run can be compared bit-for-bit against an unfaulted one. A
:class:`FaultPlan` is that switch: a small, picklable list of
:class:`FaultSpec` records threaded through
:class:`~repro.pipeline.context.RunConfig` (``config.faults``) or armed
process-wide via the ``REPRO_FAULTS`` environment variable.

Fault kinds
-----------
``worker_kill``
    ``os.kill(getpid(), SIGKILL)`` at superstep ``at`` — inside a forked
    dispatcher worker this is a real, unclean worker death (the parent
    sees EOF on the pipe); in-process it degrades to a
    :class:`~repro.errors.FaultInjectedError` (you cannot SIGKILL a
    thread without taking the server with it).
``fail``
    Raise :class:`~repro.errors.FaultInjectedError` at superstep ``at`` —
    the portable transient failure used to exercise the retry path on the
    thread dispatcher.
``slow``
    Sleep ``delay`` seconds at superstep ``at`` — drives hang detection
    and deadline tests without touching the data plane.
``delta_apply``
    Make the next catalog delta application raise
    :class:`~repro.errors.FaultInjectedError` — exercises the mutation
    front end's error path and proves a failed ``PATCH`` leaves the
    catalog (and any watch jobs on the base graph) untouched.
``host_kill``
    ``os.kill(getpid(), SIGKILL)`` at superstep ``at`` — inside a
    dedicated :class:`~repro.jobs.remote.WorkerHost` process (the
    ``repro-euler worker`` entry sets ``REPRO_FAULT_HOST``) this is a
    real, unclean host death: the coordinator sees the socket drop and
    must re-dispatch the job to a surviving host. Anywhere else it
    degrades to a :class:`~repro.errors.FaultInjectedError`, so an
    in-process :class:`WorkerHost` (tests) survives and merely fails
    the run transiently.

Attempt arming
--------------
Every spec has ``attempts`` (default 1): it fires only while the job's
retry attempt index is ``< attempts``. The engine calls
:meth:`FaultPlan.for_attempt` when hydrating a job's config, so a plan
that kills attempt 0 leaves the retried attempt untouched — which is what
makes "the retried circuit is bit-identical to an unfaulted run" a
checkable assertion instead of a race.

``REPRO_FAULTS`` grammar (specs joined by ``;``)::

    kind@key=value,key=value
    worker_kill@at=2
    fail@at=0,attempts=2;slow@at=1,delay=0.5

Faults only ever abort or delay a run — they never mutate data — so any
run that completes, faulted or not, produces the canonical result.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from .errors import FaultInjectedError

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS"]

#: Every fault kind the harness can inject.
FAULT_KINDS = ("worker_kill", "fail", "slow", "host_kill", "delta_apply")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what fires, where, and on which attempts."""

    kind: str
    #: Superstep index the fault fires at (``worker_kill``/``fail``/``slow``/
    #: ``host_kill``; ignored by ``delta_apply``). ``0`` is the first
    #: superstep boundary.
    at: int = 0
    #: Fire only while the job's attempt index is below this (so retries
    #: run clean by default).
    attempts: int = 1
    #: Sleep duration for ``slow``.
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.at < 0 or self.attempts < 1 or self.delay < 0:
            raise ValueError(f"invalid fault spec {self!r}")


class FaultPlan:
    """A deterministic set of faults for one run (picklable, re-armable).

    The plan is stateful per process: :meth:`superstep` counts boundaries
    as the pipeline calls it, so "kill at superstep 2" means the third
    boundary this plan observes. Crossing a fork pipe (the forked
    dispatcher spec) resets the counter naturally — each worker-side run
    starts at boundary 0.
    """

    def __init__(self, specs: list[FaultSpec] | tuple = (), seed: int = 0):
        self.specs = tuple(specs)
        self.seed = seed
        self._boundary = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar into a plan."""
        specs = []
        for chunk in str(text).split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, args = chunk.partition("@")
            kwargs: dict = {}
            for pair in filter(None, (p.strip() for p in args.split(","))):
                key, _, value = pair.partition("=")
                if key == "delay":
                    kwargs["delay"] = float(value)
                elif key in ("at", "attempts"):
                    kwargs[key] = int(value)
                else:
                    raise ValueError(f"unknown fault arg {key!r} in {chunk!r}")
            specs.append(FaultSpec(kind.strip(), **kwargs))
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """The process-wide plan from ``REPRO_FAULTS``, or ``None``."""
        text = (environ if environ is not None else os.environ).get(
            "REPRO_FAULTS", ""
        ).strip()
        return cls.parse(text) if text else None

    def for_attempt(self, attempt: int) -> "FaultPlan | None":
        """The plan as seen by retry ``attempt`` (``None`` when disarmed).

        Specs whose ``attempts`` bound the given attempt index has reached
        are dropped, so a default plan fires on the first attempt only and
        the retried run executes clean.
        """
        live = [s for s in self.specs if attempt < s.attempts]
        return FaultPlan(live, seed=self.seed) if live else None

    # -- injection points ---------------------------------------------------

    def superstep(self) -> None:
        """Fire any superstep-scoped fault due at this boundary."""
        k = self._boundary
        self._boundary += 1
        for spec in self.specs:
            if spec.at != k:
                continue
            if spec.kind == "slow":
                time.sleep(spec.delay)
            elif spec.kind == "fail":
                raise FaultInjectedError(
                    f"injected failure at superstep {k}"
                )
            elif spec.kind == "worker_kill":
                self._kill(k)
            elif spec.kind == "host_kill":
                self._kill(k, host=True)

    def delta_apply(self) -> None:
        """Fire a pending ``delta_apply`` fault (consume it, then raise)."""
        for spec in self.specs:
            if spec.kind == "delta_apply":
                self.specs = tuple(s for s in self.specs if s is not spec)
                raise FaultInjectedError(
                    "injected delta application failure"
                )

    def _kill(self, k: int, host: bool = False) -> None:
        # Only a process that *opted in* by exporting the marker with its
        # own pid dies for real; everything else — including an in-process
        # WorkerHost inside a test — degrades to a transient raise.
        marker = "REPRO_FAULT_HOST" if host else "REPRO_FAULT_WORKER"
        if os.environ.get(marker) == str(os.getpid()):
            # A forked worker / dedicated host: die the way a real crash does.
            os.kill(os.getpid(), signal.SIGKILL)
        what = "host" if host else "worker"
        raise FaultInjectedError(
            f"injected {what} kill at superstep {k} "
            "(in-process: raised instead of SIGKILL)"
        )

    # -- plumbing -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        inner = ";".join(
            f"{s.kind}@at={s.at},attempts={s.attempts}"
            + (f",delay={s.delay:g}" if s.delay else "")
            for s in self.specs
        )
        return f"FaultPlan({inner!r}, seed={self.seed})"

    def __getstate__(self):
        return {"specs": self.specs, "seed": self.seed}

    def __setstate__(self, state):
        self.specs = state["specs"]
        self.seed = state.get("seed", 0)
        self._boundary = 0
