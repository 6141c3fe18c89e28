"""Deterministic fault injection for the simulated machine.

The paper's platform (a 16-node IBM-SP2) loses nodes, drops disk
accesses and runs hot spares slow; the simulated machine models those
hazards so the recovery machinery can be exercised reproducibly. A
:class:`FaultPlan` names a set of faults; a :class:`FaultInjector` armed
with ``(plan, seed)`` replays them bit-for-bit identically on every run:

* :class:`CrashAtCollective` — kill a rank at its Nth collective call;
* :class:`CrashAtPhase` — kill a rank entering a named
  :class:`~repro.cluster.clock.PhaseTimer` phase;
* :class:`TransientDiskFaults` — a window of chunk accesses fails with
  :class:`~repro.ooc.backend.TransientDiskError` (retried by the disk
  with backoff charged to the simulated clock);
* :class:`CorruptChunk` — flip one seeded bit in the Nth chunk a rank
  writes (caught by the per-chunk CRC32 on the next read);
* :class:`SlowRank` — multiply a rank's local-work clock rate
  (straggler simulation).

Crashes and corruptions are **one-shot**: once fired they stay spent
across restart attempts, modelling a node that crashed once and came
back — which is what lets ``PClouds.fit(faults=..., recover=True)``
converge to the fault-free tree. Every firing is appended to
:attr:`FaultInjector.events` and published to the rank's observers as
``record_fault`` (a ``fault`` trace event, a ``repro_faults_total``
count).

The injector subscribes first to each rank's event stream
(:mod:`repro.cluster.events`): its ``before_collective`` and
``before_phase`` hooks run ahead of every other observer and may crash
the rank before the primitive or phase starts. A straggler fires as the
first attempt begins, so observers subscribed after the injector still
see it::

    injector = FaultInjector(plan, seed=0)
    injector.attach(contexts)
    tracers = attach_tracers(contexts)      # optional, in any order
    injector.begin_attempt()
    cluster.run(program, contexts=contexts)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .comm import WORLD
from .errors import InjectedFault
from .events import publish, subscribe

__all__ = [
    "CrashAtCollective",
    "CrashAtPhase",
    "TransientDiskFaults",
    "CorruptChunk",
    "SlowRank",
    "FaultPlan",
    "FaultInjector",
    "standard_plans",
]


# -- fault specifications -----------------------------------------------------


@dataclass(frozen=True)
class CrashAtCollective:
    """Kill ``rank`` when it reaches its ``nth`` (0-based) collective
    call on the world communicator."""

    rank: int
    nth: int


@dataclass(frozen=True)
class CrashAtPhase:
    """Kill ``rank`` on its ``visit``-th entry (0-based) into the named
    :class:`~repro.cluster.clock.PhaseTimer` phase."""

    rank: int
    phase: str
    visit: int = 0


@dataclass(frozen=True)
class TransientDiskFaults:
    """Fail ``count`` consecutive chunk accesses of kind ``op`` ("get" or
    "put") on ``rank``, starting at access index ``start`` (0-based,
    counted per attempt). Retried in place by the disk's backoff; only a
    window wider than the retry budget crashes the rank."""

    rank: int
    op: str = "get"
    start: int = 0
    count: int = 1


@dataclass(frozen=True)
class CorruptChunk:
    """Silently flip one bit (chosen by the injector seed) in the
    ``nth_put``-th chunk ``rank`` writes. Detection is the CRC's job."""

    rank: int
    nth_put: int


@dataclass(frozen=True)
class SlowRank:
    """Run ``rank``'s local work ``factor``× slower (straggler). Not a
    failure: the run completes, the cost model feels the drag."""

    rank: int
    factor: float = 2.0


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered set of fault specifications."""

    name: str
    faults: tuple[Any, ...] = ()

    @classmethod
    def of(cls, name: str, *faults: Any) -> "FaultPlan":
        return cls(name=name, faults=tuple(faults))


# -- the injector -------------------------------------------------------------


@dataclass
class FaultInjector:
    """Arms a :class:`FaultPlan` against a set of rank contexts.

    Deterministic from ``(plan, seed)``: collective/phase/disk-access
    indices are counted per rank, and the corrupted bit position comes
    from a seeded generator — two runs with the same plan, seed, and
    program fire byte-identical faults.
    """

    plan: FaultPlan
    seed: int = 0
    #: host-side log of every fired fault:
    #: ``{"rank", "attempt", "fault", "t"}`` dicts in firing order.
    events: list[dict] = field(default_factory=list)
    attempts: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.plan, FaultPlan):
            self.plan = FaultPlan.of("adhoc", *self.plan)
        self._fired: set[int] = set()  # one-shot fault indices already spent
        self._contexts: list | None = None
        self._collective_count: dict[int, int] = {}
        self._phase_visits: dict[tuple[int, str], int] = {}
        self._disk_count: dict[tuple[int, str], int] = {}

    # -- wiring --------------------------------------------------------------
    def attach(self, contexts: list) -> None:
        """Subscribe to every context's event stream, wrap its storage
        backend and slow its clock if the plan says so. Idempotent."""
        if self._contexts is not None:
            return
        self._contexts = list(contexts)
        for ctx in contexts:
            subscribe(ctx.observers, _RankFaults(self, ctx))
            ctx.disk.backend = _FaultyBackend(ctx.disk.backend, self, ctx)
            for _, f in self._specs(ctx.rank, SlowRank):
                ctx.clock.rate = float(f.factor)

    def begin_attempt(self) -> None:
        """Reset the per-attempt counters (collective index, phase
        visits, disk-access index). One-shot faults stay spent. The
        first attempt fires the stragglers' events."""
        if self.attempts == 0:
            for ctx in self._contexts or ():
                for _, f in self._specs(ctx.rank, SlowRank):
                    self._emit(ctx, f"fault:slow-rank×{f.factor:g}")
        self.attempts += 1
        self._collective_count.clear()
        self._phase_visits.clear()
        self._disk_count.clear()

    # -- firing points -------------------------------------------------------
    def before_collective(self, ctx, opname: str) -> None:
        n = self._collective_count.get(ctx.rank, 0)
        self._collective_count[ctx.rank] = n + 1
        for i, f in self._specs(ctx.rank, CrashAtCollective):
            if i not in self._fired and f.nth == n:
                self._fired.add(i)
                self._emit(ctx, f"fault:crash@collective#{n}:{opname}")
                raise InjectedFault(
                    f"rank {ctx.rank}: injected crash at collective "
                    f"#{n} ({opname})"
                )

    def before_phase(self, ctx, phase: str) -> None:
        key = (ctx.rank, phase)
        v = self._phase_visits.get(key, 0)
        self._phase_visits[key] = v + 1
        for i, f in self._specs(ctx.rank, CrashAtPhase):
            if i not in self._fired and f.phase == phase and f.visit == v:
                self._fired.add(i)
                self._emit(ctx, f"fault:crash@phase:{phase}#{v}")
                raise InjectedFault(
                    f"rank {ctx.rank}: injected crash entering phase "
                    f"{phase!r} (visit {v})"
                )

    def before_disk(self, ctx, op: str) -> None:
        from repro.ooc.backend import TransientDiskError

        key = (ctx.rank, op)
        n = self._disk_count.get(key, 0)
        self._disk_count[key] = n + 1
        for _, f in self._specs(ctx.rank, TransientDiskFaults):
            if f.op == op and f.start <= n < f.start + f.count:
                self._emit(ctx, f"fault:transient-{op}#{n}")
                raise TransientDiskError(
                    f"rank {ctx.rank}: injected transient {op} error "
                    f"(access #{n})"
                )

    def after_put(self, ctx, backend, handle) -> None:
        n_put = self._disk_count.get((ctx.rank, "put"), 0) - 1  # just counted
        for i, f in self._specs(ctx.rank, CorruptChunk):
            if i not in self._fired and f.nth_put == n_put:
                self._fired.add(i)
                arr = backend.get(handle)
                if arr.nbytes == 0:
                    return
                rng = np.random.default_rng(
                    np.random.SeedSequence([self.seed, ctx.rank, i])
                )
                raw = bytearray(arr.tobytes())
                byte = int(rng.integers(len(raw)))
                bit = int(rng.integers(8))
                raw[byte] ^= 1 << bit
                backend.overwrite(
                    handle,
                    np.frombuffer(bytes(raw), dtype=arr.dtype).reshape(arr.shape),
                )
                self._emit(
                    ctx, f"fault:corrupt-chunk#{n_put}@byte{byte}.bit{bit}"
                )

    # -- helpers -------------------------------------------------------------
    def _specs(self, rank: int, kind: type) -> Iterator[tuple[int, Any]]:
        for i, f in enumerate(self.plan.faults):
            if isinstance(f, kind) and f.rank == rank:
                yield i, f

    def _emit(self, ctx, label: str) -> None:
        t = ctx.clock.now
        self.events.append(
            {"rank": ctx.rank, "attempt": self.attempts, "fault": label, "t": t}
        )
        publish(ctx.observers, "record_fault", label, t)

    @property
    def n_fired(self) -> int:
        return len(self.events)


class _RankFaults:
    """The injector as one rank's observer, first in dispatch order:
    crash points fire before the collective or phase starts. Only
    collectives on the world communicator count toward
    :class:`CrashAtCollective`'s index."""

    dispatch_slot = 0

    def __init__(self, injector: FaultInjector, ctx) -> None:
        self._injector = injector
        self._ctx = ctx

    def before_collective(self, op: str, comm: str) -> None:
        if comm == WORLD:
            self._injector.before_collective(self._ctx, op)

    def before_phase(self, phase: str) -> None:
        self._injector.before_phase(self._ctx, phase)


class _FaultyBackend:
    """StorageBackend wrapper: transient errors before the access, bit
    flips after a targeted put. Duck-typed so it wraps any backend."""

    def __init__(self, inner, injector: FaultInjector, ctx) -> None:
        self._inner = inner
        self._injector = injector
        self._ctx = ctx

    def put(self, arr):
        self._injector.before_disk(self._ctx, "put")
        handle = self._inner.put(arr)
        self._injector.after_put(self._ctx, self._inner, handle)
        return handle

    def get(self, handle):
        self._injector.before_disk(self._ctx, "get")
        return self._inner.get(handle)

    def delete(self, handle):
        self._inner.delete(handle)

    def overwrite(self, handle, arr):
        self._inner.overwrite(handle, arr)

    def close(self):
        self._inner.close()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


# -- a small chaos catalogue --------------------------------------------------


def standard_plans(n_ranks: int) -> list[FaultPlan]:
    """The chaos sweep's built-in fault matrix, scaled to the machine
    size: one plan per fault family, each recoverable by design (crashes
    and corruptions are one-shot; transient windows fit the retry
    budget). Used by ``repro chaos`` and the determinism test matrix."""
    victim = min(1, n_ranks - 1)
    last = n_ranks - 1
    return [
        FaultPlan.of("crash-collective", CrashAtCollective(rank=victim, nth=8)),
        FaultPlan.of("crash-phase", CrashAtPhase(rank=last, phase="partition")),
        FaultPlan.of(
            "disk-transient",
            TransientDiskFaults(rank=0, op="get", start=3, count=2),
        ),
        FaultPlan.of("chunk-corruption", CorruptChunk(rank=last, nth_put=2)),
        FaultPlan.of("straggler", SlowRank(rank=last, factor=4.0)),
    ]
