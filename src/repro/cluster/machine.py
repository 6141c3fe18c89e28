"""The simulated coarse-grained machine: SPMD launcher and rank contexts.

:class:`Cluster` models the paper's platform (Section 2): p processors,
each with its own memory budget and local disk, connected by a
cut-through-routed network. ``Cluster.run(program)`` launches one thread
per rank; each thread executes ``program(ctx, *args, **kwargs)`` against
its :class:`RankContext`. All cross-rank time relationships flow through
the communicator, so the *simulated* elapsed time (max over the ranks'
final clocks) is deterministic regardless of host thread scheduling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from typing import TYPE_CHECKING

import numpy as np

from .clock import PhaseTimer, SimClock
from .comm import Comm, CommWorld
from .compute import ComputeModel
from .diskmodel import DiskModel
from .errors import ClusterAborted, SpmdProgramError
from .events import publish
from .network import NetworkModel
from .stats import RankStats, RunStats

if TYPE_CHECKING:  # ooc imports cluster's cost models; keep runtime import lazy
    from repro.ooc.backend import StorageBackend


class RankContext:
    """Everything one simulated processor owns.

    Attributes
    ----------
    rank, size : position in the machine.
    clock : simulated time.
    comm : MPI-like communicator bound to this rank.
    disk : the node's local disk (charges the clock).
    memory : per-node main-memory budget.
    rng : per-rank numpy Generator, seeded from (cluster seed, rank).
    stats : resource counters.
    timer : phase attribution of simulated time.
    observers : the rank's ordered event subscribers (fault injector,
        tracer, metrics recorder, ...). The communicator, disk and phase
        timer publish to them; driver programs add milestones via
        :meth:`notify`.
    tree : the forest member a :class:`GroupContext` fits; None here,
        for a single-tree fit.
    """

    tree: int | None = None

    def __init__(
        self,
        rank: int,
        world: CommWorld,
        *,
        compute: ComputeModel,
        disk_model: DiskModel,
        memory_limit: int | None,
        backend: "StorageBackend | None",
        seed: int,
        buffer_pool: str = "off",
        pool_bytes: int | None = None,
    ) -> None:
        from repro.ooc.bufferpool import BufferPool
        from repro.ooc.disk import LocalDisk
        from repro.ooc.memory import MemoryBudget

        self.rank = rank
        self.size = world.size
        self.clock = SimClock()
        self.stats = RankStats()
        self.compute = compute
        self.observers: list[Any] = []
        self.comm = Comm(world, rank, self)
        self.disk = LocalDisk(
            disk_model, self.clock, self.stats, backend, observers=self.observers
        )
        self.memory = MemoryBudget(limit=memory_limit)
        self.pool_budget: MemoryBudget | None = None
        if buffer_pool != "off":
            # Cache RAM is its own budget: the paper's "memory limit" is
            # the node-processing threshold (open_node), not the node's
            # total RAM — the pool models the rest of that RAM put to
            # work as an I/O cache, sized relative to the limit.
            cap = pool_bytes if pool_bytes is not None else _default_pool_bytes(
                memory_limit
            )
            self.pool_budget = MemoryBudget(limit=cap)
            self.disk.attach_pool(
                BufferPool(
                    self.pool_budget, prefetch=(buffer_pool == "lru+prefetch")
                )
            )
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, rank]))
        self.timer = PhaseTimer(self.clock, observers=self.observers)

    def notify(self, event: str, *args: Any) -> None:
        """Deliver a driver milestone (``begin_level``, ``end_level``,
        ``on_survival``, ...) to every observer that implements it, on
        the same ordered list the communicator, disk and phase timer
        publish to (:mod:`repro.cluster.events`)."""
        publish(self.observers, event, *args)

    def charge_compute(self, ops: float = 0.0, seconds: float = 0.0) -> None:
        """Charge local CPU work, by op count and/or directly in seconds."""
        dt = seconds + (self.compute.cost(ops) if ops else 0.0)
        if dt:
            self.clock.advance(dt)
            self.stats.compute_time += dt

    def charge_sort(self, n: int) -> None:
        """Charge a comparison sort of n keys."""
        self.charge_compute(seconds=self.compute.sort(n))


class _PrefixedTimer:
    """View of a rank's :class:`PhaseTimer` that namespaces phase names
    (``tree3/stats``): the tree driver keeps its phase vocabulary while
    traces, metrics and the critical path see per-tree attribution."""

    def __init__(self, base: PhaseTimer, prefix: str) -> None:
        self._base = base
        self._prefix = prefix

    def start(self, name: str) -> None:
        self._base.start(self._prefix + name)

    def stop(self) -> None:
        self._base.stop()

    @property
    def current(self) -> str | None:
        return self._base.current

    @property
    def totals(self) -> dict[str, float]:
        return self._base.totals

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)


class GroupContext:
    """A :class:`RankContext` view bound to a sub-communicator.

    Tree-parallel forest regimes split the world into disjoint rank
    groups (``Comm.split``); the per-tree fit program then runs against a
    context whose ``comm``/``rank``/``size`` are the *group's* while disk,
    clock, memory, rng, stats and observers remain the underlying
    physical rank's. ``tree`` names the forest member fitted: phase names
    are namespaced ``tree3/...`` so tracing and metrics attribute time per
    tree, and the health monitor labels the tree's level rows with it.
    """

    def __init__(
        self, base: RankContext, comm: Comm, *, tree: int | None = None
    ) -> None:
        self._base = base
        self.comm = comm
        self.rank = comm.rank
        self.size = comm.size
        self.tree = tree
        self.timer = (
            base.timer if tree is None else _PrefixedTimer(base.timer, f"tree{tree}/")
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)


@dataclass
class SpmdRun:
    """Outcome of one ``Cluster.run``: per-rank return values, the
    simulated elapsed time, and resource statistics."""

    results: list[Any]
    elapsed: float
    stats: RunStats
    phase_times: list[dict[str, float]] = field(default_factory=list)

    @property
    def result(self) -> Any:
        """Rank 0's return value (SPMD programs usually assemble there)."""
        return self.results[0]


#: default buffer-pool capacity relative to the node-processing memory
#: limit — the cache RAM a node has left once the processing working set
#: is carved out (see RankContext); 64 MiB when the machine is unlimited
POOL_LIMIT_RATIO = 4
DEFAULT_POOL_BYTES = 64 * 2**20


def _default_pool_bytes(memory_limit: int | None) -> int:
    if memory_limit is None:
        return DEFAULT_POOL_BYTES
    return POOL_LIMIT_RATIO * int(memory_limit)


class Cluster:
    """A p-processor shared-nothing machine with analytic cost models."""

    BUFFER_POOL_MODES = ("off", "lru", "lru+prefetch")

    def __init__(
        self,
        n_ranks: int,
        *,
        network: NetworkModel | None = None,
        disk: DiskModel | None = None,
        compute: ComputeModel | None = None,
        memory_limit: int | None = None,
        backend_factory: Callable[[], StorageBackend] | None = None,
        seed: int = 0,
        timeout: float = 300.0,
        buffer_pool: str = "off",
        pool_bytes: int | None = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        if buffer_pool not in self.BUFFER_POOL_MODES:
            raise ValueError(
                f"buffer_pool must be one of {self.BUFFER_POOL_MODES}, "
                f"got {buffer_pool!r}"
            )
        self.n_ranks = n_ranks
        self.network = network or NetworkModel()
        self.disk_model = disk or DiskModel()
        self.compute = compute or ComputeModel()
        self.memory_limit = memory_limit
        self.backend_factory = backend_factory
        self.seed = seed
        self.timeout = timeout
        self.buffer_pool = buffer_pool
        self.pool_bytes = pool_bytes

    def make_contexts(self) -> list[RankContext]:
        """Fresh rank contexts sharing one communication world (exposed so
        callers can pre-load disks and then run several programs against
        the same machine state)."""
        world = CommWorld(self.n_ranks, self.network, self.timeout)
        return [
            RankContext(
                r,
                world,
                compute=self.compute,
                disk_model=self.disk_model,
                memory_limit=self.memory_limit,
                backend=self.backend_factory() if self.backend_factory else None,
                seed=self.seed,
                buffer_pool=self.buffer_pool,
                pool_bytes=self.pool_bytes,
            )
            for r in range(self.n_ranks)
        ]

    def run(
        self,
        program: Callable[..., Any],
        *args: Any,
        contexts: list[RankContext] | None = None,
        reset_clocks: bool = True,
        **kwargs: Any,
    ) -> SpmdRun:
        """Execute ``program(ctx, *args, **kwargs)`` on every rank.

        ``contexts`` reuses machine state from :meth:`make_contexts`
        (disks keep their files); by default clocks restart at zero so the
        run's elapsed time measures only this program.

        Resource ownership: contexts created *by this call* are torn down
        before it returns — storage backends closed, phase timers stopped —
        whether the program succeeded or raised. Caller-provided contexts
        stay open (the caller owns their disks, e.g. a
        :class:`~repro.core.dataset.DistributedDataset` running several
        programs against the same machine state); only their timers are
        stopped. A program whose results must outlive the run (returned
        ``OocArray`` handles, pre-loaded fragments) must therefore pass its
        own contexts.
        """
        owns_contexts = contexts is None
        ctxs = contexts if contexts is not None else self.make_contexts()
        if len(ctxs) != self.n_ranks:
            raise ValueError("context list does not match cluster size")
        if reset_clocks:
            for c in ctxs:
                c.clock.now = 0.0
                c.disk.reset_io_queue()
        world = ctxs[0].comm._world
        if world.aborted:
            # reused contexts whose previous run failed (checkpoint/restart)
            world.reset()
        results: list[Any] = [None] * self.n_ranks
        failures: list[tuple[int, BaseException]] = []
        failure_lock = threading.Lock()

        def runner(ctx: RankContext) -> None:
            try:
                results[ctx.rank] = program(ctx, *args, **kwargs)
            except ClusterAborted:
                pass  # secondary casualty of another rank's failure
            except BaseException as exc:  # noqa: BLE001 - must propagate all
                with failure_lock:
                    failures.append((ctx.rank, exc))
                world.abort()

        try:
            if self.n_ranks == 1:
                runner(ctxs[0])
            else:
                threads = [
                    threading.Thread(
                        target=runner, args=(c,), name=f"rank-{c.rank}", daemon=True
                    )
                    for c in ctxs
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()

            if failures:
                rank, exc = min(failures, key=lambda f: f[0])
                raise SpmdProgramError(rank, exc) from exc

            for c in ctxs:
                c.timer.stop()
            return SpmdRun(
                results=results,
                elapsed=max(c.clock.now for c in ctxs),
                stats=RunStats(per_rank=[c.stats for c in ctxs]),
                phase_times=[c.timer.snapshot() for c in ctxs],
            )
        finally:
            # failed or not: close any still-open phase so attributed time
            # is complete, and tear down run-owned storage backends
            for c in ctxs:
                c.timer.stop()
            if owns_contexts:
                for c in ctxs:
                    c.disk.close()
