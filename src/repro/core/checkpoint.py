"""Checkpointing of pCLOUDS build state to rank-0's simulated disk.

The recovery unit is one frontier level: after every level of the
breadth-first build (and once more before the deferred small-task
phase), rank 0 serialises the full build state — open nodes, class
counts, sample points, and every rank's partition fragments — into a
single blob written through its :class:`~repro.ooc.disk.LocalDisk`, so
the checkpoint traffic is charged to the simulated clock like any other
disk access and rides the same CRC32/retry integrity layer as data
chunks.

A :class:`CheckpointStore` keeps the handle list host-side (the
simulated machine has no filesystem metadata model) and restores the
*latest readable* checkpoint: a corrupted blob is skipped and the next
older one used, so corruption of the checkpoint itself degrades recovery
granularity instead of killing it.

:func:`run_observed` is the one attach-and-restart path of the fits: it
subscribes the observers a fit asked for, runs the fit program attempt
by attempt, and restarts a dead attempt from the latest checkpoint.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.cluster.errors import SpmdProgramError
from repro.cluster.machine import SpmdRun
from repro.ooc.backend import ChunkCorruptionError


@dataclass
class _Entry:
    label: str
    disk: object
    handle: object
    nbytes: int
    crc: int


@dataclass
class CheckpointStore:
    """Ordered log of build-state checkpoints on one rank's disk."""

    _entries: list[_Entry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def labels(self) -> list[str]:
        return [e.label for e in self._entries]

    def save(self, disk, label: str, state: object) -> int:
        """Serialise ``state`` and write it as one chunk on ``disk``.

        Returns the blob size in bytes. The write is charged to the
        simulated clock; a transient backend error is retried by the
        disk with charged backoff.
        """
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        arr = np.frombuffer(blob, dtype=np.uint8)
        disk.charge_write(arr.nbytes)
        handle, crc = disk.store_chunk(arr)
        self._entries.append(_Entry(label, disk, handle, arr.nbytes, crc))
        return arr.nbytes

    def handles(self, disk) -> set:
        """Handles of the checkpoint blobs stored on ``disk``."""
        return {e.handle for e in self._entries if e.disk is disk}

    def load_latest(self, disk) -> tuple[str, object] | None:
        """Read back the newest checkpoint that passes its CRC.

        Returns ``(label, state)``, or ``None`` when no checkpoint is
        readable (the caller restarts from scratch). Corrupted entries
        are dropped from the log so they are not re-tried next time.
        """
        while self._entries:
            entry = self._entries[-1]
            disk.charge_read(entry.nbytes)
            try:
                arr = disk.fetch_chunk(entry.handle, entry.nbytes, entry.crc)
            except ChunkCorruptionError:
                self._entries.pop()
                continue
            return entry.label, pickle.loads(arr.tobytes())
        return None

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class ObservedRun:
    """A fit program's successful run, with the observers it ran under."""

    run: SpmdRun
    failed_time: float  # simulated seconds burned by dead attempts
    restarts: int
    tracers: list | None
    injector: Any
    registry: Any
    monitor: Any

    @property
    def elapsed(self) -> float:
        return self.run.elapsed + self.failed_time

    @property
    def fault_events(self) -> list:
        return list(self.injector.events) if self.injector is not None else []


def run_observed(
    dataset,
    program: Callable[..., Any],
    *args: Any,
    seed: int,
    trace: bool = False,
    faults=None,
    recover: bool = False,
    max_restarts: int = 8,
    metrics: bool = False,
    health=None,
) -> ObservedRun:
    """Run ``program(ctx, *args, store, resume)`` on the dataset's
    contexts under the requested observers, restarting dead attempts.

    Subscribes tracers (``trace``), the fault injector (``faults``: a
    plan, seeded with ``seed``, or a pre-built injector) and the metrics
    recorders with the online health monitor (``metrics``, thresholds
    ``health``). With ``recover`` an attempt that dies with
    :class:`~repro.cluster.errors.SpmdProgramError` restarts from the
    latest checkpoint, up to ``max_restarts`` times; without it the
    error propagates. Either way every chunk the dead attempt stored is
    deleted except checkpoint blobs (:func:`_discard_attempt`). Its dirty
    buffer-pool chunks are among them (children, small-task spools and
    bags are all stored by the attempt), and a delete drops a dirty
    chunk unwritten: its RAM died with the attempt. The recorders are
    finalized and ``repro_run_elapsed_seconds`` set, dead attempts
    included.
    """
    contexts = dataset.contexts
    tracers = injector = registry = monitor = None
    recorders: list = []
    if trace:
        from repro.cluster.trace import attach_tracers

        tracers = attach_tracers(contexts)
    if faults is not None:
        from repro.cluster.faults import FaultInjector

        injector = (
            faults
            if isinstance(faults, FaultInjector)
            else FaultInjector(faults, seed=seed)
        )
        injector.attach(contexts)
    if metrics:
        from repro.obs.health import HealthMonitor
        from repro.obs.instrument import attach_metrics

        monitor = HealthMonitor(
            dataset.n_ranks, dataset.cluster.network, thresholds=health
        )
        registry, recorders = attach_metrics(contexts, monitor=monitor)
    store = CheckpointStore() if recover else None
    failed_time = 0.0
    restarts = 0
    while True:
        if injector is not None:
            injector.begin_attempt()
        for c in contexts:
            c.notify("begin_attempt", restarts)
        stored_before = [set(c.disk.backend.handles()) for c in contexts]
        try:
            run = dataset.cluster.run(
                program,
                *args,
                store,
                restarts > 0,
                contexts=contexts,
                reset_clocks=True,
            )
            break
        except SpmdProgramError:
            # time already burned by the dead attempt counts
            failed_time += max(c.clock.now for c in contexts)
            restarts += 1
            _discard_attempt(contexts, stored_before, store)
            if not recover or restarts > max_restarts:
                raise
    for rec in recorders:
        rec.finalize()
    if registry is not None:
        registry.shard(0).set(
            "repro_run_elapsed_seconds", (), run.elapsed + failed_time
        )
    return ObservedRun(
        run, failed_time, restarts, tracers, injector, registry, monitor
    )


def _discard_attempt(
    contexts, stored_before: list[set], store: CheckpointStore | None
) -> None:
    """Delete every chunk a dead attempt stored on each rank's disk: the
    fragments, bags and spools it held, which no later attempt reads (a
    restart rewrites its fragments from a checkpoint). The deletes go
    through the buffer pool, which drops each dirty chunk unwritten, so
    the discard charges nothing. Chunks stored before the attempt — the
    initial fragments a from-scratch restart needs — and checkpoint
    blobs stay."""
    for c, before in zip(contexts, stored_before):
        keep = before | (store.handles(c.disk) if store is not None else set())
        backend = c.disk.backend
        for handle in backend.handles():
            if handle not in keep:
                backend.delete(handle)
