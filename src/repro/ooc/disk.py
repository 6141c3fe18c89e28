"""One simulated local disk per shared-nothing node.

Every read/write of an :class:`repro.ooc.file.OocArray` goes through its
rank's :class:`LocalDisk`, which charges the disk model's seek+transfer
time to the rank's clock and records volumes in the rank's stats. There is
no contention model between ranks — each node owns its disk, which is
exactly the paper's shared-nothing assumption.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.clock import SimClock
from repro.cluster.diskmodel import DiskModel
from repro.cluster.events import publish
from repro.cluster.stats import RankStats

from .backend import (
    ChunkCorruptionError,
    InMemoryBackend,
    StorageBackend,
    TransientDiskError,
    chunk_crc,
)


class LocalDisk:
    """Charges simulated time for chunk traffic and tracks volumes.

    Every charged access is published to the rank's ``observers``
    (:mod:`repro.cluster.events`) as ``record_disk``; the consumption of
    an overlapped prefetch as ``record_prefetch_wait``.

    Storage integrity: :meth:`store_chunk` / :meth:`fetch_chunk` carry a
    per-chunk CRC32 and retry :class:`TransientDiskError` with bounded
    exponential backoff. The backoff wait is *charged to the simulated
    clock* (and counted in ``stats.io_retries``), so a flaky disk shows
    up in the cost model instead of being free.
    """

    #: retry policy for transient chunk-I/O errors
    RETRY_ATTEMPTS = 5
    RETRY_BASE_DELAY = 0.002  # simulated seconds before the first retry
    RETRY_MULTIPLIER = 2.0

    def __init__(
        self,
        model: DiskModel,
        clock: SimClock,
        stats: RankStats,
        backend: StorageBackend | None = None,
        observers: list | None = None,
    ) -> None:
        self.model = model
        self.clock = clock
        self.stats = stats
        self.backend = backend if backend is not None else InMemoryBackend()
        #: the owning rank's ordered observer list
        self.observers = observers if observers is not None else []
        #: optional :class:`~repro.ooc.bufferpool.BufferPool` (see
        #: :meth:`attach_pool`); ``None`` keeps the legacy direct path.
        self.pool = None
        #: absolute clock time at which the disk finishes its last issued
        #: request — the I/O-completion horizon that overlapped prefetch
        #: reads are sequenced behind (one disk arm per node).
        self.io_front = 0.0

    def attach_pool(self, pool) -> None:
        """Install a buffer pool between callers and the backend.

        The backend is wrapped so ``overwrite``/``delete`` invalidate the
        pool's cached entry first — a fault-injected bit flip lands on
        the stored payload *and* evicts the stale cache line, so the next
        read re-fetches and the CRC check still catches it.
        """
        pool.disk = self
        self.pool = pool
        self.backend = _InvalidatingBackend(self.backend, pool)

    def reset_io_queue(self) -> None:
        """Forget the completion horizon (clocks are being reset between
        runs); un-consumed prefetches die with the old time domain."""
        self.io_front = 0.0
        if self.pool is not None:
            self.pool.drop_inflight()

    def charge_read(self, nbytes: int, *, sequential: bool = True) -> None:
        t0 = self.clock.now
        dt = self.model.access(nbytes, sequential=sequential)
        self.clock.advance(dt)
        self._preempt_prefetch(t0)
        self.stats.io_time += dt
        self.stats.bytes_read += int(nbytes)
        self.stats.io_calls += 1
        if self.observers:
            publish(self.observers, "record_disk", "read", int(nbytes), t0, self.clock.now)

    def charge_write(self, nbytes: int, *, sequential: bool = True) -> None:
        t0 = self.clock.now
        dt = self.model.access(nbytes, sequential=sequential)
        self.clock.advance(dt)
        self._preempt_prefetch(t0)
        self.stats.io_time += dt
        self.stats.bytes_written += int(nbytes)
        self.stats.io_calls += 1
        if self.observers:
            publish(self.observers, "record_disk", "write", int(nbytes), t0, self.clock.now)

    # -- overlapped prefetch (buffer-pool path) ------------------------------
    def queued_read(self, nbytes: int, *, sequential: bool = True) -> None:
        """Charge a synchronous (demand) read on the buffer-pool path.
        Demand I/O preempts background prefetch (see
        :meth:`_preempt_prefetch`), so this costs exactly a
        :meth:`charge_read` and never waits behind a prefetch."""
        self.charge_read(nbytes, sequential=sequential)

    def _preempt_prefetch(self, t0: float) -> None:
        """Slip every unfinished prefetch past a demand access that ran
        ``[t0, now)`` (one disk arm; demand traffic has priority)."""
        if self.pool is None:
            return
        delay = self.clock.now - t0
        if delay <= 0.0:
            return
        latest = self.pool.delay_inflight(t0, delay)
        self.io_front = max(self.clock.now, latest)

    def issue_prefetch_io(self, nbytes: int) -> tuple[float, float]:
        """Queue an asynchronous read of ``nbytes`` on the disk without
        advancing the rank's clock (compute-independent I/O, Section 3).
        Returns ``(completion_time, rated_duration)``; the consumer pays
        only the part of the transfer that compute did not hide."""
        dt = self.model.access(nbytes, sequential=True)
        start = max(self.clock.now, self.io_front)
        completion = start + dt * self.clock.rate
        self.io_front = completion
        if self.observers:
            publish(self.observers, "record_disk", "prefetch", int(nbytes), start, completion)
        return completion, completion - start

    def complete_prefetch(
        self, nbytes: int, completion: float, rated_dt: float
    ) -> float:
        """Account the consumer's arrival at a prefetched chunk: wait for
        whatever is left of the transfer, record the volume once (the
        transfer itself was traced at issue time), and return the time
        the overlap saved versus a synchronous read."""
        t0 = self.clock.now
        wait = max(0.0, completion - self.clock.now)
        if wait:
            self.clock.advance_to(completion)
        saved = max(0.0, rated_dt - wait)
        self.stats.io_time += wait
        self.stats.io_overlap_saved += saved
        self.stats.bytes_read += int(nbytes)
        self.stats.io_calls += 1
        if self.observers:
            # consumption-time event (the issue-time "prefetch" slice's
            # end goes stale when demand I/O preempts the queue): the
            # residual wait actually paid plus the seconds the overlap
            # hid, so roll-ups can reconcile io_overlap_saved per level
            # and the critical path only ever sees the wait.
            publish(
                self.observers, "record_prefetch_wait", int(nbytes), t0,
                self.clock.now, saved,
            )
        return saved

    # -- integrity-checked chunk access -------------------------------------
    def write_chunk(self, arr: np.ndarray) -> tuple[object, int]:
        """Charge and persist one chunk of a file; returns
        ``(handle, crc32)``. Inside a write-back block
        (:meth:`~repro.ooc.bufferpool.BufferPool.admitting_writes`) the
        pool owns the charge: at once if it cannot admit the chunk,
        otherwise when the chunk leaves it other than by deletion."""
        pool = self.pool
        if pool is None or not pool.write_back:
            self.charge_write(arr.nbytes)
        return self.store_chunk(arr)

    def store_chunk(self, arr: np.ndarray) -> tuple[object, int]:
        """Persist one chunk; returns ``(handle, crc32)``.

        Time for the transfer itself is charged separately by the caller
        (``charge_write``); only retry backoff is charged here, so the
        happy path costs exactly what it did before checksums existed.
        """
        crc = chunk_crc(arr)
        for attempt in range(self.RETRY_ATTEMPTS):
            try:
                return self.backend.put(arr), crc
            except TransientDiskError:
                if attempt == self.RETRY_ATTEMPTS - 1:
                    raise
                self._charge_backoff(attempt, arr.nbytes)
        raise AssertionError("unreachable")  # pragma: no cover

    def fetch_chunk(
        self, handle: object, nbytes: int, crc: int | None = None
    ) -> np.ndarray:
        """Load one chunk, verifying its write-time CRC32.

        Transient errors are retried with charged backoff; a checksum
        mismatch raises :class:`ChunkCorruptionError` immediately (the
        stored payload is bad — retrying cannot help).
        """
        for attempt in range(self.RETRY_ATTEMPTS):
            try:
                arr = self.backend.get(handle)
                break
            except TransientDiskError:
                if attempt == self.RETRY_ATTEMPTS - 1:
                    raise
                self._charge_backoff(attempt, nbytes)
        if crc is not None and chunk_crc(arr) != crc:
            self.stats.crc_failures += 1
            raise ChunkCorruptionError(
                f"chunk {handle!r}: stored CRC {crc:#010x} does not match "
                f"payload CRC {chunk_crc(arr):#010x} ({nbytes} B)"
            )
        return arr

    def _charge_backoff(self, attempt: int, nbytes: int) -> None:
        delay = self.RETRY_BASE_DELAY * (self.RETRY_MULTIPLIER**attempt)
        t0 = self.clock.now
        self.clock.advance(delay)
        self.stats.io_time += delay
        self.stats.io_retries += 1
        if self.observers:
            publish(self.observers, "record_disk", "retry", int(nbytes), t0, self.clock.now)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.clear()
        self.backend.close()


class _InvalidatingBackend(StorageBackend):
    """Innermost backend wrapper: keeps the buffer pool coherent with the
    store. It sits *inside* any fault-injection wrapper, so even faults
    that rewrite payloads directly on the inner backend (bit-flip
    corruption) pass through here and drop the stale cache line.

    It is also where partition children are write-allocated: while the
    pool is :meth:`~repro.ooc.bufferpool.BufferPool.admitting_writes`, a
    put admits the payload the backend stored. A bit flip the injector
    writes right after that put goes through :meth:`overwrite` here,
    which charges a dirty entry's deferred write and drops the entry, so
    the CRC still catches the flip on the next read; admitting the
    caller's array after ``store_chunk`` returns would cache the good
    bytes and hide the flip. A delete drops the entry unwritten."""

    def __init__(self, inner: StorageBackend, pool) -> None:
        self._inner = inner
        self._pool = pool

    def put(self, arr):
        handle = self._inner.put(arr)
        if self._pool.admit_writes:
            self._pool.admit_write(handle, arr.nbytes, self._inner.get(handle))
        return handle

    def get(self, handle):
        return self._inner.get(handle)

    def delete(self, handle) -> None:
        self._pool.invalidate(handle)
        self._inner.delete(handle)

    def overwrite(self, handle, arr) -> None:
        self._pool.invalidate(handle, flush=True)
        self._inner.overwrite(handle, arr)

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, name):  # resident_bytes, chunks_created, root, ...
        return getattr(self._inner, name)
