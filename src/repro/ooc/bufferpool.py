"""Per-rank buffer pool: an LRU chunk cache with overlapped prefetch.

The paper distinguishes compute-dependent from compute-independent
parallel I/O (Section 3): a streaming pass that re-reads a fragment the
machine could have kept in RAM, or that waits for a read it could have
issued ahead of the computation, pays for I/O the algorithm does not
need. The :class:`BufferPool` models both remedies on the simulated
machine:

* **Caching** — a chunk is admitted into an LRU cache accounted against
  a :class:`~repro.ooc.memory.MemoryBudget` (the rank's cache RAM,
  distinct from the paper's node-processing limit that decides in-core
  vs. streaming) in two ways. *On read*: a streaming read
  (:meth:`BufferPool.read`) admits the chunk it fetched. *On write*
  (write-allocate): every chunk of a partition child, small-task spool
  or bag is admitted as it is stored, so the reader that comes next
  reads it from memory instead of re-reading what was just written. A
  spool is write-allocated only when the pool can hold one whole row
  batch of it (:func:`~repro.ooc.columnset.default_batch_rows` rows); a
  pool smaller than one disk block, whose chunks are a block, admits
  none. A cache hit serves the payload for a small memory-copy charge
  instead of a seek + transfer.
* **Write-back of the fit's own spools** — the children of a streaming
  (out-of-core) node are written through: their disk write is charged
  as they are stored, as the paper's out-of-core partition pass pays
  it. A spool that a fit writes, reads back and deletes within one
  attempt is admitted *dirty* instead: an in-core node's children, the
  owner's spool of received small-node fragments, and a forest tree's
  bag. The disk write is owed, and charged only if the chunk leaves the
  pool some other way than being deleted — evicted, or rewritten under
  the pool by ``overwrite``. A spool that is read and then deleted
  while it is still resident is never written, as the small-node phase
  already charges no child write for an in-core node. A chunk the pool
  cannot admit is written through at once. Set-up writes (before the
  fit's clock starts) and checkpoint restores are not admitted. The
  backend still stores every chunk on the host, so CRCs, spool files
  and checkpoints are as before. A restart deletes every chunk the
  dead attempt stored, and a delete drops a dirty chunk unwritten, so
  the dead attempt's dirty chunks die with its RAM.
* **Overlapped prefetch** — during a streaming scan the read of chunk
  *i+1* is issued while chunk *i* computes. The disk tracks an
  I/O-completion horizon (:attr:`~repro.ooc.disk.LocalDisk.io_front`);
  when the consumer arrives at the prefetched chunk it waits only for
  the *remaining* transfer time, and the time saved is accounted in
  ``RankStats.io_overlap_saved``. In-flight prefetches are also kept in
  their own map, so the demand-preemption walk that runs on every
  charged access (:meth:`BufferPool.delay_inflight`) visits only them,
  not every resident chunk.

Integrity contract: a read miss admits its payload with exactly one CRC
verification (in :meth:`~repro.ooc.disk.LocalDisk.fetch_chunk`); hits
skip the CRC re-walk because cached payloads are returned as read-only
arrays that nothing can have mutated. A write admission caches the
backend's own stored, read-only payload, never the caller's array, and
it happens in the innermost backend wrapper
(:class:`~repro.ooc.disk._InvalidatingBackend`), below any fault
injector. ``overwrite``/``delete`` on the backing store invalidate the
cached entry through that same wrapper, so a fault-injected bit flip,
even one written right after the put of a dirty chunk, is still caught
by the CRC on the next (uncached) read.

Determinism: the pool only changes *when* time is charged and which
array object a reader receives — never payload values, RNG draws, or
communication — so fitted trees are bit-identical with the pool on or
off.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .memory import MemoryBudget

if TYPE_CHECKING:  # pool and disk reference each other; runtime import is lazy
    from .columnset import ColumnSet
    from .disk import LocalDisk

__all__ = ["BufferPool", "PoolStats", "POOL_MODES", "DEFAULT_COPY_RATIO"]

#: accepted values of the ``buffer_pool`` knob
POOL_MODES = ("off", "lru", "lru+prefetch")

#: memory-copy bandwidth of a cache hit, as a multiple of the disk
#: model's transfer bandwidth (a late-90s node moved memory roughly two
#: orders of magnitude faster than its local disk; 50x keeps hits cheap
#: but not free, and scales with the harness's cost scaling for free)
DEFAULT_COPY_RATIO = 50.0


@dataclass
class PoolStats:
    """Counters for one rank's buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0  # payloads that could not be admitted (no room)
    invalidations: int = 0  # entries dropped by overwrite/delete
    prefetch_issued: int = 0
    prefetch_useful: int = 0  # consumed by a later read
    prefetch_wasted: int = 0  # invalidated or dropped before consumption
    hit_bytes: int = 0
    miss_bytes: int = 0
    overlap_saved_s: float = 0.0  # disk time hidden behind compute
    copy_s: float = 0.0  # memory-copy seconds charged for hits
    #: hits served from chunks admitted while another tree was the pool's
    #: consumer (``begin_tree``) — the forest's shared-cache payoff
    cross_tree_hits: int = 0
    cross_tree_hit_bytes: int = 0
    #: chunks admitted as they were written: partition children,
    #: small-task spools and forest bags
    write_admits: int = 0
    write_admit_bytes: int = 0
    #: dirty chunks whose deferred disk write an eviction or an
    #: overwrite charged
    write_backs: int = 0
    write_back_bytes: int = 0

    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        n = self.lookups()
        return self.hits / n if n else 0.0

    def cross_tree_hit_rate(self) -> float:
        """Share of all hits that crossed a tree boundary."""
        return self.cross_tree_hits / self.hits if self.hits else 0.0

    def as_dict(self) -> dict[str, float]:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


@dataclass(slots=True)
class _Entry:
    """One cached chunk: resident (``array`` set) or in-flight prefetch
    (``array`` is None until the consumer completes the read)."""

    nbytes: int
    array: np.ndarray | None = None
    completion: float = 0.0  # absolute clock time the transfer finishes
    rated_dt: float = 0.0  # full transfer duration in clock-domain seconds
    tree: int | None = None  # forest tree that admitted/issued the chunk
    dirty: bool = False  # write-back chunk whose disk write is still owed


@dataclass
class BufferPool:
    """LRU chunk cache with pinning, drawn from a :class:`MemoryBudget`.

    The pool sits between :class:`~repro.ooc.file.OocArray` and
    :class:`~repro.ooc.disk.LocalDisk` (attach with
    :meth:`LocalDisk.attach_pool`). Admission, eviction and prefetch all
    acquire/release bytes on ``budget``, so ``budget.high_water`` bounds
    the cache's true footprint. Pinned handles (the hot node the driver
    is re-reading) are never evicted. Evicting a dirty chunk charges its
    deferred disk write to the owning rank's clock; eviction order is
    plain LRU, clean or dirty.
    """

    budget: MemoryBudget
    prefetch: bool = False
    copy_ratio: float = DEFAULT_COPY_RATIO
    stats: PoolStats = field(default_factory=PoolStats)
    disk: "LocalDisk | None" = None  # set by LocalDisk.attach_pool
    #: forest tree currently consuming the pool (None outside forests);
    #: entries remember the admitting tree so hits that cross trees are
    #: attributed to the shared cache rather than within-tree reuse
    current_tree: int | None = None
    _entries: "OrderedDict[object, _Entry]" = field(default_factory=OrderedDict)
    #: the in-flight prefetches among ``_entries`` (``array`` is None)
    _inflight: "dict[object, _Entry]" = field(default_factory=dict)
    _pinned: set = field(default_factory=set)
    #: set while a partition child's or a spool's chunks are stored
    #: (write-allocate, :meth:`admitting_writes`); ``write_back`` when
    #: they are admitted dirty, their disk write deferred
    admit_writes: bool = field(default=False, init=False)
    write_back: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.budget.limit is None:
            raise ValueError("BufferPool needs a bounded MemoryBudget")

    # -- capacity ------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return int(self.budget.limit or 0)

    def begin_tree(self, tree: int | None) -> None:
        """Mark which forest tree is about to consume the pool. Chunks
        already resident keep the tag of the tree that admitted them, so
        subsequent hits register as cross-tree."""
        self.current_tree = tree

    def would_cache(self, nbytes: int) -> bool:
        """Could a working set of ``nbytes`` be wholly resident? Drivers
        use this to decide whether pinning a node is worthwhile."""
        return 0 < nbytes <= self.capacity

    # -- pinning -------------------------------------------------------------
    def pin(self, handles: Iterable[object]) -> None:
        """Protect handles from eviction (they need not be resident yet)."""
        self._pinned.update(handles)

    def unpin(self, handles: Iterable[object]) -> None:
        self._pinned.difference_update(handles)

    def pin_columnset(self, cs: "ColumnSet") -> None:
        """Pin every chunk of a node's fragment across its re-read passes."""
        for f in cs.files():
            self.pin(f.chunk_handles)

    def unpin_columnset(self, cs: "ColumnSet") -> None:
        for f in cs.files():
            self.unpin(f.chunk_handles)

    # -- the read path -------------------------------------------------------
    def read(self, handle: object, nbytes: int, crc: int | None) -> np.ndarray:
        """Serve one chunk: from cache (copy charge only), from an
        in-flight prefetch (wait for the remaining transfer), or from the
        disk (full charge, then admit)."""
        entry = self._entries.get(handle)
        if entry is not None and entry.array is not None:
            self._entries.move_to_end(handle)
            self.stats.hits += 1
            self.stats.hit_bytes += int(nbytes)
            self._note_cross_tree(entry, nbytes)
            self._charge_copy(nbytes)
            return entry.array
        if entry is not None:
            return self._complete_inflight(handle, entry, nbytes, crc)
        self.stats.misses += 1
        self.stats.miss_bytes += int(nbytes)
        self.disk.queued_read(nbytes)
        arr = _read_only(self.disk.fetch_chunk(handle, nbytes, crc))
        self._admit(handle, nbytes, arr)
        return arr

    def peek(self, handle: object, nbytes: int, crc: int | None) -> np.ndarray | None:
        """Serve a chunk only if the pool already holds it (resident or
        in flight), charging as :meth:`read` would; ``None`` on a cold
        miss. Used by bulk reads that charge their misses as one
        sequential transfer and do not admit single-use data."""
        entry = self._entries.get(handle)
        if entry is None:
            return None
        if entry.array is not None:
            self._entries.move_to_end(handle)
            self.stats.hits += 1
            self.stats.hit_bytes += int(nbytes)
            self._note_cross_tree(entry, nbytes)
            self._charge_copy(nbytes)
            return entry.array
        return self._complete_inflight(handle, entry, nbytes, crc)

    def note_miss(self, nbytes: int) -> None:
        """Account a cold miss whose transfer the caller charges itself."""
        self.stats.misses += 1
        self.stats.miss_bytes += int(nbytes)

    def _complete_inflight(
        self, handle: object, entry: _Entry, nbytes: int, crc: int | None
    ) -> np.ndarray:
        saved = self.disk.complete_prefetch(nbytes, entry.completion, entry.rated_dt)
        self.stats.prefetch_useful += 1
        self.stats.misses += 1  # the payload did move over the disk
        self.stats.miss_bytes += int(nbytes)
        self.stats.overlap_saved_s += saved
        arr = _read_only(self.disk.fetch_chunk(handle, nbytes, crc))
        entry.array = arr
        del self._inflight[handle]
        self._entries.move_to_end(handle)
        return arr

    # -- prefetch ------------------------------------------------------------
    def issue_prefetch(self, handle: object, nbytes: int) -> None:
        """Start the read of a chunk the consumer will want next. Only
        the disk's completion horizon moves — the consumer's clock is
        untouched until it actually reads the chunk, so the transfer
        overlaps whatever the rank computes in between."""
        if not self.prefetch or nbytes <= 0:
            return
        if handle in self._entries:  # already resident or in flight
            return
        if not self._reserve(nbytes):
            return
        completion, rated_dt = self.disk.issue_prefetch_io(nbytes)
        self._entries[handle] = self._inflight[handle] = _Entry(
            nbytes=int(nbytes), completion=completion, rated_dt=rated_dt,
            tree=self.current_tree,
        )
        self.stats.prefetch_issued += 1

    def delay_inflight(self, t0: float, delay: float) -> float:
        """Push back every unfinished prefetch that a demand access
        running ``[t0, t0+delay)`` preempted; returns the latest slipped
        completion (0.0 when nothing was in flight)."""
        latest = 0.0
        for entry in self._inflight.values():
            if entry.completion > t0:
                entry.completion += delay
                latest = max(latest, entry.completion)
        return latest

    # -- the write path ------------------------------------------------------
    @contextmanager
    def admitting_writes(self, write_back: bool = False) -> Iterator[None]:
        """Write-allocate every chunk stored inside the block: the disk's
        innermost backend wrapper hands each stored payload to
        :meth:`admit_write`. With ``write_back`` the chunks are admitted
        dirty and the pool owns their disk write
        (:meth:`~repro.ooc.disk.LocalDisk.write_chunk` does not charge
        it)."""
        self.admit_writes = True
        self.write_back = write_back
        try:
            yield
        finally:
            self.admit_writes = self.write_back = False

    def admit_write(self, handle: object, nbytes: int, stored: np.ndarray) -> None:
        """Admit a chunk as it is written. ``stored`` is the backend's
        own payload, so the cache holds no second copy, and an overwrite
        of the handle invalidates it like any other entry. Write-through,
        the writer charged the disk write; write-back, the entry is dirty
        and its write is charged when it leaves the pool other than by
        deletion, or here, at once, when the pool cannot admit it."""
        if self._admit(handle, nbytes, _read_only(stored), self.write_back):
            self.stats.write_admits += 1
            self.stats.write_admit_bytes += nbytes
        elif self.write_back:
            self.disk.charge_write(nbytes)

    # -- invalidation --------------------------------------------------------
    def invalidate(self, handle: object, *, flush: bool = False) -> None:
        """Drop a cached/in-flight chunk (its backing store changed). A
        dirty chunk's deferred write is charged first when ``flush`` (an
        overwrite: the chunk reached the disk before the payload under it
        changed); a deleted one is dropped unwritten."""
        self._pinned.discard(handle)
        entry = self._entries.pop(handle, None)
        if entry is None:
            return
        if flush and entry.dirty:
            self._write_back(entry.nbytes)
        self.budget.release(entry.nbytes)
        self.stats.invalidations += 1
        if entry.array is None:
            del self._inflight[handle]
            self.stats.prefetch_wasted += 1

    def drop_inflight(self) -> None:
        """Forget un-consumed prefetches (their completion times belong
        to a clock that is being reset between runs)."""
        for handle, entry in self._inflight.items():
            del self._entries[handle]
            self.budget.release(entry.nbytes)
            self.stats.prefetch_wasted += 1
        self._inflight.clear()

    def clear(self) -> None:
        """Drop everything, dirty chunks unwritten (backend closed or
        machine torn down)."""
        for entry in self._entries.values():
            self.budget.release(entry.nbytes)
            if entry.array is None:
                self.stats.prefetch_wasted += 1
        self._entries.clear()
        self._inflight.clear()
        self._pinned.clear()

    # -- internals -----------------------------------------------------------
    def _admit(
        self, handle: object, nbytes: int, arr: np.ndarray, dirty: bool = False
    ) -> bool:
        if not self._reserve(nbytes):
            self.stats.bypasses += 1
            return False
        self._entries[handle] = _Entry(
            int(nbytes), arr, 0.0, 0.0, self.current_tree, dirty
        )
        return True

    def _reserve(self, nbytes: int) -> bool:
        """Take ``nbytes`` of the budget, evicting LRU entries until they
        fit; False when they cannot (larger than the pool, or nothing
        left to evict)."""
        budget = self.budget
        while not budget.try_acquire(nbytes):
            if nbytes > budget.limit or not self._evict_one():
                return False
        return True

    def _evict_one(self) -> bool:
        """Evict the least-recently-used resident, unpinned entry,
        charging its deferred write if it is dirty. In-flight prefetches
        are never evicted (their budget is released on consumption,
        invalidation or reset)."""
        victim = None
        for handle, entry in self._entries.items():
            if entry.array is not None and handle not in self._pinned:
                victim = handle
                break
        if victim is None:
            return False
        entry = self._entries.pop(victim)
        self.budget.release(entry.nbytes)
        self.stats.evictions += 1
        if entry.dirty:
            self._write_back(entry.nbytes)
        return True

    def _write_back(self, nbytes: int) -> None:
        """Charge the deferred disk write of a dirty chunk leaving the
        pool, on this rank's clock, as any other write."""
        self.stats.write_backs += 1
        self.stats.write_back_bytes += nbytes
        self.disk.charge_write(nbytes)

    def _note_cross_tree(self, entry: _Entry, nbytes: int) -> None:
        if (
            entry.tree is not None
            and self.current_tree is not None
            and entry.tree != self.current_tree
        ):
            self.stats.cross_tree_hits += 1
            self.stats.cross_tree_hit_bytes += int(nbytes)

    def _charge_copy(self, nbytes: int) -> None:
        disk = self.disk
        dt = nbytes / (self.copy_ratio * disk.model.bandwidth)
        disk.clock.advance(dt)
        disk.stats.compute_time += dt
        self.stats.copy_s += dt


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Mark a fetched payload immutable so every consumer of the shared
    cached array sees exactly the bytes that were CRC-verified."""
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr
