"""Buffer pool: LRU caching, pinning, overlapped prefetch, integrity.

The pool must never change *what* is computed — only when time is
charged — so the heart of this file is a bit-identity matrix across pool
modes, methods, exchanges, seeds and backends, plus the acceptance
scenario: re-read I/O collapses when a streaming node's columns fit the
cache, and fault-injected corruption is still caught through the cache.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig, build_cluster, run_pclouds
from repro.cluster import Cluster, CorruptChunk, FaultPlan, standard_plans
from repro.cluster.clock import SimClock
from repro.cluster.diskmodel import DiskModel
from repro.cluster.stats import RankStats
from repro.clouds import CloudsConfig
from repro.clouds.sse import AliveInterval, member_mask, stacked_member_masks
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.core.checkpoint import _discard_attempt
from repro.data import generate_quest, quest_schema
from repro.ooc import (
    BufferPool,
    ChunkCorruptionError,
    ColumnSet,
    FileBackend,
    InMemoryBackend,
    LocalDisk,
    MemoryBudget,
    OocArray,
    default_batch_rows,
)


def make_disk(pool_bytes=None, prefetch=False, backend=None, **model_kwargs):
    disk = LocalDisk(
        DiskModel(**model_kwargs), SimClock(), RankStats(), backend
    )
    if pool_bytes is not None:
        disk.attach_pool(
            BufferPool(MemoryBudget(limit=pool_bytes), prefetch=prefetch)
        )
    return disk


def chunked_array(disk, nchunks=4, rows=512, seed=0):
    rng = np.random.default_rng(seed)
    arr = OocArray(disk, np.float64, name="x")
    chunks = [rng.standard_normal(rows) for _ in range(nchunks)]
    for c in chunks:
        arr.append(c)
    return arr, np.concatenate(chunks)


class TestPoolUnit:
    def test_second_scan_hits_and_skips_disk(self):
        disk = make_disk(pool_bytes=1 << 20)
        arr, ref = chunked_array(disk)
        np.testing.assert_array_equal(np.concatenate(list(arr.iter_chunks())), ref)
        bytes_after_first = disk.stats.bytes_read
        np.testing.assert_array_equal(np.concatenate(list(arr.iter_chunks())), ref)
        assert disk.stats.bytes_read == bytes_after_first
        assert disk.pool.stats.hits == arr.nchunks
        assert disk.pool.stats.misses == arr.nchunks

    def test_hit_charges_memory_copy_not_io(self):
        disk = make_disk(pool_bytes=1 << 20)
        arr, _ = chunked_array(disk, nchunks=1)
        list(arr.iter_chunks())
        t0, io0 = disk.clock.now, disk.stats.io_time
        list(arr.iter_chunks())
        assert disk.stats.io_time == io0  # no disk traffic
        copy_dt = disk.clock.now - t0
        full_dt = disk.model.access(arr.nbytes, sequential=True)
        assert 0 < copy_dt < full_dt / 10

    def test_eviction_is_lru_and_budget_bounded(self):
        disk = make_disk(pool_bytes=3 * 512 * 8)  # room for 3 of 4 chunks
        arr, _ = chunked_array(disk, nchunks=4)
        list(arr.iter_chunks())
        pool = disk.pool
        assert pool.stats.evictions == 1
        assert pool.budget.reserved <= pool.capacity
        assert pool.budget.high_water <= pool.capacity
        # chunk 0 was the LRU victim: re-reading it misses, 1..3 hit
        handles = arr.chunk_handles
        assert handles[0] not in pool._entries
        assert all(h in pool._entries for h in handles[1:])

    def test_pinned_entries_survive_pressure(self):
        disk = make_disk(pool_bytes=2 * 512 * 8)
        arr, _ = chunked_array(disk, nchunks=4)
        pool = disk.pool
        pool.pin(arr.chunk_handles[:2])
        list(arr.iter_chunks())
        assert all(h in pool._entries for h in arr.chunk_handles[:2])
        # nothing evictable once the pinned pair fills the pool
        assert pool.stats.bypasses >= 1

    def test_oversized_chunk_bypasses(self):
        disk = make_disk(pool_bytes=100)
        arr, ref = chunked_array(disk, nchunks=2)
        np.testing.assert_array_equal(np.concatenate(list(arr.iter_chunks())), ref)
        assert disk.pool.stats.bypasses == 2
        assert disk.pool.budget.reserved == 0

    def test_read_all_serves_hits_without_admitting_misses(self):
        disk = make_disk(pool_bytes=1 << 20)
        arr, ref = chunked_array(disk)
        list(arr.iter_chunks())  # populate
        bytes0 = disk.stats.bytes_read
        np.testing.assert_array_equal(arr.read_all(), ref)
        assert disk.stats.bytes_read == bytes0  # all hits
        cold = OocArray(disk, np.float64, name="cold")
        cold.append(np.arange(64, dtype=np.float64))
        arr2 = cold.read_all()
        assert cold.chunk_handles[0] not in disk.pool._entries  # not admitted
        np.testing.assert_array_equal(arr2, np.arange(64))

    def test_cached_payload_is_read_only(self):
        disk = make_disk(pool_bytes=1 << 20)
        arr, _ = chunked_array(disk, nchunks=1)
        chunk = next(iter(arr.iter_chunks()))
        with pytest.raises(ValueError):
            chunk[0] = 1.0

    def test_delete_invalidates_and_unpins(self):
        disk = make_disk(pool_bytes=1 << 20)
        arr, _ = chunked_array(disk)
        pool = disk.pool
        pool.pin(arr.chunk_handles)
        list(arr.iter_chunks())
        assert pool.budget.reserved > 0
        arr.delete()
        assert pool.budget.reserved == 0
        assert not pool._entries and not pool._pinned
        assert pool.stats.invalidations == 4

    def test_overwrite_invalidates_and_crc_catches_bit_flip(self):
        # the acceptance scenario: cache a chunk, corrupt it behind the
        # pool's back, and the next read must still raise
        disk = make_disk(pool_bytes=1 << 20)
        arr, _ = chunked_array(disk, nchunks=1)
        list(arr.iter_chunks())  # cached
        handle = arr.chunk_handles[0]
        stored = disk.backend.get(handle)
        raw = bytearray(stored.tobytes())
        raw[3] ^= 1 << 5
        disk.backend.overwrite(
            handle, np.frombuffer(bytes(raw), dtype=stored.dtype)
        )
        assert handle not in disk.pool._entries  # invalidated
        with pytest.raises(ChunkCorruptionError):
            list(arr.iter_chunks())

    def test_pool_requires_bounded_budget(self):
        with pytest.raises(ValueError):
            BufferPool(MemoryBudget(limit=None))


class TestPrefetch:
    def test_prefetch_hides_compute_exactly(self):
        disk = make_disk(pool_bytes=1 << 22, prefetch=True)
        base = make_disk(pool_bytes=1 << 22, prefetch=False)
        compute = 0.004
        elapsed = {}
        for d in (base, disk):
            arr, _ = chunked_array(d, nchunks=16)
            t0 = d.clock.now
            for _ in arr.iter_chunks():
                d.clock.advance(compute)
            elapsed[d] = d.clock.now - t0
        saved = disk.stats.io_overlap_saved
        assert saved > 0
        assert elapsed[base] - elapsed[disk] == pytest.approx(saved)
        assert disk.pool.stats.prefetch_issued == 15
        assert disk.pool.stats.prefetch_useful == 15

    def test_demand_io_preempts_prefetch(self):
        # a second hot file read between issue and consume must not be
        # delayed by the in-flight prefetch, and the prefetch must not
        # claim the demand read's duration as overlap savings
        disk = make_disk(pool_bytes=1 << 22, prefetch=True)
        arr, _ = chunked_array(disk, nchunks=8, seed=1)
        other, _ = chunked_array(disk, nchunks=8, seed=2)
        for _ in arr.iter_chunks():
            pass  # no compute at all: nothing to hide behind
        assert disk.stats.io_overlap_saved == pytest.approx(0.0)
        t0 = disk.clock.now
        sync_dt = disk.model.access(512 * 8, sequential=True)
        it = iter(arr.iter_chunks())  # all hits now; issues nothing
        next(it)
        disk.charge_read(512 * 8)
        assert disk.clock.now - t0 >= sync_dt  # not queued behind prefetch

    def test_reset_drops_inflight(self):
        disk = make_disk(pool_bytes=1 << 22, prefetch=True)
        arr, _ = chunked_array(disk, nchunks=4)
        it = iter(arr.iter_chunks())
        next(it)  # chunk 0 read, chunk 1 in flight
        disk.reset_io_queue()
        assert disk.io_front == 0.0
        assert disk.pool.stats.prefetch_wasted == 1
        assert disk.pool.budget.reserved == 512 * 8  # only chunk 0 resident


class TestInflightMap:
    """In-flight prefetches live in their own map, so the preemption walk
    on every charged access visits only them."""

    @staticmethod
    def full_walk(pool, t0, delay):
        """Every in-flight entry a demand access preempts, found by
        walking all entries: (latest slipped completion, slipped set)."""
        slipped = {
            h: e.completion + delay
            for h, e in pool._entries.items()
            if e.array is None and e.completion > t0
        }
        return max(slipped.values(), default=0.0), slipped

    OPS = ("prefetch", "read", "peek", "write", "invalidate", "drop", "clear")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, 11),
                st.floats(0.0, 0.05),
            ),
            max_size=40,
        )
    )
    def test_inflight_map_matches_entries(self, ops):
        disk = make_disk(pool_bytes=6 * 64 * 8, prefetch=True)
        pool = disk.pool
        arr, _ = chunked_array(disk, nchunks=8, rows=64)
        chunks = list(zip(arr.chunk_handles, arr._crcs))
        rng = np.random.default_rng(0)
        for op, i, dt in ops:
            handle, crc = chunks[i % len(chunks)]
            nbytes = 64 * 8
            disk.clock.advance(dt)
            if op == "prefetch":
                pool.issue_prefetch(handle, nbytes)
            elif op == "read":
                pool.read(handle, nbytes, crc)
            elif op == "peek":
                pool.peek(handle, nbytes, crc)
            elif op == "write":
                with pool.admitting_writes():
                    chunks.append(disk.store_chunk(rng.standard_normal(64)))
            elif op == "invalidate":
                pool.invalidate(handle)
            elif op == "drop":
                pool.drop_inflight()
            else:
                pool.clear()
            assert pool._inflight.keys() == {
                h for h, e in pool._entries.items() if e.array is None
            }
            assert all(pool._inflight[h] is pool._entries[h] for h in pool._inflight)
            t0, delay = disk.clock.now - dt, dt
            expected, slipped = self.full_walk(pool, t0, delay)
            assert pool.delay_inflight(t0, delay) == expected
            assert {
                h: pool._entries[h].completion for h in slipped
            } == slipped
            assert pool.budget.reserved == sum(
                e.nbytes for e in pool._entries.values()
            )


class TestWriteAllocate:
    """Partition children are admitted into the pool as they are written,
    from the backend's stored payload, inside the innermost wrapper."""

    def child(self, disk, n=600, write_allocate=True):
        schema = quest_schema()
        cols, labels = generate_quest(n, function=2, seed=0)
        return ColumnSet.from_arrays(
            disk, schema, cols, labels, name="c", write_allocate=write_allocate
        )

    def test_child_chunks_are_resident_and_read_all_hits(self):
        disk = make_disk(pool_bytes=1 << 20)
        cs = self.child(disk)
        handles = [h for f in cs.files() for h in f.chunk_handles]
        pool = disk.pool
        assert pool.stats.write_admits == len(handles)
        assert pool.stats.write_admit_bytes == cs.nbytes
        assert all(pool._entries[h].array is not None for h in handles)
        written, read0 = disk.stats.bytes_written, disk.stats.bytes_read
        assert written == cs.nbytes  # write-through: the disk write is charged
        cs.read_all()
        assert disk.stats.bytes_read == read0
        assert pool.stats.hits == len(handles) and pool.stats.misses == 0

    def test_setup_writes_and_sub_block_pools_are_not_admitted(self):
        disk = make_disk(pool_bytes=1 << 20)
        self.child(disk, write_allocate=False)
        assert disk.pool.stats.write_admits == 0 and not disk.pool._entries
        # a pool smaller than one row batch (one 64 KiB block) admits nothing
        small = make_disk(pool_bytes=16 * 1024)
        schema = quest_schema()
        assert not small.pool.would_cache(
            default_batch_rows(small, schema) * schema.row_nbytes()
        )
        self.child(small)
        assert small.pool.stats.write_admits == 0 and not small.pool._entries

    def test_admitted_payload_is_the_stored_read_only_array(self):
        disk = make_disk(pool_bytes=1 << 20)
        cs = self.child(disk)
        handle = cs.labels_file.chunk_handles[0]
        cached = disk.pool._entries[handle].array
        assert not cached.flags.writeable
        stored = disk.backend.get(handle)
        assert np.shares_memory(cached, stored)

    def test_overwrite_drops_the_entry_and_crc_catches_the_flip(self):
        disk = make_disk(pool_bytes=1 << 20)
        cs = self.child(disk)
        f = cs.labels_file
        handle = f.chunk_handles[0]
        reserved = disk.pool.budget.reserved
        stored = disk.backend.get(handle)
        raw = bytearray(stored.tobytes())
        raw[0] ^= 1
        disk.backend.overwrite(
            handle, np.frombuffer(bytes(raw), dtype=stored.dtype)
        )
        assert handle not in disk.pool._entries
        assert disk.pool.budget.reserved == reserved - stored.nbytes
        with pytest.raises(ChunkCorruptionError):
            f.read_all()

    def test_delete_drops_every_entry(self):
        disk = make_disk(pool_bytes=1 << 20)
        cs = self.child(disk)
        n = disk.pool.stats.write_admits
        cs.delete()
        assert not disk.pool._entries and disk.pool.budget.reserved == 0
        assert disk.pool.stats.invalidations == n

    def test_streaming_partition_child_is_written_through(self):
        """The out-of-core partition pass pays its child writes as it
        goes: admitted, but clean, and every byte charged."""
        from repro.clouds.builder import _NullSink, partition_columnset
        from repro.clouds.splits import NUMERIC_SPLIT, Split

        disk = make_disk(pool_bytes=1 << 20)
        parent = ColumnSet.from_arrays(
            disk, quest_schema(), *generate_quest(600, function=2, seed=0)
        )
        written = disk.stats.bytes_written
        left, right, _ = partition_columnset(
            parent,
            Split(attribute="salary", kind=NUMERIC_SPLIT, gini=0.0,
                  threshold=75_000.0),
            _NullSink(),
        )
        handles = [h for cs in (left, right) for f in cs.files() for h in f.chunk_handles]
        assert disk.stats.bytes_written - written == left.nbytes + right.nbytes
        assert disk.pool.stats.write_admits == len(handles)
        assert not any(disk.pool._entries[h].dirty for h in handles)


class TestWriteBack:
    """In-core children are admitted dirty: their disk write is charged
    only if they leave the pool other than by deletion."""

    def child(self, disk, n=600):
        cols, labels = generate_quest(n, function=2, seed=0)
        return ColumnSet.from_arrays(
            disk, quest_schema(), cols, labels, name="c", write_back=True
        )

    @staticmethod
    def handles(cs):
        return [h for f in cs.files() for h in f.chunk_handles]

    def test_child_is_dirty_and_its_write_is_deferred(self):
        disk = make_disk(pool_bytes=1 << 20)
        cs = self.child(disk)
        pool = disk.pool
        assert disk.stats.bytes_written == 0
        assert pool.stats.write_admits == len(self.handles(cs))
        assert all(pool._entries[h].dirty for h in self.handles(cs))
        cs.read_all()
        assert disk.stats.bytes_read == 0
        cs.delete()  # read, then deleted while resident: never written
        assert disk.stats.bytes_written == 0 and disk.stats.io_calls == 0
        assert not pool._entries and pool.budget.reserved == 0
        assert pool.stats.write_backs == 0

    def test_eviction_charges_the_deferred_write_once(self):
        disk = make_disk(pool_bytes=64 * 1024)
        first = self.child(disk, n=600)
        pool = disk.pool
        self.child(disk, n=600)  # fills the pool: evicts the LRU chunks
        evicted = [h for h in self.handles(first) if h not in pool._entries]
        assert evicted and pool.stats.evictions == len(evicted)
        nbytes = sum(disk.backend.get(h).nbytes for h in evicted)
        assert pool.stats.write_backs == len(evicted)
        assert pool.stats.write_back_bytes == nbytes == disk.stats.bytes_written
        # an evicted chunk reads back from the disk, clean, and its
        # deletion charges nothing more
        first.read_all()
        first.delete()
        assert disk.stats.bytes_written == nbytes

    def test_eviction_is_plain_lru_not_clean_first(self):
        disk = make_disk(pool_bytes=3 * 512 * 8)
        pool = disk.pool
        dirty = OocArray(disk, np.float64, name="dirty")
        with pool.admitting_writes(write_back=True):
            dirty.append(np.arange(512.0))
        clean, _ = chunked_array(disk, nchunks=2)
        list(clean.iter_chunks())  # two clean entries, younger than the dirty one
        list(chunked_array(disk, nchunks=1, seed=1)[0].iter_chunks())
        assert dirty.chunk_handles[0] not in pool._entries
        assert pool.stats.write_backs == 1
        assert all(h in pool._entries for h in clean.chunk_handles)

    def test_overwrite_charges_then_drops_and_crc_catches_the_flip(self):
        disk = make_disk(pool_bytes=1 << 20)
        cs = self.child(disk)
        f = cs.labels_file
        handle = f.chunk_handles[0]
        stored = disk.backend.get(handle)
        raw = bytearray(stored.tobytes())
        raw[0] ^= 1
        disk.backend.overwrite(handle, np.frombuffer(bytes(raw), dtype=stored.dtype))
        assert handle not in disk.pool._entries
        assert disk.stats.bytes_written == stored.nbytes
        assert disk.pool.stats.write_backs == 1
        with pytest.raises(ChunkCorruptionError):
            f.read_all()
        cs.delete()
        assert disk.stats.bytes_written == stored.nbytes

    def test_chunk_the_pool_cannot_admit_is_written_through_at_once(self):
        # a pinned child fills the pool: no room, so the write is charged now
        disk = make_disk(pool_bytes=64 * 1024)
        pinned = self.child(disk, n=1000)
        disk.pool.pin_columnset(pinned)
        assert disk.pool.capacity - disk.pool.budget.reserved < 600 * 8
        cs = self.child(disk)
        assert disk.pool.stats.bypasses == len(self.handles(cs))
        written = cs.nbytes
        assert disk.stats.bytes_written == written
        cs.delete()
        assert disk.stats.bytes_written == written
        assert disk.pool.stats.write_backs == 0
        # a pool smaller than one row batch admits nothing: all written now
        small = make_disk(pool_bytes=16 * 1024)
        cs = self.child(small)
        assert small.stats.bytes_written == cs.nbytes
        assert not small.pool._entries

    def test_clear_and_restart_drop_dirty_chunks_unwritten(self):
        """A restart's clean-up deletes the chunks the dead attempt
        stored; the dirty ones go unwritten, older clean ones stay."""
        disk = make_disk(pool_bytes=1 << 20)
        clean, _ = chunked_array(disk, nchunks=1)
        stored_before = [set(disk.backend.handles())]
        self.child(disk)
        written = disk.stats.bytes_written
        list(clean.iter_chunks())
        assert any(e.dirty for e in disk.pool._entries.values())
        _discard_attempt([SimpleNamespace(disk=disk)], stored_before, None)
        assert [e.dirty for e in disk.pool._entries.values()] == [False]
        assert disk.pool.budget.reserved == clean.nbytes
        assert set(disk.backend.handles()) == stored_before[0]
        assert disk.stats.bytes_written == written
        self.child(disk)
        disk.pool.clear()
        assert not disk.pool._entries and disk.pool.budget.reserved == 0
        assert disk.stats.bytes_written == written
        assert disk.pool.stats.write_backs == 0


class TestWriteBackOps:
    """Random op sequences over a small pool: every write is charged
    exactly once, when it is written through or when a dirty chunk is
    flushed, and a dirty chunk deleted while resident never is."""

    OPS = ("back", "through", "read", "prefetch", "overwrite", "delete",
           "clear", "restart")
    ROWS = (32, 64, 128, 512)  # 512 rows overflow the pool: written through

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 63), st.integers(0, 3)),
            max_size=40,
        )
    )
    @example([("back", 0, 0), ("overwrite", 0, 0)])
    @example([("back", 0, 0), ("delete", 0, 0)])
    @example([("back", 0, 0), ("restart", 0, 0)])
    @example([("back", 0, 1)] * 7)  # the seventh evicts the first
    @example([("back", 0, 3)])  # larger than the pool
    def test_every_write_is_charged_once(self, ops):
        disk = make_disk(pool_bytes=6 * 64 * 8, prefetch=True)
        pool = disk.pool
        rng = np.random.default_rng(0)
        live: list[tuple[object, int, int]] = []  # (handle, nbytes, crc)
        charged: set = set()
        through = 0
        for op, i, size in ops:
            dirty0 = {h for h, e in pool._entries.items() if e.dirty}
            written0 = disk.stats.bytes_written
            expect = 0
            if op in ("back", "through"):
                data = rng.standard_normal(self.ROWS[size])
                with pool.admitting_writes(write_back=op == "back"):
                    handle, crc = disk.write_chunk(data)
                live.append((handle, data.nbytes, crc))
                if op == "through" or handle not in pool._entries:
                    through += data.nbytes
                    expect += data.nbytes
                    assert handle not in charged
                    charged.add(handle)
            elif live:
                handle, nbytes, crc = live[i % len(live)]
                if op == "read":
                    pool.read(handle, nbytes, crc)
                elif op == "prefetch":
                    pool.issue_prefetch(handle, nbytes)
                elif op == "overwrite":  # same bytes: only the pool reacts
                    disk.backend.overwrite(handle, disk.backend.get(handle))
                elif op == "delete":
                    disk.backend.delete(handle)
                    live.remove((handle, nbytes, crc))
                    if handle in dirty0:
                        assert disk.stats.bytes_written == written0
                        assert handle not in charged
                elif op == "clear":
                    pool.clear()
                else:  # the restart deletes the dead attempt's dirty chunks
                    for h in dirty0:
                        disk.backend.delete(h)
                    live[:] = [x for x in live if x[0] not in dirty0]
            dirty1 = {h for h, e in pool._entries.items() if e.dirty}
            gone = dirty0 - dirty1
            if op in ("delete", "clear", "restart"):
                flushed = set()  # dropped unwritten
            else:
                flushed = gone  # evicted, or overwritten
            for h in flushed:
                assert h not in charged  # no chunk is charged twice
                charged.add(h)
                expect += dict((h_, n) for h_, n, _ in live)[h]
            assert disk.stats.bytes_written - written0 == expect
            assert disk.stats.bytes_written == through + pool.stats.write_back_bytes
            assert pool.budget.reserved == sum(e.nbytes for e in pool._entries.values())
            assert pool.budget.reserved <= pool.capacity
            if op == "restart":
                assert not dirty1


class TestStackedMasks:
    @pytest.mark.parametrize("with_nan", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_member_mask(self, seed, with_nan):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500) * 10
        if with_nan:
            values[rng.integers(0, 500, size=20)] = np.nan
        edges = np.sort(rng.normal(size=6) * 10)
        bounds = [-np.inf, *edges, np.inf]
        zeros = np.zeros(2)
        ivs = [
            AliveInterval("a", i, float(bounds[i]), float(bounds[i + 1]),
                          zeros, 1, 0.0)
            for i in range(len(bounds) - 1)
        ]
        # alive subsets, not just the full partition
        for keep in ([0, 2, 5], [1], list(range(len(ivs)))):
            sub = [ivs[i] for i in keep]
            got = stacked_member_masks(values, sub)
            for iv, mask in zip(sub, got):
                np.testing.assert_array_equal(mask, member_mask(values, iv))

    def test_empty_values(self):
        iv = AliveInterval("a", 0, 0.0, 1.0, np.zeros(2), 1, 0.0)
        (mask,) = stacked_member_masks(np.empty(0), [iv])
        assert mask.shape == (0,)


class TestDefaultBatchRows:
    def test_scales_with_block_and_caps_to_pool(self):
        schema = quest_schema()
        plain = make_disk()
        assert default_batch_rows(plain, schema) == max(
            1, 4 * plain.model.block // schema.row_nbytes()
        )
        small_pool = make_disk(pool_bytes=plain.model.block * 2)
        assert (
            default_batch_rows(small_pool, schema)
            <= default_batch_rows(plain, schema)
        )
        assert default_batch_rows(small_pool, schema) >= 1

    def test_from_arrays_uses_derived_default(self):
        schema = quest_schema()
        disk = make_disk(pool_bytes=1 << 20)
        cols, labels = generate_quest(1000, function=2, seed=0)
        cs = ColumnSet.from_arrays(disk, schema, cols, labels, name="n")
        step = default_batch_rows(disk, schema)
        assert cs.labels_file.nchunks == -(-1000 // step)


def fit_tree(mode, *, method="sse", exchange="attribute", seed=0,
             backend_factory=None, n_records=1500, n_ranks=2,
             memory_ratio=0.25, faults=None):
    schema = quest_schema()
    cols, labels = generate_quest(n_records, function=2, seed=seed, noise=0.05)
    limit = max(4096, int(n_records * schema.row_nbytes() * memory_ratio))
    cluster = Cluster(
        n_ranks,
        memory_limit=limit,
        seed=seed,
        buffer_pool=mode,
        pool_bytes=4 * limit,
        backend_factory=backend_factory,
    )
    dataset = DistributedDataset.create(
        cluster, schema, cols, labels, seed=seed + 1
    )
    pc = PClouds(
        PCloudsConfig(
            clouds=CloudsConfig(method=method, q_root=60, sample_size=400),
            exchange=exchange,
        )
    )
    res = pc.fit(
        dataset, seed=seed + 2, faults=faults, recover=faults is not None
    )
    return res, dataset


class TestBitIdentity:
    @pytest.mark.parametrize("method", ["ss", "sse"])
    @pytest.mark.parametrize("exchange", ["attribute", "distributed"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_trees_identical_across_pool_modes(self, method, exchange, seed):
        trees = {
            mode: fit_tree(mode, method=method, exchange=exchange, seed=seed)[
                0
            ].tree.to_dict()
            for mode in Cluster.BUFFER_POOL_MODES
        }
        assert trees["off"] == trees["lru"] == trees["lru+prefetch"]

    def test_file_backend_identical_to_memory(self, tmp_path):
        counter = [0]

        def factory():
            counter[0] += 1
            return FileBackend(tmp_path / f"rank{counter[0]}")

        mem, _ = fit_tree("lru+prefetch")
        fil, _ = fit_tree("lru+prefetch", backend_factory=factory)
        assert mem.tree.to_dict() == fil.tree.to_dict()

    @pytest.mark.parametrize("plan_index", [0, 2])
    def test_recovery_with_pool_matches_fault_free(self, plan_index):
        plan = standard_plans(2)[plan_index]
        base, _ = fit_tree("lru+prefetch")
        faulty, _ = fit_tree("lru+prefetch", faults=plan)
        assert faulty.tree.to_dict() == base.tree.to_dict()

    def test_corruption_through_cache_recovers(self):
        # bit flip lands on a stored chunk that the pool may be caching;
        # the invalidating wrapper forces a re-read, CRC fires, recovery
        # still converges to the fault-free tree
        plan = next(
            p for p in standard_plans(2) if p.name == "chunk-corruption"
        )
        base, _ = fit_tree("lru")
        faulty, res = fit_tree("lru", faults=plan)
        assert faulty.tree.to_dict() == base.tree.to_dict()

    @pytest.mark.parametrize("nth_put", [2, 40, 120])
    def test_corrupt_write_admitted_child_is_caught(self, nth_put):
        """A bit flip written right after the put of a write-admitted
        child chunk must invalidate the cached copy: the CRC fires on the
        victim rank and recovery converges to the fault-free tree.
        Admitting the caller's array after ``store_chunk`` returns would
        cache the good bytes, and no rank would see the flip."""
        admitted = {}

        class PutLog:
            def __init__(self, inner, pool, log):
                self._inner, self._pool, self._log = inner, pool, log

            def put(self, arr):
                self._log.append(self._pool.admit_writes)
                return self._inner.put(arr)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        fit = PClouds.fit

        def logged_fit(pc, dataset, **kwargs):
            for c in dataset.contexts:
                admitted[c.rank] = []
                c.disk.backend = PutLog(c.disk.backend, c.disk.pool, admitted[c.rank])
            return fit(pc, dataset, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PClouds, "fit", logged_fit)
            base, _ = fit_tree("lru")
        assert admitted[1][nth_put]  # the victim chunk is write-admitted
        plan = FaultPlan.of("corrupt-child", CorruptChunk(rank=1, nth_put=nth_put))
        faulty, ds = fit_tree("lru", faults=plan)
        assert ds.contexts[1].stats.crc_failures >= 1
        assert faulty.n_restarts >= 1
        assert faulty.tree.to_dict() == base.tree.to_dict()


class TestAcceptance:
    def test_streaming_node_rereads_collapse(self):
        """One streaming SSE node whose columns fit the pool: the three
        passes of a level (stats, alive members, partition) must read at
        least 2x fewer bytes with the pool on — the re-read passes hit
        the cache instead of the disk."""
        from repro.clouds.splits import NUMERIC_SPLIT, Split
        from repro.core.access import StreamingAccess, open_node

        schema = quest_schema()
        cols, labels = generate_quest(1200, function=2, seed=3, noise=0.05)
        node_bytes = 1200 * schema.row_nbytes()
        reads = {}
        for mode in ("off", "lru"):
            cluster = Cluster(
                1,
                memory_limit=node_bytes // 4,  # forces streaming
                buffer_pool=mode,
                pool_bytes=node_bytes,  # ... but the node fits the pool
            )
            ctx = cluster.make_contexts()[0]
            cs = ColumnSet.from_arrays(ctx.disk, schema, cols, labels, name="n")
            base = ctx.stats.bytes_read
            access = open_node(ctx, cs, schema)
            assert isinstance(access, StreamingAccess)
            boundaries = {
                a.name: np.quantile(cols[a.name], [0.25, 0.5, 0.75])
                for a in schema.numeric
            }
            access.stats_pass(boundaries)
            first = schema.numeric[0].name
            lo, hi = boundaries[first][0], boundaries[first][1]
            access.alive_members(
                [AliveInterval(first, 1, float(lo), float(hi),
                               np.zeros(schema.n_classes), 1, 0.0)]
            )
            access.partition(
                Split(attribute=first, kind=NUMERIC_SPLIT, gini=0.0,
                      threshold=float(hi))
            )
            access.release()
            reads[mode] = ctx.stats.bytes_read - base
            if mode == "lru":
                assert ctx.pool_budget.high_water <= ctx.pool_budget.limit
        assert reads["off"] >= 2 * reads["lru"]

    def test_full_fit_reads_strictly_fewer_bytes(self):
        reads = {}
        for mode in ("off", "lru"):
            res, ds = fit_tree(mode, n_records=3000, memory_ratio=0.2)
            reads[mode] = sum(c.stats.bytes_read for c in ds.contexts)
            if mode == "lru":
                assert all(
                    c.pool_budget.high_water <= c.pool_budget.limit
                    for c in ds.contexts
                )
        assert reads["off"] > 1.5 * reads["lru"]

    def test_harness_default_pool_on_and_health_sees_it(self):
        cfg = ExperimentConfig(
            n_records=2000, n_ranks=2, scale=200.0, seed=0, memory_ratio=0.25
        )
        assert cfg.buffer_pool == "lru+prefetch"
        res = run_pclouds(cfg, metrics=True)
        snap = res.metrics_snapshot()
        names = {
            m["name"] if isinstance(m, dict) else m for m in snap
        } if isinstance(snap, list) else set(snap)
        flat = str(snap)
        assert "repro_ooc_cache_hits_total" in flat
        assert "repro_ooc_prefetch_total" in flat

    def test_pool_off_cluster_has_no_pool(self):
        cluster = Cluster(2)
        for ctx in cluster.make_contexts():
            assert ctx.disk.pool is None
            assert ctx.pool_budget is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Cluster(2, buffer_pool="mru")
