"""Write-back of the spools a fit makes for itself.

The owner's spool of received small-node fragments and a forest tree's
bag are written, read back and deleted within one attempt, so both are
admitted into the rank's buffer pool dirty: their disk write is charged
only for a chunk the pool cannot admit (at once) or evicts before it is
read (once). A fit must still grow the pool-off model, end with no dirty
chunk, keep every pool within its budget, and recover the fault-free
model from corruption and crashes that hit those spools.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.clouds import CloudsConfig
from repro.cluster import CorruptChunk, CrashAtPhase, FaultPlan
from repro.core import DistributedDataset, PClouds, PCloudsConfig, checkpoint
from repro.core.alive import assign_by_cost
from repro.core.small_tasks import SmallTask, process_small_tasks
from repro.data import generate_quest, quest_schema
from repro.forest import ForestConfig, PForest
from repro.ooc import ColumnSet, OocArray
from repro.ooc.backend import chunk_crc

from conftest import make_cluster

SCHEMA = quest_schema()
ROWS = 6000


def dirty_chunks(contexts):
    return sum(
        e.dirty
        for c in contexts
        if c.disk.pool is not None
        for e in c.disk.pool._entries.values()
    )


def within_budget(contexts):
    return all(
        c.pool_budget is None or c.pool_budget.high_water <= c.pool_budget.limit
        for c in contexts
    )


# -- the small-task phase alone ---------------------------------------------


def small_task_phase(buffer_pool="off", pool_bytes=None, *, fill=False):
    """Run only the small-task phase on two ranks. Each task's rows are
    dealt alternately to the ranks at set-up; its owner receives the
    other rank's half and spools it. ``fill`` pins a chunk that takes
    every byte of each pool first. Returns (contexts, set-up handles per
    rank, bytes written and read per rank over the phase, per rank the
    fetches as (handle, nbytes, expected crc, payload crc), spool bytes
    per rank, the built subtrees per rank)."""
    cols, labels = generate_quest(ROWS, function=2, seed=0)
    cluster = make_cluster(2, buffer_pool=buffer_pool, pool_bytes=pool_bytes)
    ctxs = cluster.make_contexts()
    n_tasks = 2
    per_task = ROWS // n_tasks
    fragments = [
        [
            ColumnSet.from_arrays(
                c.disk,
                SCHEMA,
                {n: v[rows] for n, v in cols.items()},
                labels[rows],
                name=f"t{k}@{c.rank}",
            )
            for k in range(n_tasks)
            for rows in [np.arange(k * per_task + c.rank, (k + 1) * per_task, 2)]
        ]
        for c in ctxs
    ]
    setup = [set(c.disk.backend.handles()) for c in ctxs]
    if fill:
        for c in ctxs:
            filler = OocArray(c.disk, np.uint8, name="filler")
            with c.disk.pool.admitting_writes():
                filler.append(np.zeros(c.disk.pool.capacity, dtype=np.uint8))
            c.disk.pool.pin(filler.chunk_handles)
            setup[c.rank] |= set(filler.chunk_handles)
    fetched = [[] for _ in ctxs]
    for c in ctxs:
        fetch = c.disk.fetch_chunk

        def logging_fetch(handle, nbytes, crc=None, _fetch=fetch, _log=fetched[c.rank]):
            arr = _fetch(handle, nbytes, crc)
            _log.append((handle, nbytes, crc, chunk_crc(arr)))
            return arr

        c.disk.fetch_chunk = logging_fetch
    io0 = [(c.stats.bytes_written, c.stats.bytes_read) for c in ctxs]
    owner = assign_by_cost([1.0] * n_tasks, 2)
    spool_bytes = [
        sum(
            fragments[1 - r][k].nbytes for k in range(n_tasks) if owner[k] == r
        )
        for r in range(2)
    ]

    def program(ctx):
        tasks = [
            SmallTask(k, 0, per_task, np.zeros(2, np.int64), fragments[ctx.rank][k])
            for k in range(n_tasks)
        ]
        return process_small_tasks(ctx, tasks, SCHEMA, PCloudsConfig())

    run = cluster.run(program, contexts=ctxs)
    io = [
        (c.stats.bytes_written - w0, c.stats.bytes_read - r0)
        for c, (w0, r0) in zip(ctxs, io0)
    ]
    return ctxs, setup, io, fetched, spool_bytes, run.results


@pytest.fixture(scope="module")
def pool_off_phase():
    return small_task_phase()


@pytest.mark.parametrize(
    "pool_bytes, fill", [(16 * 1024, False), (256 * 1024, True)],
    ids=["pool-under-one-row-batch", "pool-with-no-room"],
)
def test_spool_the_pool_cannot_admit_is_written_through(pool_off_phase, pool_bytes, fill):
    """The spool is written at once and read back from the disk: each
    rank writes and reads exactly the bytes of the pool-off phase."""
    _, _, io_off, _, spool_bytes, subtrees_off = pool_off_phase
    ctxs, _, io, _, _, subtrees = small_task_phase("lru", pool_bytes, fill=fill)
    assert subtrees == subtrees_off
    assert all(spool_bytes)
    for (written, read), off, spooled in zip(io, io_off, spool_bytes):
        assert (written, read) == off
        assert written == spooled
    pools = [c.disk.pool for c in ctxs]
    assert all(p.stats.write_backs == 0 for p in pools)
    if fill:  # every spool chunk tried the pool and found no room
        assert all(p.stats.bypasses > 0 for p in pools)
    else:
        assert all(p.stats.write_admits == 0 for p in pools)
    assert dirty_chunks(ctxs) == 0 and within_budget(ctxs)


def test_spool_evicted_dirty_is_written_once_and_read_back_verified(pool_off_phase):
    """Spool chunks that a 64 KiB pool evicts before the build loop reads
    them are charged once, as write-backs, and read back from the disk
    with their CRC checked; the rest are read from the pool and deleted
    unwritten."""
    subtrees_off = pool_off_phase[-1]
    ctxs, setup, io, fetched, spool_bytes, subtrees = small_task_phase(
        "lru", 64 * 1024
    )
    assert subtrees == subtrees_off
    for c, (written, read), spooled in zip(ctxs, io, spool_bytes):
        stats = c.disk.pool.stats
        assert stats.write_backs > 0
        assert written == stats.write_back_bytes < spooled
        spool_reads = [f for f in fetched[c.rank] if f[0] not in setup[c.rank]]
        assert len(spool_reads) == stats.write_backs
        assert len({h for h, *_ in spool_reads}) == len(spool_reads)
        assert sum(n for _, n, _, _ in spool_reads) == stats.write_back_bytes
        assert all(crc is not None and crc == got for _, _, crc, got in spool_reads)
        setup_reads = sum(n for h, n, _, _ in fetched[c.rank] if h in setup[c.rank])
        assert read == setup_reads + stats.write_back_bytes
    assert dirty_chunks(ctxs) == 0 and within_budget(ctxs)


# -- whole fits ---------------------------------------------------------------


@pytest.fixture(scope="module")
def quest():
    return generate_quest(1200, function=2, seed=3, noise=0.05)


def pconfig():
    return PCloudsConfig(
        clouds=CloudsConfig(method="sse", q_root=60, sample_size=400, min_node=8),
        q_switch=8,
    )


def dataset(quest, p, **cluster_kwargs):
    cols, labels = quest
    cluster = make_cluster(p, **cluster_kwargs)
    return DistributedDataset.create(cluster, SCHEMA, cols, labels, seed=1)


def streaming_dataset(quest):
    """Every large node streams, so its children are written through
    and the only write-back puts of a fit are its small-task spools."""
    return dataset(
        quest, 2, memory_limit=4 * 1024, buffer_pool="lru+prefetch",
        pool_bytes=1 << 20,
    )


def fit_logging_puts(make, fit, faults=None):
    """Run ``fit(dataset, faults)`` recovering, with every put of the fit
    logged per rank as (write-back put, open phase)."""
    ds = make()
    log = {c.rank: [] for c in ds.contexts}

    class PutLog:
        def __init__(self, inner, ctx, out):
            self._inner, self._ctx, self._out = inner, ctx, out

        def put(self, arr):
            ctx = self._ctx
            self._out.append((ctx.disk.pool.write_back, ctx.timer.current))
            return self._inner.put(arr)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    for c in ds.contexts:
        c.disk.backend = PutLog(c.disk.backend, c, log[c.rank])
    return fit(ds, faults or FaultPlan.of("none")), ds, log


def fit_tree(ds, faults):
    return PClouds(pconfig()).fit(ds, seed=2, faults=faults, recover=True)


def test_corrupt_dirty_spool_put_is_caught(quest):
    base, _, log = fit_logging_puts(lambda: streaming_dataset(quest), fit_tree)
    spool_puts = [i for i, (back, _) in enumerate(log[1]) if back]
    assert spool_puts
    assert {log[1][i][1] for i in spool_puts} == {"small_nodes"}
    plan = FaultPlan.of(
        "corrupt-dirty-spool", CorruptChunk(rank=1, nth_put=spool_puts[0])
    )
    faulty, ds, _ = fit_logging_puts(lambda: streaming_dataset(quest), fit_tree, plan)
    assert ds.contexts[1].stats.crc_failures >= 1
    assert faulty.n_restarts >= 1
    assert faulty.tree.to_dict() == base.tree.to_dict()
    assert dirty_chunks(ds.contexts) == 0 and within_budget(ds.contexts)


@pytest.fixture
def discards(monkeypatch):
    """Per restart clean-up: each rank's (dirty chunks, bytes written)
    before it and after it."""
    out = []
    discard = checkpoint._discard_attempt

    def snapshot(contexts):
        return [(dirty_chunks([c]), c.stats.bytes_written) for c in contexts]

    def logging_discard(contexts, stored_before, store):
        before = snapshot(contexts)
        discard(contexts, stored_before, store)
        out.append((before, snapshot(contexts)))

    monkeypatch.setattr(checkpoint, "_discard_attempt", logging_discard)
    return out


def assert_dropped_unwritten(discards):
    """The dead attempt died holding dirty chunks; its clean-up dropped
    every one of them and charged no write."""
    [(before, after)] = discards
    assert sum(dirty for dirty, _ in before) > 0
    assert after == [(0, written) for _, written in before]


def test_crash_in_small_nodes_recovers_with_no_dirty_chunk(quest, discards):
    """Crash as the small-node phase begins, with the frontier's in-core
    fragments dirty in the pool; the restart drops them unwritten."""
    def make():
        return dataset(
            quest, 2, memory_limit=len(quest[1]) * SCHEMA.row_nbytes(),
            buffer_pool="lru+prefetch",
        )

    base = fit_tree(make(), FaultPlan.of("none"))
    ds = make()
    plan = FaultPlan.of("crash-small", CrashAtPhase(rank=1, phase="small_nodes"))
    faulty = fit_tree(ds, plan)
    assert faulty.n_restarts == 1
    assert faulty.tree.to_dict() == base.tree.to_dict()
    assert_dropped_unwritten(discards)
    assert dirty_chunks(ds.contexts) == 0 and within_budget(ds.contexts)


# -- forests ------------------------------------------------------------------

B = 4


def forest_dataset(quest, mode="lru+prefetch"):
    return dataset(quest, 4, buffer_pool=mode)


def fit_forest(ds, faults=None, n_groups=1, trace=False):
    cfg = ForestConfig(
        n_trees=B,
        pclouds=PCloudsConfig(
            clouds=CloudsConfig(q_root=40, sample_size=200, min_node=16),
            q_switch=8,
        ),
        regime="hybrid",
        n_groups=n_groups,
    )
    return PForest(cfg).fit(
        ds, seed=5, faults=faults, recover=faults is not None, trace=trace
    )


def roots(res):
    return [t.to_dict()["root"] for t in res.forest.trees]


def bag_writes(res):
    """Traced write bytes in each ``tree<t>/bag`` phase, over all ranks."""
    out = defaultdict(int)
    for tracer in res.tracers:
        for e in tracer.disk_events():
            if e.op == "write" and e.phase.endswith("/bag"):
                out[e.phase] += e.nbytes
    return dict(out)


@pytest.fixture(scope="module")
def pool_off_forest(quest):
    ds = forest_dataset(quest, "off")
    return fit_forest(ds, trace=True)


def test_pool_off_forest_writes_every_bag(quest, pool_off_forest):
    n = len(quest[1])
    assert bag_writes(pool_off_forest) == {
        f"tree{t}/bag": n * SCHEMA.row_nbytes() for t in range(B)
    }


@pytest.mark.parametrize("n_groups", [1, 2, 4])
def test_forest_bags_are_written_back(quest, pool_off_forest, n_groups):
    ds = forest_dataset(quest)
    res = fit_forest(ds, n_groups=n_groups, trace=True)
    assert res.n_groups == n_groups
    assert roots(res) == roots(pool_off_forest)
    assert bag_writes(res) == {}
    assert sum(c.disk.pool.stats.write_admits for c in ds.contexts) > 0
    assert dirty_chunks(ds.contexts) == 0 and within_budget(ds.contexts)


def test_corrupt_dirty_bag_put_is_caught(quest, pool_off_forest):
    def fit(ds, faults):
        return fit_forest(ds, faults, n_groups=2)

    _, _, log = fit_logging_puts(lambda: forest_dataset(quest), fit)
    bag_puts = [
        i for i, (back, phase) in enumerate(log[3])
        if back and phase.endswith("/bag")
    ]
    assert bag_puts
    plan = FaultPlan.of("corrupt-dirty-bag", CorruptChunk(rank=3, nth_put=bag_puts[1]))
    faulty, ds, _ = fit_logging_puts(lambda: forest_dataset(quest), fit, plan)
    assert ds.contexts[3].stats.crc_failures >= 1
    assert faulty.n_restarts >= 1
    assert roots(faulty) == roots(pool_off_forest)
    assert dirty_chunks(ds.contexts) == 0 and within_budget(ds.contexts)


def test_crash_after_the_bag_is_written_recovers(quest, pool_off_forest, discards):
    """Crash as tree 1's root reads its bag: the dead attempt holds the
    bag dirty; the restart drops it unwritten and refits the tree."""
    ds = forest_dataset(quest)
    plan = FaultPlan.of(
        "crash-preprocess", CrashAtPhase(rank=3, phase="tree1/preprocess")
    )
    faulty = fit_forest(ds, plan, n_groups=2)
    assert faulty.n_restarts == 1
    assert roots(faulty) == roots(pool_off_forest)
    assert_dropped_unwritten(discards)
    assert dirty_chunks(ds.contexts) == 0 and within_budget(ds.contexts)
