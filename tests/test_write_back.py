"""Write-back of in-core children and small-task spools, end to end.

An in-core node's children and the owner's spool of received small-node
fragments stay dirty in the rank's buffer pool; their disk write is
charged only if they leave it other than by deletion. An in-core fit
whose pool holds everything therefore writes nothing at all, and must
still grow the pool-off tree, end with no dirty chunk, and recover the
fault-free tree from corruption and crashes that hit those chunks.
"""

from collections import defaultdict

import pytest

from repro.clouds import CloudsConfig
from repro.cluster import CorruptChunk, CrashAtPhase, FaultPlan
from repro.core import DistributedDataset, PClouds, PCloudsConfig, checkpoint
from repro.data import generate_quest, quest_schema

from conftest import make_cluster

EXCHANGES = ("attribute", "distributed", "voting", "allreduce")


@pytest.fixture(scope="module")
def quest():
    return generate_quest(1200, function=2, seed=3, noise=0.05)


def in_core_dataset(quest, p, mode):
    """Memory limit = the whole data set: every node of every rank runs
    in core, so every partition child is written back."""
    cols, labels = quest
    schema = quest_schema()
    cluster = make_cluster(
        p, memory_limit=len(labels) * schema.row_nbytes(), buffer_pool=mode
    )
    return DistributedDataset.create(cluster, schema, cols, labels, seed=1)


def config(method="sse", exchange="attribute"):
    return PCloudsConfig(
        clouds=CloudsConfig(method=method, q_root=60, sample_size=400, min_node=8),
        q_switch=8,
        exchange=exchange,
        vote_top_k=2,
    )


def writes_by_phase(res, ds, written0):
    """Per rank: (bytes written over the fit, traced write bytes per phase)."""
    out = []
    for tracer, ctx, w0 in zip(res.tracers, ds.contexts, written0):
        phases = defaultdict(int)
        for e in tracer.disk_events():
            if e.op == "write":
                phases[e.phase] += e.nbytes
        out.append((ctx.stats.bytes_written - w0, dict(phases)))
    return out


def dirty_chunks(ds):
    return sum(e.dirty for c in ds.contexts for e in c.disk.pool._entries.values())


@pytest.mark.parametrize("exchange", EXCHANGES)
@pytest.mark.parametrize("method", ["ss", "sse"])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_in_core_fit_writes_no_child(quest, p, method, exchange):
    runs = {}
    for mode in ("off", "lru+prefetch"):
        ds = in_core_dataset(quest, p, mode)
        written0 = [c.stats.bytes_written for c in ds.contexts]
        res = PClouds(config(method, exchange)).fit(ds, seed=2, trace=True)
        runs[mode] = (res, ds, writes_by_phase(res, ds, written0))
    (off, _, off_writes), (on, ds, on_writes) = runs["off"], runs["lru+prefetch"]
    assert on.tree.to_dict() == off.tree.to_dict()
    assert all(c.disk.pool.stats.evictions == 0 for c in ds.contexts)
    assert sum(c.disk.pool.stats.write_admits for c in ds.contexts) > 0
    # the pool-off fit writes every child in its partition phase and,
    # on more than one rank, every received spool in its small-node
    # phase, and nothing else; the pool holds all of it, so the pool-on
    # fit writes nothing at all
    off_phases = {ph for _, phs in off_writes for ph, n in phs.items() if n}
    assert off_phases == ({"partition", "small_nodes"} if p > 1 else {"partition"})
    for (w_off, ph_off), (w_on, ph_on) in zip(off_writes, on_writes):
        assert w_off == sum(ph_off.values())
        assert w_on == 0 and not ph_on
    assert dirty_chunks(ds) == 0
    assert all(c.pool_budget.high_water <= c.pool_budget.limit for c in ds.contexts)


def fit_logging_puts(quest, faults=None):
    """A recovering in-core fit at p = 2; returns (result, dataset, per
    rank, whether each put of the fit was a write-back put)."""
    ds = in_core_dataset(quest, 2, "lru+prefetch")
    log = {c.rank: [] for c in ds.contexts}

    class PutLog:
        def __init__(self, inner, pool, out):
            self._inner, self._pool, self._out = inner, pool, out

        def put(self, arr):
            self._out.append(self._pool.write_back)
            return self._inner.put(arr)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    for c in ds.contexts:
        c.disk.backend = PutLog(c.disk.backend, c.disk.pool, log[c.rank])
    res = PClouds(config()).fit(
        ds, seed=2, faults=faults or FaultPlan.of("none"), recover=True
    )
    return res, ds, log


@pytest.fixture(scope="module")
def fault_free(quest):
    return fit_logging_puts(quest)


@pytest.mark.parametrize("which", [0, 0.5, -1])
def test_corrupt_write_back_child_is_caught(quest, fault_free, which):
    base, _, log = fault_free
    backs = [i for i, back in enumerate(log[1]) if back]
    assert backs
    nth_put = backs[which if isinstance(which, int) else int(len(backs) * which)]
    plan = FaultPlan.of("corrupt-dirty-child", CorruptChunk(rank=1, nth_put=nth_put))
    faulty, ds, _ = fit_logging_puts(quest, plan)
    assert ds.contexts[1].stats.crc_failures >= 1
    assert faulty.n_restarts >= 1
    assert faulty.tree.to_dict() == base.tree.to_dict()
    assert dirty_chunks(ds) == 0


def test_crash_in_partition_drops_the_dead_attempts_dirty_children(
    quest, fault_free, monkeypatch
):
    """The restart's clean-up deletes every chunk the dead attempt
    stored, its dirty children among them, and a delete drops a dirty
    chunk unwritten: the discard charges nothing."""
    base = fault_free[0]
    discards = []
    discard = checkpoint._discard_attempt

    def snapshot(contexts):
        return [
            (
                sum(e.dirty for e in c.disk.pool._entries.values()),
                c.stats.bytes_written,
                c.disk.pool.stats.write_backs,
            )
            for c in contexts
        ]

    def counting_discard(contexts, stored_before, store):
        before = snapshot(contexts)
        discard(contexts, stored_before, store)
        discards.append((before, snapshot(contexts)))

    monkeypatch.setattr(checkpoint, "_discard_attempt", counting_discard)
    ds = in_core_dataset(quest, 2, "lru+prefetch")
    at_attempt = []

    class DirtyAtAttempt:
        def __init__(self, ctx):
            self.ctx = ctx

        def begin_attempt(self, attempt):
            entries = self.ctx.disk.pool._entries.values()
            at_attempt.append((attempt, sum(e.dirty for e in entries)))

    for c in ds.contexts:
        c.observers.append(DirtyAtAttempt(c))
    # the second partition: rank 1 holds the root's dirty children
    plan = FaultPlan.of("crash-partition", CrashAtPhase(rank=1, phase="partition", visit=1))
    faulty = PClouds(config()).fit(ds, seed=2, faults=plan, recover=True)
    assert faulty.n_restarts == 1
    assert faulty.tree.to_dict() == base.tree.to_dict()
    [(before, after)] = discards
    assert sum(dirty for dirty, _, _ in before) > 0  # died holding dirty children
    for (_, written0, backs0), (dirty, written1, backs1) in zip(before, after):
        assert dirty == 0
        assert (written1, backs1) == (written0, backs0)  # dropped unwritten
    assert [n for attempt, n in at_attempt if attempt > 0] == [0, 0]
    assert dirty_chunks(ds) == 0
