"""One event source: the tracer, the metrics registry, the health drift
and the fault log fold the same per-rank event stream, so they agree
with each other and with RankStats by construction."""

from collections import defaultdict

import numpy as np
import pytest

from repro.clouds import CloudsConfig
from repro.cluster import FaultInjector, standard_plans
from repro.cluster.diskmodel import DiskModel
from repro.cluster.trace import attach_tracers
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.data import generate_quest, quest_schema
from repro.forest import ForestConfig, PForest
from repro.obs.instrument import attach_metrics

from conftest import make_cluster

EXCHANGES = ("attribute", "distributed", "voting", "allreduce")


@pytest.fixture(scope="module")
def quest():
    return generate_quest(1500, function=2, seed=3, noise=0.02)


def dataset(quest, p=4, **cluster_kwargs):
    cols, labels = quest
    cluster = make_cluster(p, **cluster_kwargs)
    return DistributedDataset.create(cluster, quest_schema(), cols, labels, seed=1)


def totals(registry, name, *positions):
    """Sum a metric family's merged samples over the label positions kept."""
    out = defaultdict(float)
    for s in registry.merged()[name]:
        out[tuple(s.labels[i] for i in positions)] += s.value
    return out


def fault_views(res):
    """(injector log, trace fault events, repro_faults_total) counts."""
    traced = sum(len(t.fault_events()) for t in res.tracers)
    metered = sum(totals(res.metrics, "repro_faults_total").values())
    return len(res.fault_events), traced, metered


def assert_views_agree(res, contexts, stats0):
    reg = res.metrics
    coll = totals(reg, "repro_collective_bytes_total", 0, 2)
    p2p = totals(reg, "repro_p2p_bytes_total", 0, 1)
    for tracer, ctx, (sent0, received0) in zip(res.tracers, contexts, stats0):
        rank = str(tracer.rank)
        comm = tracer.comm_events()
        for direction, traced, delta in (
            ("sent", sum(e.sent for e in comm), ctx.stats.bytes_sent - sent0),
            (
                "received",
                sum(e.received for e in comm),
                ctx.stats.bytes_received - received0,
            ),
        ):
            metered = coll[(rank, direction)] + p2p[(rank, direction)]
            assert traced == metered == delta, (rank, direction)

    calls = defaultdict(int)
    disk = defaultdict(int)
    for tracer in res.tracers:
        for e in tracer.schedule():
            calls[e] += 1
        for e in tracer.disk_events():
            if e.op in ("read", "write", "prefetch"):
                disk[e.op] += e.nbytes
    metered_calls = totals(reg, "repro_collective_calls_total", 2)
    assert {op: int(v) for (op,), v in metered_calls.items()} == dict(calls)
    metered_disk = totals(reg, "repro_disk_bytes_total", 1)
    assert {op: int(v) for (op,), v in metered_disk.items() if v} == {
        op: v for op, v in disk.items() if v
    }

    admits = totals(reg, "repro_ooc_cache_write_admits_total", 0)
    writebacks = totals(reg, "repro_ooc_cache_writebacks_total", 0)
    for ctx in contexts:
        assert admits[(str(ctx.rank),)] == ctx.disk.pool.stats.write_admits
        assert writebacks[(str(ctx.rank),)] == ctx.disk.pool.stats.write_backs

    drift = res.health.drift_ops
    assert drift
    for op, (observed, predicted) in drift.items():
        assert observed / predicted == pytest.approx(1.0, abs=1e-9), op


@pytest.mark.parametrize("method", ["ss", "sse"])
@pytest.mark.parametrize("exchange", EXCHANGES)
def test_trace_metrics_and_stats_agree_on_a_fit(quest, exchange, method):
    ds = dataset(quest, memory_limit=64 * 1024, buffer_pool="lru+prefetch")
    stats0 = [(c.stats.bytes_sent, c.stats.bytes_received) for c in ds.contexts]
    cfg = PCloudsConfig(
        clouds=CloudsConfig(method=method, q_root=60, sample_size=400, min_node=8),
        q_switch=8,
        exchange=exchange,
        vote_top_k=2,
    )
    res = PClouds(cfg).fit(ds, seed=2, trace=True, metrics=True)
    assert_views_agree(res, ds.contexts, stats0)
    assert any(c.disk.pool.stats.write_admits for c in ds.contexts)


def test_write_backs_of_evicted_children_are_writes_in_every_view(quest):
    """In-core children that overflow a small pool are evicted dirty; each
    deferred write is a write in the trace, the metrics and RankStats."""
    cols, labels = quest
    ds = dataset(
        quest,
        memory_limit=len(labels) * quest_schema().row_nbytes(),
        buffer_pool="lru+prefetch",
        pool_bytes=16 * 1024,
        disk=DiskModel(block=4096),
    )
    stats0 = [(c.stats.bytes_sent, c.stats.bytes_received) for c in ds.contexts]
    written0 = [c.stats.bytes_written for c in ds.contexts]
    cfg = PCloudsConfig(
        clouds=CloudsConfig(q_root=60, sample_size=400, min_node=8), q_switch=8
    )
    res = PClouds(cfg).fit(ds, seed=2, trace=True, metrics=True)
    assert_views_agree(res, ds.contexts, stats0)
    assert_writes_agree(res, ds.contexts, written0)


def test_write_backs_of_evicted_spools_are_writes_in_every_view(quest):
    """Every large node streams, so its children are written through and
    only the small-task spools are written back; they overflow a small
    pool and are evicted dirty. Each deferred write is a write in the
    trace, the metrics and RankStats."""
    ds = dataset(
        quest,
        p=2,
        memory_limit=4 * 1024,
        buffer_pool="lru+prefetch",
        pool_bytes=8 * 1024,
        disk=DiskModel(block=4096),
    )
    stats0 = [(c.stats.bytes_sent, c.stats.bytes_received) for c in ds.contexts]
    written0 = [c.stats.bytes_written for c in ds.contexts]
    cfg = PCloudsConfig(
        clouds=CloudsConfig(q_root=60, sample_size=400, min_node=8), q_switch=8
    )
    res = PClouds(cfg).fit(ds, seed=2, trace=True, metrics=True)
    assert_views_agree(res, ds.contexts, stats0)
    assert_writes_agree(res, ds.contexts, written0, phase="small_nodes")


def assert_writes_agree(res, contexts, written0, phase=None):
    """Per rank, the traced writes (of ``phase``, if given) hold every
    write-back, and all traced writes equal the metered ones and the
    fit's ``RankStats.bytes_written``."""
    assert all(c.disk.pool.stats.write_backs for c in contexts)
    metered = totals(res.metrics, "repro_disk_bytes_total", 0, 1)
    for tracer, ctx, w0 in zip(res.tracers, contexts, written0):
        writes = [e for e in tracer.disk_events() if e.op == "write"]
        traced = sum(e.nbytes for e in writes)
        assert traced == metered[(str(ctx.rank), "write")]
        assert traced == ctx.stats.bytes_written - w0
        in_phase = sum(e.nbytes for e in writes if phase in (None, e.phase))
        assert in_phase >= ctx.disk.pool.stats.write_back_bytes > 0
        assert ctx.pool_budget.high_water <= ctx.pool_budget.limit


def test_trace_metrics_and_stats_agree_on_a_split_forest(quest):
    ds = dataset(quest, buffer_pool="lru+prefetch")
    stats0 = [(c.stats.bytes_sent, c.stats.bytes_received) for c in ds.contexts]
    cfg = ForestConfig(
        n_trees=2,
        pclouds=PCloudsConfig(
            clouds=CloudsConfig(q_root=40, sample_size=200, min_node=16),
            q_switch=8,
        ),
        regime="tree",
    )
    res = PForest(cfg).fit(ds, seed=5, trace=True, metrics=True)
    assert "split" in res.tracers[0].schedule()
    assert "split" in res.health.drift_ops
    assert_views_agree(res, ds.contexts, stats0)


@pytest.mark.parametrize("exchange", ["attribute", "distributed"])
def test_exchange_payload_is_what_the_stats_alltoall_sent(quest, exchange):
    """The owner-side exchange reports, per rank, the bytes its stats
    alltoall charged for the shares that rank shipped."""
    ds = dataset(quest)
    cfg = PCloudsConfig(
        clouds=CloudsConfig(q_root=60, sample_size=400, min_node=8),
        q_switch=8,
        exchange=exchange,
    )
    res = PClouds(cfg).fit(ds, seed=2, trace=True, metrics=True)
    payload = totals(res.metrics, "repro_exchange_payload_bytes_total", 0)
    for tracer in res.tracers:
        sent = sum(
            e.sent for e in tracer.comm_events()
            if e.op == "alltoall" and e.phase == "stats"
        )
        assert sent > 0
        assert payload[(str(tracer.rank),)] == sent


def test_irecv_bytes_reach_metrics():
    """A receive completed by ``irecv().wait()`` is one ``recv`` event for
    every observer, so metrics count its bytes like the trace does."""
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)
    registry, _ = attach_metrics(ctxs)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.zeros(100), dst=1)
            ctx.comm.isend(np.zeros(50), dst=1).wait()
        else:
            ctx.comm.recv(src=0)
            ctx.comm.irecv(src=0).wait()

    c.run(prog, contexts=ctxs)
    p2p = totals(registry, "repro_p2p_bytes_total", 0, 1)
    for tracer, ctx in zip(tracers, ctxs):
        rank = str(ctx.rank)
        comm = tracer.comm_events()
        assert p2p[(rank, "sent")] == sum(e.sent for e in comm) == ctx.stats.bytes_sent
        assert (
            p2p[(rank, "received")]
            == sum(e.received for e in comm)
            == ctx.stats.bytes_received
        )
    assert ctxs[1].stats.bytes_received == 1200
    assert [e.op for e in tracers[1].comm_events()] == ["recv", "recv"]


@pytest.mark.parametrize("plan", standard_plans(2), ids=lambda p: p.name)
def test_fault_views_agree(quest, plan):
    """Injector log, trace fault events and repro_faults_total count the
    same faults — the straggler included: it fires as the first attempt
    begins, when every observer has subscribed."""
    ds = dataset(quest, p=2)
    res = PClouds().fit(
        ds, seed=2, faults=plan, recover=True, trace=True, metrics=True
    )
    injector, traced, metered = fault_views(res)
    assert injector >= 1
    assert injector == traced == metered


def test_dispatch_order_is_fixed_whatever_the_attach_order():
    ctxs = make_cluster(2).make_contexts()
    _, recorders = attach_metrics(ctxs)
    tracers = attach_tracers(ctxs)
    FaultInjector([]).attach(ctxs)
    kinds = [type(o).__name__ for o in ctxs[0].observers]
    assert kinds == ["_RankFaults", "Tracer", "MetricsRecorder"]
    assert ctxs[0].observers[1:] == [tracers[0], recorders[0]]
