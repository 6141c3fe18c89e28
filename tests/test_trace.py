"""Event tracing (comm + disk + phases) and the SPMD schedule contract."""

import json

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.cluster.trace import (
    Tracer,
    assert_schedules_match,
    attach_tracers,
)
from repro.cluster.tracereport import (
    TraceReport,
    to_chrome_trace,
    write_chrome_trace,
)

from conftest import make_cluster


def test_events_recorded_in_order():
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        ctx.comm.allgather(np.zeros(10))
        ctx.comm.barrier()
        ctx.comm.allreduce(1)

    c.run(prog, contexts=ctxs)
    ops = tracers[0].schedule()
    assert ops == ["allgather", "barrier", "allreduce"]
    assert tracers[0].events[0].nbytes == 80
    assert tracers[0].events[0].t_end >= tracers[0].events[0].t_start


def test_schedules_match_for_correct_program():
    c = make_cluster(4)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        for _ in range(3):
            ctx.comm.allreduce(ctx.rank)
        ctx.comm.gather(ctx.rank, root=1)

    c.run(prog, contexts=ctxs)
    assert_schedules_match(tracers)


def test_p2p_excluded_from_schedule():
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send("x", dst=1)
        else:
            ctx.comm.recv(src=0)
        ctx.comm.barrier()

    c.run(prog, contexts=ctxs)
    assert_schedules_match(tracers)  # sends/recvs differ; barrier matches
    assert any(e.op in ("send", "recv") for t in tracers for e in t.events)


def test_divergence_detected():
    a = Tracer(rank=0)
    b = Tracer(rank=1)
    a.record("allgather", 8, 0.0, 1.0)
    b.record("barrier", 0, 0.0, 1.0)
    with pytest.raises(AssertionError, match="diverged"):
        assert_schedules_match([a, b])


def test_length_mismatch_detected():
    a = Tracer(rank=0)
    b = Tracer(rank=1)
    a.record("barrier", 0, 0.0, 1.0)
    a.record("barrier", 0, 1.0, 2.0)
    b.record("barrier", 0, 0.0, 1.0)
    with pytest.raises(AssertionError, match="executed"):
        assert_schedules_match([a, b])


def test_timeline_renders():
    t = Tracer(rank=3)
    t.record("allreduce", 64, 0.5, 0.75)
    text = t.timeline()
    assert "rank 3" in text and "allreduce" in text
    assert t.total_comm_bytes() == 64


def test_empty_and_singleton_tracer_lists():
    assert_schedules_match([])  # no-op, not IndexError
    t = Tracer(rank=0)
    t.record("barrier", 0, 0.0, 1.0)
    assert_schedules_match([t])


def test_recv_records_true_payload_size():
    """recv must log the received payload's bytes, not the src int's."""
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.send(np.zeros(100), dst=1)
        else:
            ctx.comm.recv(src=0)

    c.run(prog, contexts=ctxs)
    (recv,) = [e for e in tracers[1].events if e.op == "recv"]
    assert recv.received == 800 and recv.nbytes == 800
    (send,) = [e for e in tracers[0].events if e.op == "send"]
    assert send.sent == 800


def test_allreduce_minloc_includes_payload_bytes():
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        ctx.comm.allreduce_minloc(float(ctx.rank), payload=np.zeros(64))

    c.run(prog, contexts=ctxs)
    (e,) = tracers[0].events
    assert e.op == "allreduce_minloc"
    assert e.sent == 8 + 512  # the float plus the elected payload


def test_byte_accounting_matches_rank_stats_exactly():
    """Summed event sent/received equal the RankStats byte counters for
    every primitive mix, including nested ones (split's allgather)."""
    c = make_cluster(3)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        ctx.comm.bcast({"a": np.ones(7), "b": 3}, root=1)
        ctx.comm.alltoall([{"x": np.full(ctx.rank + 1, 1.0)}] * ctx.size)
        sub = ctx.comm.split(0 if ctx.rank == 0 else 1)
        sub.allgather(np.arange(4))
        ctx.comm.scan(2.0)
        ctx.comm.gather(np.ones(3), root=0)

    run = c.run(prog, contexts=ctxs)
    for t, s in zip(tracers, run.stats.per_rank):
        assert sum(e.sent for e in t.comm_events()) == s.bytes_sent
        assert sum(e.received for e in t.comm_events()) == s.bytes_received


def test_disk_events_traced():
    c = make_cluster(1)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        from repro.ooc.file import OocArray

        f = OocArray(ctx.disk, np.float64, name="d")
        f.append(np.ones(50))
        return sum(chunk.sum() for chunk in f.iter_chunks())

    run = c.run(prog, contexts=ctxs)
    disk = tracers[0].disk_events()
    assert {e.op for e in disk} == {"read", "write"}
    assert sum(e.received for e in disk) == run.stats.per_rank[0].bytes_read
    assert sum(e.sent for e in disk) == run.stats.per_rank[0].bytes_written
    assert tracers[0].total_disk_bytes() > 0


def test_events_tagged_with_open_phase():
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        from repro.ooc.file import OocArray

        ctx.timer.start("io")
        OocArray(ctx.disk, np.float64, name="p").append(np.ones(10))
        ctx.timer.start("talk")
        ctx.comm.allreduce(1)
        ctx.timer.stop()
        ctx.comm.barrier()  # outside any phase

    c.run(prog, contexts=ctxs)
    t = tracers[0]
    by_op = {e.op: e for e in t.events}
    assert by_op["write"].phase == "io"
    assert by_op["allreduce"].phase == "talk"
    assert by_op["barrier"].phase is None
    # the closed phases appear as span events covering their children
    phases = {e.op: e for e in t.phase_events()}
    assert set(phases) == {"io", "talk"}
    assert phases["io"].t_start <= by_op["write"].t_start
    assert phases["talk"].t_end >= by_op["allreduce"].t_end


def test_split_returns_traced_subcommunicator():
    """Collectives on split() children must appear in schedules, and the
    contract tolerates subgroups running different schedules."""
    c = make_cluster(4)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        sub = ctx.comm.split(ctx.rank % 2)
        if ctx.rank % 2 == 0:
            sub.allreduce(1.0)
            sub.allreduce(2.0)
        else:
            sub.barrier()
        ctx.comm.barrier()

    c.run(prog, contexts=ctxs)
    assert_schedules_match(tracers)
    by_comm = tracers[0].schedules_by_comm()
    assert by_comm["world"] == ["split", "barrier"]
    (sub_label,) = [k for k in by_comm if k != "world"]
    assert sub_label == "world/0,2"
    assert by_comm[sub_label] == ["allreduce", "allreduce"]
    assert tracers[1].schedules_by_comm()["world/1,3"] == ["barrier"]


def test_subgroup_divergence_detected():
    a, b = Tracer(rank=0), Tracer(rank=2)
    for t in (a, b):
        t.record("split", 0, 0.0, 0.1)
    a.record("allreduce", 8, 0.2, 0.3, comm="world/0,2")
    b.record("barrier", 0, 0.2, 0.3, comm="world/0,2")
    with pytest.raises(AssertionError, match="world/0,2"):
        assert_schedules_match([a, b])


def test_nested_split_labels_are_consistent():
    c = make_cluster(4)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        sub = ctx.comm.split(ctx.rank // 2)
        subsub = sub.split(sub.rank)  # singleton communicators
        subsub.barrier()

    c.run(prog, contexts=ctxs)
    assert_schedules_match(tracers)
    labels = [
        e.comm for e in tracers[3].events if e.op == "barrier" and e.kind == "comm"
    ]
    assert labels == ["world/2,3/1"]


def test_chrome_trace_round_trip(tmp_path):
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        ctx.timer.start("work")
        ctx.comm.allgather(np.zeros(8))
        ctx.timer.stop()

    c.run(prog, contexts=ctxs)
    path = str(tmp_path / "trace.json")
    write_chrome_trace(path, tracers)
    with open(path) as fh:
        data = json.load(fh)
    assert data == to_chrome_trace(tracers)
    evs = data["traceEvents"]
    # one thread-name metadata record per rank
    assert sum(e["ph"] == "M" for e in evs) == 2
    slices = [e for e in evs if e["ph"] == "X"]
    assert {s["cat"] for s in slices} == {"comm", "phase"}
    comm = [s for s in slices if s["cat"] == "comm"][0]
    assert comm["name"] == "allgather"
    assert comm["args"]["sent"] == 64 and comm["args"]["received"] == 64
    assert comm["args"]["phase"] == "work"
    # phase span encloses the comm slice on the same track (Perfetto nesting)
    phase = [s for s in slices if s["cat"] == "phase" and s["tid"] == comm["tid"]][0]
    assert phase["ts"] <= comm["ts"]
    assert phase["ts"] + phase["dur"] >= comm["ts"] + comm["dur"]


def test_report_aggregates_by_phase_and_primitive():
    c = make_cluster(2)
    ctxs = c.make_contexts()
    tracers = attach_tracers(ctxs)

    def prog(ctx):
        ctx.timer.start("a")
        ctx.comm.allreduce(np.ones(4))
        ctx.timer.start("b")
        ctx.comm.allreduce(np.ones(2))
        ctx.timer.stop()

    run = c.run(prog, contexts=ctxs)
    report = TraceReport.from_tracers(tracers)
    cells = {(r.phase, r.op): r for r in report.rows}
    assert cells[("a", "allreduce")].sent == 2 * 32
    assert cells[("b", "allreduce")].sent == 2 * 16
    assert report.total_sent == sum(s.bytes_sent for s in run.stats.per_rank)
    assert report.phase_comm_bytes() == {"a": 128, "b": 64}
    skew = report.phase_skew()
    assert set(skew) == {"a", "b"}
    text = report.render()
    assert "traffic by primitive" in text and "phase skew" in text


def test_traced_run_does_no_extra_payload_walks(monkeypatch):
    """Micro-bench for tracing overhead: the tracer uses stats deltas, so
    a traced run must size payloads exactly as often as an untraced one
    (the old tracer re-walked every alltoall payload a second time)."""
    import repro.cluster.comm as comm_mod

    real = comm_mod.payload_nbytes
    calls = {"n": 0}

    def counting(obj):
        calls["n"] += 1
        return real(obj)

    def prog(ctx):
        parts = [{"x": np.ones(64), "y": np.ones(64)} for _ in range(ctx.size)]
        for _ in range(3):
            ctx.comm.alltoall(parts)
            ctx.comm.allreduce(np.ones(8))

    counts = {}
    for traced in (False, True):
        c = make_cluster(2)
        ctxs = c.make_contexts()
        if traced:
            attach_tracers(ctxs)
        monkeypatch.setattr(comm_mod, "payload_nbytes", counting)
        calls["n"] = 0
        c.run(prog, contexts=ctxs)
        counts[traced] = calls["n"]
        monkeypatch.setattr(comm_mod, "payload_nbytes", real)
    assert counts[True] == counts[False]


def test_pclouds_traced_fit_report_matches_stats(schema, quest_small):
    """End-to-end acceptance: a traced fit's per-phase comm roll-up must
    account for exactly the bytes RankStats counted during the fit."""
    from repro.clouds import CloudsConfig
    from repro.core import DistributedDataset, PClouds, PCloudsConfig

    cols, labels = quest_small
    cluster = Cluster(3, seed=0, timeout=120.0)
    ds = DistributedDataset.create(cluster, schema, cols, labels, seed=1)
    base = [(c.stats.bytes_sent, c.stats.bytes_received) for c in ds.contexts]
    res = PClouds(
        PCloudsConfig(clouds=CloudsConfig(q_root=40, sample_size=300, min_node=16))
    ).fit(ds, seed=2, trace=True)
    assert res.tracers is not None
    assert_schedules_match(res.tracers)
    report = res.trace_report()
    fit_sent = sum(
        c.stats.bytes_sent - b[0] for c, b in zip(ds.contexts, base)
    )
    fit_received = sum(
        c.stats.bytes_received - b[1] for c, b in zip(ds.contexts, base)
    )
    assert report.total_sent == fit_sent
    assert report.total_received == fit_received
    # every paper phase shows up with attributed communication
    assert {"preprocess", "stats", "alive", "partition"} <= set(
        report.phase_comm_bytes()
    )
    # and the fit touched disk under tracing as well
    assert report.total_disk_read > 0


def test_untraced_fit_has_no_tracers(schema, quest_small):
    from repro.clouds import CloudsConfig
    from repro.core import DistributedDataset, PClouds, PCloudsConfig

    cols, labels = quest_small
    cluster = make_cluster(2)
    ds = DistributedDataset.create(cluster, schema, cols, labels, seed=1)
    res = PClouds(
        PCloudsConfig(clouds=CloudsConfig(q_root=40, sample_size=300))
    ).fit(ds)
    assert res.tracers is None
    with pytest.raises(ValueError, match="trace=True"):
        res.trace_report()


def test_pclouds_obeys_the_spmd_contract(schema, quest_small):
    """The paper's whole algorithm under the tracer: every rank must
    execute the identical collective schedule."""
    from repro.clouds import CloudsConfig
    from repro.core import DistributedDataset, PClouds, PCloudsConfig

    cols, labels = quest_small
    cluster = Cluster(4, seed=0, timeout=120.0)
    ds = DistributedDataset.create(cluster, schema, cols, labels, seed=1)
    tracers = attach_tracers(ds.contexts)
    PClouds(
        PCloudsConfig(clouds=CloudsConfig(q_root=40, sample_size=300, min_node=16))
    ).fit(ds, seed=2)
    assert_schedules_match(tracers)
    # and the schedule is substantial (stats + alive + partition per node)
    assert len(tracers[0].schedule()) > 20
