"""Causal critical-path profiler: the exact-length invariant, straggler
attribution, prefetch-overlap reconciliation, what-if bounds against the
Table-1 closed forms, flow events, and the benchmark trajectory gate."""

import json

import pytest

from repro.bench.harness import ExperimentConfig, run_pclouds, scaled_models
from repro.cluster.faults import FaultPlan, SlowRank
from repro.cluster.tracereport import TraceReport, to_chrome_trace
from repro.dnc.cost import observed_collective_cost, startup_cost
from repro.obs.critpath import (
    CATEGORIES,
    CritPathError,
    build_critical_path,
    collective_groups,
    critpath_alerts,
    match_p2p,
    record_critpath_metrics,
)
from repro.obs.health import HealthMonitor, HealthThresholds
from repro.obs.registry import MetricsRegistry
from repro.obs.whatif import (
    Scenario,
    evaluate,
    evaluate_all,
    standard_scenarios,
    voting_payload_ratio,
)


def fit(seed=3, n_records=1200, n_ranks=4, **kw):
    cfg = ExperimentConfig(
        n_records=n_records, n_ranks=n_ranks, seed=seed, **kw
    )
    res = run_pclouds(cfg, trace=True)
    return cfg, res


def path_of(cfg, res):
    network = scaled_models(cfg.scale)[0]
    return build_critical_path(res.tracers, network, elapsed=res.elapsed)


# -- the tentpole invariant ---------------------------------------------------

# exchanges × SS/SSE × batch sizes × buffer-pool modes × seeds, curated
# to cover every axis value at least twice without running the full cross
# product (a pool of 0.25x the memory limit makes every large node a batch
# of one; the default 4x pool batches several nodes per level)
GRID = [
    dict(exchange="attribute", buffer_pool="off", seed=0),
    dict(exchange="attribute", method="ss", buffer_pool="lru", seed=1),
    dict(exchange="distributed", buffer_pool="lru+prefetch", seed=2),
    dict(exchange="distributed", pool_ratio=0.25, seed=3),
    dict(exchange="allreduce", buffer_pool="lru", seed=4),
    dict(exchange="allreduce", method="ss", pool_ratio=0.25, seed=5),
    dict(exchange="voting", vote_top_k=4, buffer_pool="off", seed=6),
    dict(exchange="voting", vote_top_k=4,
         buffer_pool="lru+prefetch", seed=7),
    dict(method="ss", buffer_pool="lru+prefetch", pool_ratio=0.25, seed=8),
    dict(buffer_pool="lru+prefetch", pool_ratio=1.0,
         n_records=4000, n_ranks=2, seed=9),
]


@pytest.mark.parametrize("kw", GRID, ids=lambda kw: "-".join(
    f"{k}={v}" for k, v in kw.items()))
def test_path_length_equals_elapsed_exactly(kw):
    cfg, res = fit(**kw)
    path = path_of(cfg, res)
    assert path.length == res.elapsed  # bitwise, not approx
    assert path.elapsed == res.elapsed
    # segments tile [0, elapsed] contiguously and in causal order
    assert path.segments[0].t_start == 0.0
    assert path.segments[-1].t_end == res.elapsed
    for a, b in zip(path.segments, path.segments[1:]):
        assert a.t_end == b.t_start
    assert set(s.category for s in path.segments) <= set(CATEGORIES)
    # issue-time prefetch slices never appear on the path
    assert all(s.op != "prefetch" for s in path.segments)


def test_straggler_moves_path_onto_slow_rank(schema, quest_small):
    from repro.core.dataset import DistributedDataset
    from repro.core.pclouds import PClouds

    def build(plan=None):
        cfg = ExperimentConfig(n_records=2000, n_ranks=4, seed=3)
        from repro.bench.harness import build_cluster

        cluster = build_cluster(cfg, schema.row_nbytes())
        cols, labels = quest_small
        dataset = DistributedDataset.create(
            cluster, schema, cols, labels, seed=cfg.seed + 1
        )
        res = PClouds().fit(dataset, seed=cfg.seed + 2, trace=True,
                            faults=plan)
        return build_critical_path(
            res.tracers, scaled_models(cfg.scale)[0], elapsed=res.elapsed
        )

    base = build()
    slow = build(FaultPlan.of("straggler", SlowRank(2, factor=4.0)))
    base_share = base.rank_share().get(2, 0.0) / base.length
    slow_share = slow.rank_share().get(2, 0.0) / slow.length
    # the 4x-slowed rank takes over (almost all of) the path
    assert slow_share > 0.9 > base_share
    assert slow.length == slow.elapsed  # invariant holds under faults too


def test_stale_elapsed_rejected():
    cfg, res = fit(seed=0, n_records=800, n_ranks=2)
    with pytest.raises(CritPathError):
        build_critical_path(
            res.tracers, scaled_models(cfg.scale)[0],
            elapsed=res.elapsed / 2,
        )


# -- prefetch overlap reconciliation (satellite 3) ----------------------------


@pytest.fixture(scope="module")
def prefetch_run():
    return fit(seed=9, n_records=4000, n_ranks=2,
               buffer_pool="lru+prefetch", pool_ratio=1.0)


def test_overlap_saved_reconciles_per_rank(prefetch_run):
    cfg, res = prefetch_run
    total = 0.0
    for t, s in zip(res.tracers, res.run.stats.per_rank):
        ev_saved = sum(e.saved for e in t.events if e.op == "prefetch_wait")
        assert ev_saved == s.io_overlap_saved  # bit-identical per rank
        total += s.io_overlap_saved
    assert total > 0.0  # the config actually overlapped something
    # ... and the per-level roll-up carries the same total
    rows = TraceReport(res.tracers).level_rollup()
    assert sum(r.overlap_saved for r in rows) == pytest.approx(total, rel=0, abs=1e-12)


def test_hidden_overlap_never_on_the_path(prefetch_run):
    cfg, res = prefetch_run
    path = path_of(cfg, res)
    assert path.length == res.elapsed
    # a prefetch_wait segment on the path costs only its residual wait —
    # the event's span — never the rated transfer it hid
    by_id = {}
    for t in res.tracers:
        for e in t.events:
            if e.op == "prefetch_wait":
                by_id[(t.rank, e.t_start, e.t_end)] = e
    for s in path.segments:
        if s.op == "prefetch_wait":
            e = by_id[(s.rank, s.t_start, s.t_end)]
            assert s.duration == e.t_end - e.t_start
            assert s.duration <= e.saved + s.duration  # wait excludes saved


# -- blocked-wait metering (satellite 1) --------------------------------------


def test_blocked_field_captures_sync_slack():
    cfg, res = fit(seed=4)
    for t, s in zip(res.tracers, res.run.stats.per_rank):
        blocked = sum(e.blocked for e in t.events if e.kind == "comm")
        assert blocked <= s.idle_time + 1e-12
        assert blocked >= 0.0
    # byte accounting unchanged: traced totals == RankStats, bit for bit
    for t, s in zip(res.tracers, res.run.stats.per_rank):
        sent = sum(e.sent for e in t.comm_events())
        recv = sum(e.received for e in t.comm_events())
        assert sent == s.bytes_sent
        assert recv == s.bytes_received


# -- what-if engine -----------------------------------------------------------


@pytest.fixture(scope="module")
def traced_run():
    return fit(seed=3, n_records=1500)


def test_disk_free_estimate_is_exactly_nondisk_path(traced_run):
    cfg, res = traced_run
    path = path_of(cfg, res)
    est = evaluate(path, Scenario("disk_free", disk_scale=0.0))
    cats = path.by_category()
    nondisk = path.length - cats["disk_read"] - cats["disk_write"]
    assert est.estimate == pytest.approx(nondisk, rel=0, abs=1e-9)
    assert est.baseline == path.length
    assert est.speedup >= 1.0


def test_path_collectives_agree_with_table1_closed_forms(traced_run):
    """Fault-free runs charge collectives exactly their Table-1 cost, so
    every collective interval the path can traverse equals the closed
    form — the documented tolerance for the what-if re-pricing is float
    noise, not a model gap."""
    from repro.obs.critpath import _timeline

    cfg, res = traced_run
    network = scaled_models(cfg.scale)[0]
    timelines = [_timeline(t, 0) for t in res.tracers]
    groups = collective_groups(timelines)
    seen = set()
    checked = 0
    for evs in timelines:
        for e in evs:
            g = groups.get(id(e))
            if g is None or id(g[0][1]) in seen:
                continue
            seen.add(id(g[0][1]))
            t_sync = max(ev.t_start for _, ev in g)
            observed = e.t_end - t_sync
            predicted = observed_collective_cost(
                network, e.op, p=len(g), sent=e.sent, received=e.received,
                max_sent=max(ev.sent for _, ev in g),
                max_received=max(ev.received for _, ev in g),
            )
            assert observed == pytest.approx(predicted, rel=1e-9)
            checked += 1
    assert checked > 10


def test_zero_startup_removes_exactly_the_startup_category(traced_run):
    cfg, res = traced_run
    path = path_of(cfg, res)
    est = evaluate(path, Scenario("zs", startup_scale=0.0))
    assert est.saved == pytest.approx(
        path.by_category()["comm_startup"], rel=0, abs=1e-12
    )


def test_balanced_scenario_bounded_by_busy_surplus(traced_run):
    cfg, res = traced_run
    path = path_of(cfg, res)
    est = evaluate(path, Scenario("bal", balanced=True))
    busy = [e - b for e, b in zip(path.rank_end, path.rank_blocked)]
    surplus = max(busy) - sum(busy) / len(busy)
    assert est.saved == pytest.approx(surplus, rel=1e-12)
    assert 0.0 <= est.estimate <= est.baseline


def test_standard_scenarios_and_voting_ratio(traced_run):
    cfg, res = traced_run
    path = path_of(cfg, res)
    ratio = voting_payload_ratio(q=400, c=2, f=64, p=8, top_k=8)
    assert 0.0 < ratio < 1.0  # voting genuinely shrinks wide payloads
    ests = evaluate_all(path, standard_scenarios(ratio))
    names = [e.scenario.name for e in ests]
    assert names == ["disk_free", "zero_startup", "balanced",
                     "voting_payload"]
    for e in ests:
        assert 0.0 <= e.estimate <= e.baseline + 1e-12
        d = e.to_dict()
        assert d["speedup_bound"] >= 1.0


# -- surfacing: metrics, health, report ---------------------------------------


def test_critpath_metrics_gauges(traced_run):
    cfg, res = traced_run
    path = path_of(cfg, res)
    reg = MetricsRegistry()
    record_critpath_metrics(reg, path)
    record_critpath_metrics(reg, path)  # idempotent re-register
    snap = reg.snapshot()["metrics"]
    fam = {m["name"]: m for m in snap}
    assert "repro_critpath_seconds" in fam
    assert "repro_critpath_share" in fam
    elapsed = fam["repro_critpath_elapsed_seconds"]
    (sample,) = elapsed["samples"]
    assert sample["value"] == path.length


def test_dominant_share_alert_and_monitor(traced_run):
    cfg, res = traced_run
    path = path_of(cfg, res)
    cat, share = path.dominant()
    # tight threshold fires, loose stays silent
    tight = HealthThresholds(critpath_dominant_share=share / 2)
    loose = HealthThresholds(critpath_dominant_share=0.999)
    assert critpath_alerts(path, loose) == []
    (alert,) = critpath_alerts(path, tight)
    assert alert.indicator == "critpath_share"
    assert alert.op == cat
    assert alert.value == share
    monitor = HealthMonitor(cfg.n_ranks, scaled_models(cfg.scale)[0],
                            thresholds=tight)
    got = monitor.evaluate_critical_path(path)
    assert monitor.alerts == got == [alert]


def test_render_critpath_markdown(traced_run):
    from repro.obs.report import render_critpath_markdown

    cfg, res = traced_run
    path = path_of(cfg, res)
    ests = evaluate_all(path, standard_scenarios())
    md = render_critpath_markdown(
        path, estimates=ests, alerts=critpath_alerts(path),
        meta={"exchange": cfg.exchange},
    )
    assert "## Where the time went" in md
    assert "disk_free" in md
    assert "-bound**" in md


def test_trace_report_render_includes_critical_path(traced_run):
    cfg, res = traced_run
    txt = TraceReport(res.tracers).render()
    assert "== critical path" in txt
    assert "hidden(s)" in txt  # per-level overlap column


# -- Chrome-trace flow events (satellite 2) -----------------------------------


def test_flow_events_present_and_deterministic(traced_run):
    cfg, res = traced_run
    path = path_of(cfg, res)
    d1 = to_chrome_trace(res.tracers, path)
    d2 = to_chrome_trace(res.tracers, path)
    assert d1 == d2
    flows = [e for e in d1["traceEvents"] if e["ph"] in ("s", "f")]
    assert flows
    starts = {e["id"] for e in flows if e["ph"] == "s"}
    finishes = {e["id"] for e in flows if e["ph"] == "f"}
    assert starts == finishes  # every arrow has both ends
    cats = {e["cat"] for e in flows}
    assert "flow" in cats
    assert "critpath" in cats  # the overlay rode along
    # the existing slice export is untouched by the flows
    xs = [e for e in d1["traceEvents"] if e["ph"] == "X"]
    assert xs == [e for e in to_chrome_trace(res.tracers)["traceEvents"]
                  if e["ph"] == "X"]


def test_collective_groups_and_p2p_matching(traced_run):
    from repro.obs.critpath import _timeline

    cfg, res = traced_run
    timelines = [_timeline(t, 0) for t in res.tracers]
    groups = collective_groups(timelines)
    # every participant of a group maps to the same group object
    for evs in timelines:
        for e in evs:
            g = groups.get(id(e))
            if g is not None:
                assert any(ev is e for _, ev in g)
    matches = match_p2p(timelines)
    for recv_id, m in matches.items():
        if m is not None:
            rank, se = m
            assert se.op in ("send", "isend")


# -- benchmark trajectory gate ------------------------------------------------


def _write_bench(tmp_path, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))


def _voting_payload(reduction, *, quick=True, ok=True):
    return {
        "benchmark": "voting",
        "quick": quick,
        "ok": ok,
        "failures": [],
        "points": [
            {"reduction_vs_attribute": reduction},
            {"reduction_vs_attribute": reduction + 1.0},
        ],
    }


def test_trajectory_aggregates_and_passes(tmp_path):
    import sys

    sys.path.insert(0, "benchmarks")
    try:
        import trajectory
    finally:
        sys.path.pop(0)
    _write_bench(tmp_path, "BENCH_voting.json", _voting_payload(4.0))
    # internal bench failure annotates but does not fail the gate (the
    # bench's own CI job reports it); only baseline regressions gate
    _write_bench(tmp_path, "BENCH_bufferpool.json", {
        "benchmark": "bufferpool", "quick": True, "ok": False,
        "failures": ["x"], "points": [{"read_reduction": 1.2}],
    })
    _write_bench(tmp_path, "BENCH_obs_overhead.json", {
        "benchmark": "obs_overhead", "quick": True, "ok": True,
        "failures": [], "points": [{"overhead": 0.01}, {"overhead": 0.02}],
    })
    baselines = {
        "voting": {"value": 4.0, "quick": True},
        "obs_overhead": {"value": 0.02, "quick": True},
    }
    payload, failures = trajectory.build_trajectory(
        str(tmp_path), baselines, 25.0
    )
    assert failures == []
    assert payload["ok"] is True
    assert payload["schema_version"] == 1
    by_bench = {e["bench"]: e for e in payload["entries"]}
    # worst-point reduction: min over points
    assert by_bench["voting"]["value"] == 4.0
    assert by_bench["obs_overhead"]["value"] == 0.02
    assert by_bench["bufferpool"]["bench_ok"] is False
    assert not any(e["regressed"] for e in payload["entries"])


def test_trajectory_gate_fails_on_injected_slowdown(tmp_path):
    import sys

    sys.path.insert(0, "benchmarks")
    try:
        import trajectory
    finally:
        sys.path.pop(0)
    # headline degraded 50% below the recorded baseline
    _write_bench(tmp_path, "BENCH_voting.json", _voting_payload(2.0))
    baselines = {"voting": {"value": 4.0, "quick": True}}
    payload, failures = trajectory.build_trajectory(
        str(tmp_path), baselines, 25.0
    )
    assert len(failures) == 1
    assert payload["ok"] is False
    (entry,) = payload["entries"]
    assert entry["regressed"] is True
    assert entry["change_pct"] == pytest.approx(50.0)
    # a full-size run never trips a quick baseline
    _write_bench(tmp_path, "BENCH_voting.json",
                 _voting_payload(2.0, quick=False))
    payload, failures = trajectory.build_trajectory(
        str(tmp_path), baselines, 25.0
    )
    assert failures == []
    # lower-is-better direction: overhead above baseline fails
    _write_bench(tmp_path, "BENCH_voting.json", _voting_payload(4.0))
    _write_bench(tmp_path, "BENCH_obs_overhead.json", {
        "benchmark": "obs_overhead", "quick": True, "ok": True,
        "failures": [], "points": [{"overhead": 0.10}],
    })
    payload, failures = trajectory.build_trajectory(
        str(tmp_path),
        {"voting": {"value": 4.0, "quick": True},
         "obs_overhead": {"value": 0.02, "quick": True}},
        25.0,
    )
    assert any("obs_overhead" in f for f in failures)


def test_trajectory_cli_writes_schema_valid_json(tmp_path, monkeypatch):
    import sys

    sys.path.insert(0, "benchmarks")
    try:
        import trajectory
    finally:
        sys.path.pop(0)
    _write_bench(tmp_path, "BENCH_voting.json", _voting_payload(4.0))
    out = tmp_path / "BENCH_trajectory.json"
    rc = trajectory.main([
        "--dir", str(tmp_path), "--out", str(out),
        "--baselines", str(tmp_path / "nonexistent.json"),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    trajectory._validate(payload)
    assert payload["entries"][0]["bench"] == "voting"


# -- CLI ----------------------------------------------------------------------


def test_cli_critpath_smoke(tmp_path, capsys):
    from repro.cli import main

    json_out = tmp_path / "cp.json"
    trace_out = tmp_path / "cp_trace.json"
    rc = main([
        "critpath", "--records", "800", "--ranks", "2", "--seed", "1",
        "--what-if", "--strict",
        "--json-out", str(json_out), "--out", str(trace_out),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Critical path" in out
    assert "What-if" in out
    payload = json.loads(json_out.read_text())
    cp = payload["critical_path"]
    assert cp["path_seconds"] == cp["elapsed_seconds"]
    assert abs(sum(c["seconds"] for c in cp["by_category"].values())
               - cp["path_seconds"]) < 1e-9
    assert payload["what_if"]
    trace = json.loads(trace_out.read_text())
    assert any(e["ph"] == "s" for e in trace["traceEvents"])
