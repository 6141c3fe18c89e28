"""Observability subsystem (``repro.obs``): registry determinism,
Prometheus exposition, online health monitoring, and the guarantee that
metering never perturbs the simulated run."""

import json
import math

import pytest

from repro.bench.harness import ExperimentConfig, bench_payload, run_pclouds
from repro.cli import main
from repro.cluster.network import NetworkModel
from repro.dnc.cost import collective_cost
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    HealthMonitor,
    HealthReport,
    HealthThresholds,
    MetricsRegistry,
    render_health_markdown,
    to_prometheus,
)
from repro.obs.health import CollectiveSample, LevelSummary, drift_by_op
from repro.obs.registry import MetricSpec

CFG = ExperimentConfig(n_records=3000, n_ranks=4, scale=200.0, seed=0)


@pytest.fixture(scope="module")
def metered():
    return run_pclouds(CFG, metrics=True)


@pytest.fixture(scope="module")
def plain():
    return run_pclouds(CFG)


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def _registry(self):
        reg = MetricsRegistry()
        reg.register(
            Counter("t_bytes_total", "bytes", ("rank", "op")),
            Gauge("t_width", "width", ("level",)),
            Histogram("t_lat", "latency", ("op",), buckets=(0.001, 0.1, math.inf)),
        )
        return reg

    def test_counters_sum_across_shards(self):
        reg = self._registry()
        reg.shard(0).inc("t_bytes_total", ("0", "read"), 100)
        reg.shard(1).inc("t_bytes_total", ("0", "read"), 25)
        reg.shard(1).inc("t_bytes_total", ("1", "write"), 7)
        merged = reg.merged()
        by_labels = {s.labels: s.value for s in merged["t_bytes_total"]}
        assert by_labels == {("0", "read"): 125.0, ("1", "write"): 7.0}

    def test_gauges_last_rank_wins(self):
        reg = self._registry()
        reg.shard(1).set("t_width", ("0",), 5)
        reg.shard(0).set("t_width", ("0",), 3)
        # merge walks shards in ascending rank order regardless of the
        # order they were created in
        (sample,) = reg.merged()["t_width"]
        assert sample.value == 5.0

    def test_histogram_edge_value_lands_in_its_bucket(self):
        reg = self._registry()
        sh = reg.shard(0)
        for v in (0.001, 0.05, 2.5):  # exact edge, mid, overflow
            sh.observe("t_lat", ("bcast",), v)
        (sample,) = reg.merged()["t_lat"]
        # Prometheus `le` semantics: value == edge counts in that bucket
        assert sample.value[:3] == [1.0, 1.0, 1.0]
        assert sample.value[-2] == pytest.approx(2.5510)
        assert sample.value[-1] == 3.0

    def test_merge_is_insertion_order_independent(self):
        def build(shard_order, key_order):
            reg = self._registry()
            for r in shard_order:
                reg.shard(r)
            for r, op, v in key_order:
                reg.shard(r).inc("t_bytes_total", (str(r), op), v)
                reg.shard(r).observe("t_lat", (op,), v / 1000.0)
            reg.shard(0).set("t_width", ("2",), 9)
            return reg

        writes = [(0, "read", 10), (1, "read", 20), (1, "write", 5), (0, "write", 1)]
        a = build([0, 1], writes)
        b = build([1, 0], list(reversed(writes)))
        assert a.snapshot() == b.snapshot()
        assert to_prometheus(a) == to_prometheus(b)

    def test_register_conflicting_spec_raises(self):
        reg = self._registry()
        reg.register(Counter("t_bytes_total", "bytes", ("rank", "op")))  # idempotent
        with pytest.raises(ValueError, match="different spec"):
            reg.register(Counter("t_bytes_total", "bytes", ("rank",)))

    def test_histogram_spec_validation(self):
        with pytest.raises(ValueError, match=r"\+inf"):
            MetricSpec("h", "histogram", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="not sorted"):
            MetricSpec("h", "histogram", buckets=(2.0, 1.0, math.inf))


def test_prometheus_golden():
    reg = MetricsRegistry()
    reg.register(
        Counter("repro_test_bytes_total", "bytes moved", ("rank", "op")),
        Gauge("repro_test_width", "frontier width", ("level",)),
        Histogram(
            "repro_test_latency_seconds", "latency", ("op",),
            buckets=(0.001, 0.1, math.inf),
        ),
    )
    s0, s1 = reg.shard(0), reg.shard(1)
    s1.inc("repro_test_bytes_total", ("1", "read"), 512)
    s0.inc("repro_test_bytes_total", ("0", "read"), 2048)
    s0.set("repro_test_width", ("3",), 7)
    for v in (0.0005, 0.05, 2.5):
        s0.observe("repro_test_latency_seconds", ("bcast",), v)
    assert to_prometheus(reg) == (
        "# HELP repro_test_bytes_total bytes moved\n"
        "# TYPE repro_test_bytes_total counter\n"
        'repro_test_bytes_total{rank="0",op="read"} 2048\n'
        'repro_test_bytes_total{rank="1",op="read"} 512\n'
        "# HELP repro_test_latency_seconds latency\n"
        "# TYPE repro_test_latency_seconds histogram\n"
        'repro_test_latency_seconds_bucket{op="bcast",le="0.001"} 1\n'
        'repro_test_latency_seconds_bucket{op="bcast",le="0.1"} 2\n'
        'repro_test_latency_seconds_bucket{op="bcast",le="+Inf"} 3\n'
        'repro_test_latency_seconds_sum{op="bcast"} 2.5505\n'
        'repro_test_latency_seconds_count{op="bcast"} 3\n'
        "# HELP repro_test_width frontier width\n"
        "# TYPE repro_test_width gauge\n"
        'repro_test_width{level="3"} 7\n'
    )


# -- health monitor (synthetic) ----------------------------------------------

NET = NetworkModel(alpha=40e-6, beta=1.0 / 35e6)


def _gather_samples(p, sizes, *, comm="world", seq=0, level=0, scale=1.0):
    """One gather invocation as each rank saw it; ``scale`` inflates the
    charged busy time to fake a mis-charged primitive."""
    m = max(sizes)
    busy = collective_cost(NET, "gather", p=p, m=m) * scale
    return [
        CollectiveSample(
            comm=comm, seq=seq, op="gather", rank=r, level=level,
            sent=sizes[r], received=0, busy=busy, idle=0.0,
            duration=busy, p=p,
        )
        for r in range(p)
    ]


class TestDrift:
    def test_reconstructed_sizes_give_exact_unity(self):
        # ranks send different amounts; the model's m is the max — the
        # monitor must invert the byte counters the same way the
        # communicator charged them, giving drift exactly 1.0
        ops = drift_by_op(NET, _gather_samples(4, [100, 4000, 250, 4000]))
        (observed, predicted) = ops["gather"]
        assert predicted > 0
        assert observed == predicted

    def test_mischarged_primitive_drifts(self):
        ops = drift_by_op(NET, _gather_samples(4, [1000] * 4, scale=2.0))
        observed, predicted = ops["gather"]
        assert observed / predicted == pytest.approx(2.0)

    def test_invocations_group_by_comm_and_seq(self):
        samples = _gather_samples(4, [100, 200, 300, 400], seq=0)
        samples += _gather_samples(4, [50, 50, 50, 8000], seq=1)
        observed, predicted = drift_by_op(NET, samples)["gather"]
        # grouped per invocation, each reconstructs its own max
        expected = 4 * collective_cost(NET, "gather", p=4, m=400)
        expected += 4 * collective_cost(NET, "gather", p=4, m=8000)
        assert predicted == pytest.approx(expected)
        assert observed == pytest.approx(expected)


class TestHealthMonitor:
    def _summary(self, rank, busy, *, io=400, live=100, samples=(), level=0):
        return LevelSummary(
            rank=rank, attempt=0, level=level, busy=busy, idle=0.0,
            io_bytes=io, live_bytes=live, n_frontier=3,
            samples=tuple(samples),
        )

    def test_level_waits_for_all_ranks(self):
        mon = HealthMonitor(2, NET)
        mon.publish(self._summary(0, 1.0))
        assert mon.levels == []
        mon.publish(self._summary(1, 1.0))
        assert len(mon.levels) == 1

    def test_groups_evaluate_apart_and_rows_sort(self):
        """Concurrent trees in disjoint rank groups: each group's level
        is complete once *its* ranks report, and the rows come out in
        (attempt, group) order whatever order groups finish in."""
        mon = HealthMonitor(4, NET)
        for group, rank, busy in (
            ("world/2,3", 2, 1.0), ("world/2,3", 3, 3.0),
            ("world/0,1", 0, 1.0), ("world/0,1", 1, 1.0),
        ):
            mon.publish(LevelSummary(
                rank=rank, attempt=0, level=0, busy=busy, idle=0.0,
                io_bytes=400, live_bytes=100, n_frontier=1,
                group=group, group_size=2,
            ))
        assert [(lh.group, lh.imbalance) for lh in mon.levels] == [
            ("world/0,1", 1.0), ("world/2,3", 1.5),
        ]
        rows = HealthReport.from_monitor(mon).to_dict()["levels"]
        assert [r["group"] for r in rows] == ["world/0,1", "world/2,3"]

    def test_thresholds_trigger_alerts(self):
        th = HealthThresholds(imbalance=1.2, io_amplification=2.0)
        mon = HealthMonitor(2, NET, th)
        drifting = _gather_samples(2, [1000, 1000], scale=3.0)
        mon.publish(self._summary(0, 3.0, samples=[drifting[0]]))
        mon.publish(self._summary(1, 1.0, samples=[drifting[1]]))
        (lh,) = mon.levels
        assert lh.imbalance == pytest.approx(1.5)
        assert lh.io_amplification == pytest.approx(4.0)
        assert lh.drift == pytest.approx(3.0)
        assert {a.indicator for a in lh.alerts} == {
            "imbalance", "io_amplification", "drift",
        }
        report = HealthReport.from_monitor(mon)
        assert not report.healthy
        md = render_health_markdown(report)
        assert "3 alert(s)" in md
        assert "busy-time imbalance 1.50" in md
        assert "gather cost drift 3.000" in md

    def test_forest_member_rows_and_alerts_name_their_tree(self):
        """Trees fitted one after another over one group share its
        label; the tree index tells their levels apart, in the row, the
        alert and the markdown. A single tree's alert text is as before."""
        th = HealthThresholds(imbalance=1.2)
        mon = HealthMonitor(2, NET, th)
        for tree in (None, 2):
            for rank, busy in ((0, 3.0), (1, 1.0)):
                mon.publish(LevelSummary(
                    rank=rank, attempt=0, level=3, busy=busy, idle=0.0,
                    io_bytes=100, live_bytes=100, n_frontier=1, tree=tree,
                ))
        assert [lh.tree for lh in mon.levels] == [None, 2]
        assert [a.message.split(":")[0] for a in mon.alerts] == [
            "level 3", "level 3 of tree 2",
        ]
        report = HealthReport.from_monitor(mon)
        assert [r["tree"] for r in report.to_dict()["levels"]] == [None, 2]
        md = render_health_markdown(report)
        assert "| 3 (tree 2) |" in md
        assert "| 3 |" in md

    def test_balanced_level_stays_silent(self):
        mon = HealthMonitor(2, NET)
        clean = _gather_samples(2, [1000, 1000])
        mon.publish(self._summary(0, 1.0, samples=[clean[0]]))
        mon.publish(self._summary(1, 1.0, samples=[clean[1]]))
        report = HealthReport.from_monitor(mon)
        assert report.healthy
        assert report.worst_imbalance == pytest.approx(1.0)
        assert "HEALTHY" in render_health_markdown(report)

    def test_outside_samples_join_overall_drift(self):
        mon = HealthMonitor(2, NET)
        mon.publish_outside(_gather_samples(2, [500, 500], level=-1))
        ops = mon.overall_drift_by_op()
        observed, predicted = ops["gather"]
        assert observed == predicted > 0


# -- metered end-to-end runs -------------------------------------------------


class TestMeteredRun:
    def test_metering_is_bit_neutral(self, plain, metered):
        assert metered.tree.to_dict() == plain.tree.to_dict()
        assert metered.elapsed == plain.elapsed

    def test_fault_free_drift_is_exactly_one(self, metered):
        drift = metered.health.to_dict()["drift_by_op"]
        assert drift  # the run must exercise collectives
        for op, row in drift.items():
            assert row["drift"] == pytest.approx(1.0, abs=1e-9), op
        assert metered.health.overall_drift == pytest.approx(1.0, abs=1e-9)
        assert metered.health.healthy

    def test_per_level_report(self, metered):
        report = metered.health
        assert len(report.levels) > 1
        assert [lh.level for lh in report.levels] == sorted(
            lh.level for lh in report.levels
        )
        for lh in report.levels:
            assert lh.imbalance >= 1.0
            assert lh.io_bytes >= 0
        # one tree over the whole machine: every level is the world
        # group's, and the group is the one field a row gained
        assert {lh.group for lh in report.levels} == {"world"}
        for row in report.to_dict()["levels"]:
            assert row["group"] == "world"

    def test_snapshot_reconciles_with_run(self, metered):
        snap = metered.metrics_snapshot()
        families = {f["name"]: f for f in snap["metrics"]}
        (elapsed,) = families["repro_run_elapsed_seconds"]["samples"]
        assert elapsed["value"] == metered.elapsed
        sent = sum(
            s["value"]
            for s in families["repro_collective_bytes_total"]["samples"]
            if s["labels"]["direction"] == "sent"
        )
        assert sent == metered.run.stats.total.bytes_sent
        assert snap["health"]["healthy"] is True

    def test_prometheus_exposition_is_wellformed(self, metered):
        text = metered.prometheus()
        assert text.startswith("# HELP ")
        assert "repro_run_elapsed_seconds" in text
        for line in text.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name, _, value = line.rpartition(" ")
                assert name and not name.startswith("{")
                float(value)  # every sample value parses

    def test_bench_payload_embeds_snapshot(self, metered):
        payload = bench_payload(metered, label="obs-test")
        assert payload["label"] == "obs-test"
        assert payload["metrics"]["health"]["healthy"] is True
        json.dumps(payload)  # JSON-ready all the way down


def test_trace_level_rollup():
    res = run_pclouds(CFG, trace=True)
    rows = res.trace_report().level_rollup()
    in_loop = [r for r in rows if r.level is not None]
    assert in_loop and rows[-1].level is None  # outside bucket sorts last
    assert [r.level for r in in_loop] == sorted(r.level for r in in_loop)
    total_sent = sum(
        e.sent for t in res.tracers for e in t.events if e.kind == "comm"
    )
    assert sum(r.comm_sent for r in rows) == total_sent
    assert "traffic by frontier level" in res.trace_report().render()


def test_cli_health_smoke(tmp_path, capsys):
    jp, pp = tmp_path / "h.json", tmp_path / "h.prom"
    rc = main(
        [
            "health", "--records", "1500", "--ranks", "2", "--strict",
            "--json-out", str(jp), "--prom-out", str(pp),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "HEALTHY" in out and "Frontier levels" in out
    snap = json.loads(jp.read_text())
    assert snap["health"]["healthy"] is True
    assert pp.read_text().startswith("# HELP ")
