"""Online health monitoring: imbalance, I/O amplification, cost drift.

The paper's aggregate invariants, checked while a run is in flight:

* **Load imbalance** (Lemma 2): per frontier level, the max/mean ratio
  of the ranks' busy time. Data parallelism over random shares should
  keep this near 1.0.
* **I/O amplification**: bytes moved through the local disks during a
  level divided by the live dataset bytes at that level. Data
  parallelism bounds this by the per-level pass count (stats read +
  member extraction + partition read/write ≈ 4×); an exploding ratio
  means the out-of-core machinery is re-reading.
* **Cost-model drift**: observed collective busy time divided by the
  Table-1 prediction (:func:`repro.dnc.cost.collective_cost`) applied
  to the *measured* payload bytes. Drift ≈ 1.0 means the run's
  communication costs exactly what the paper's analysis says it
  should; sustained drift flags either a modelling bug or a primitive
  being used outside its analyzed regime.

The :class:`HealthMonitor` is *online*: each rank publishes a
:class:`LevelSummary` as it leaves a frontier level, and the level is
evaluated the moment the last rank of its *group* reports. A group is
the communicator the tree is fitted over: the whole machine for one
tree, one of the disjoint rank groups when a forest fits trees
concurrently, so each tree's levels are measured among the ranks that
built them. Within a group the collectives order level N's publishes
before any rank can finish level N+1, and a group fits its trees one
after another, so each group evaluates its levels in a fixed order and
every derived number is deterministic. Groups finish in host-timing
order, so the level rows are kept sorted by (attempt, group), each
group's rows in the order it evaluated them: level order, tree by
tree. A forest member's rows (and alerts: "level 3 of tree 2") carry its
tree index, since trees fitted one after another over the same group
share its label. Alerts are structured (:class:`HealthAlert`), never
raised as exceptions: an unhealthy run completes and reports.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cluster.comm import WORLD
from repro.cluster.network import NetworkModel
from repro.dnc.cost import observed_collective_cost

__all__ = [
    "CollectiveSample",
    "LevelSummary",
    "LevelHealth",
    "HealthAlert",
    "HealthMonitor",
    "HealthReport",
    "HealthThresholds",
    "drift_by_op",
]

#: pseudo-level for collectives outside the frontier loop (preprocess,
#: checkpointing, the small-task phase, final assembly)
OUTSIDE_LEVEL = -1


class CollectiveSample(NamedTuple):
    """One collective invocation as seen by one rank.

    A ``NamedTuple`` (not a frozen dataclass) because the recorder
    builds one per metered collective call — tuple construction keeps
    that hot path cheap.
    """

    comm: str  # communicator label ("world", "world/0,1", ...)
    seq: int  # invocation index within that communicator on this rank
    op: str
    rank: int
    level: int  # frontier level, OUTSIDE_LEVEL when not in the loop
    sent: int
    received: int
    busy: float  # charged transfer time (duration minus sync idle)
    idle: float  # time spent waiting for slower participants
    duration: float  # wall simulated time of the call
    p: int  # communicator size


@dataclass(frozen=True)
class LevelSummary:
    """One rank's accounting for one frontier level."""

    rank: int
    attempt: int
    level: int
    busy: float  # compute + io + comm seconds during the level
    idle: float
    io_bytes: int  # disk bytes read + written during the level
    live_bytes: int  # local frontier fragment bytes at level start
    n_frontier: int  # frontier width (replicated, same on all ranks)
    samples: tuple[CollectiveSample, ...] = ()
    cache_hits: int = 0  # buffer-pool hits during the level
    cache_misses: int = 0  # buffer-pool misses (0/0 when no pool attached)
    overlap_saved: float = 0.0  # prefetch seconds hidden behind compute
    group: str = WORLD  # label of the communicator the tree is fitted over
    group_size: int | None = None  # its rank count (None: every rank)
    tree: int | None = None  # forest member index (None: a single tree)


@dataclass(frozen=True)
class HealthThresholds:
    """Alerting thresholds (all configurable; defaults are loose enough
    that a fault-free balanced run stays silent)."""

    imbalance: float = 2.0
    io_amplification: float = 8.0
    drift_low: float = 0.9
    drift_high: float = 1.1
    #: with a buffer pool attached, a level that re-reads (amplification
    #: above ``reread_amplification``) should be getting cache hits; a
    #: hit rate below ``cache_hit_rate`` on such a level means the pool
    #: is thrashing (working set larger than the pool, nothing pinned)
    cache_hit_rate: float = 0.1
    reread_amplification: float = 3.0
    #: levels whose mean busy time is below this are too small for the
    #: ratio indicators to be meaningful and are not alerted on
    min_level_busy: float = 1e-6
    #: serving-path indicators (``repro serve`` / the replay driver):
    #: alert when the replay's exact p99 batch latency exceeds this many
    #: host seconds, or when the achieved record rate falls below this
    #: fraction of the requested target QPS
    serve_p99_seconds: float = 0.05
    serve_min_qps_ratio: float = 0.9
    #: critical-path profile (``repro critpath``): alert when a single
    #: attribution category holds more than this share of the path —
    #: the run is bound by one resource and the what-if bound says how
    #: much relieving it can pay
    critpath_dominant_share: float = 0.9
    #: forest runs with concurrent trees sharing each rank's buffer pool
    #: (``n_groups > 1``): alert when the share of pool hits served
    #: across a tree boundary falls below this — the shared chunk cache
    #: is not being reused between trees (pool too small for the base
    #: spool, or the schedule serialised the trees)
    forest_cross_tree_hit_rate: float = 0.02


@dataclass(frozen=True)
class HealthAlert:
    """One threshold crossing, in evaluation order."""

    indicator: str  # "imbalance" | "io_amplification" | "drift" | "cache_hit_rate"
    level: int  # frontier level (OUTSIDE_LEVEL for run-wide)
    op: str | None  # collective op for drift alerts
    value: float
    threshold: float
    message: str

    @property
    def severity(self) -> float:
        """Relative distance past the threshold (for ranking)."""
        if self.threshold <= 0:
            return abs(self.value)
        return abs(self.value - self.threshold) / self.threshold


@dataclass(frozen=True)
class LevelHealth:
    """Derived indicators for one completed frontier level."""

    attempt: int
    level: int
    n_frontier: int
    busy_max: float
    busy_mean: float
    imbalance: float  # max/mean busy (1.0 = perfect)
    io_bytes: int
    live_bytes: int
    io_amplification: float  # io_bytes / live_bytes
    drift: float  # observed/predicted over the level's collectives
    drift_ops: dict[str, tuple[float, float]]  # op -> (observed, predicted)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_hit_rate: float = 0.0  # hits / lookups (0.0 when no pool traffic)
    overlap_saved: float = 0.0  # prefetch seconds hidden behind compute
    group: str = WORLD  # rank group the level was measured over
    tree: int | None = None  # forest member index (None: a single tree)
    alerts: tuple[HealthAlert, ...] = ()


def _predict_group(
    network: NetworkModel, op: str, group: list[CollectiveSample]
) -> float:
    """Table-1 predicted cost, summed over the participating ranks, for
    one collective invocation."""
    p = group[0].p
    max_sent = max(s.sent for s in group)
    max_received = max(s.received for s in group)
    return sum(
        observed_collective_cost(
            network, op, p=p, sent=s.sent, received=s.received,
            max_sent=max_sent, max_received=max_received,
        )
        for s in group
    )


def drift_by_op(
    network: NetworkModel, samples: list[CollectiveSample]
) -> dict[str, tuple[float, float]]:
    """Aggregate ``op -> (observed busy, Table-1 predicted)`` seconds.

    Invocations are aligned across ranks by ``(comm, seq)`` — the SPMD
    contract guarantees every rank of a communicator logs the same
    collective sequence — so per-invocation maxima (gather's ``m``) are
    reconstructed exactly."""
    groups: dict[tuple[str, int], list[CollectiveSample]] = {}
    for s in samples:
        groups.setdefault((s.comm, s.seq), []).append(s)
    out: dict[str, tuple[float, float]] = {}
    for (_, _), group in sorted(groups.items()):
        op = group[0].op
        observed = sum(s.busy for s in group)
        predicted = _predict_group(network, op, group)
        if observed == 0.0 and predicted == 0.0:
            continue
        o, pr = out.get(op, (0.0, 0.0))
        out[op] = (o + observed, pr + predicted)
    return out


class HealthMonitor:
    """Collects per-rank level summaries and evaluates indicators the
    moment a level is complete (all ranks of its group reported)."""

    def __init__(
        self,
        n_ranks: int,
        network: NetworkModel,
        thresholds: HealthThresholds | None = None,
    ) -> None:
        self.n_ranks = n_ranks
        self.network = network
        self.thresholds = thresholds or HealthThresholds()
        #: evaluated levels, ordered by (attempt, group), then by when
        #: the group evaluated them
        self.levels: list[LevelHealth] = []
        self._run_alerts: list[HealthAlert] = []  # post-run indicators
        self._lock = threading.Lock()
        self._pending: dict[
            tuple[int, str, int | None, int], dict[int, LevelSummary]
        ] = {}
        self._outside: list[CollectiveSample] = []

    @property
    def alerts(self) -> list[HealthAlert]:
        """Every alert: the levels' in level-row order, then the
        post-run ones in evaluation order."""
        with self._lock:
            level_alerts = [a for lh in self.levels for a in lh.alerts]
            return level_alerts + self._run_alerts

    # -- publishing ----------------------------------------------------------
    def publish(self, summary: LevelSummary) -> None:
        """Called by each rank as it finishes a level. Thread-safe; the
        last rank of the level's group to report triggers the
        evaluation, so results only depend on the summaries, never on
        host scheduling."""
        with self._lock:
            key = (summary.attempt, summary.group, summary.tree, summary.level)
            got = self._pending.setdefault(key, {})
            got[summary.rank] = summary
            if len(got) == (summary.group_size or self.n_ranks):
                del self._pending[key]
                self._evaluate(*key, [got[r] for r in sorted(got)])

    def publish_outside(self, samples: list[CollectiveSample]) -> None:
        """Collectives recorded outside the frontier loop (preprocess,
        checkpoints, small tasks, assembly); they join the run-wide
        drift aggregate."""
        with self._lock:
            self._outside.extend(samples)

    # -- evaluation ----------------------------------------------------------
    def _evaluate(
        self, attempt: int, group: str, tree: int | None, level: int,
        summaries: list[LevelSummary],
    ) -> None:
        th = self.thresholds
        where = f"level {level}"
        if tree is not None:
            where += f" of tree {tree}"
        if group != WORLD:
            where += f" on {group}" if tree is not None else f" of {group}"
        busys = [s.busy for s in summaries]
        busy_max = max(busys)
        busy_mean = sum(busys) / len(busys)
        imbalance = busy_max / busy_mean if busy_mean > 0 else 1.0
        io_bytes = sum(s.io_bytes for s in summaries)
        live_bytes = sum(s.live_bytes for s in summaries)
        io_amp = io_bytes / live_bytes if live_bytes > 0 else 0.0
        cache_hits = sum(s.cache_hits for s in summaries)
        cache_misses = sum(s.cache_misses for s in summaries)
        lookups = cache_hits + cache_misses
        hit_rate = cache_hits / lookups if lookups else 0.0
        overlap_saved = sum(s.overlap_saved for s in summaries)
        samples = [smp for s in summaries for smp in s.samples]
        ops = drift_by_op(self.network, samples)
        obs = sum(o for o, _ in ops.values())
        pred = sum(p for _, p in ops.values())
        drift = obs / pred if pred > 0 else 1.0

        alerts: list[HealthAlert] = []
        significant = busy_mean >= th.min_level_busy
        if significant and imbalance > th.imbalance:
            alerts.append(
                HealthAlert(
                    "imbalance", level, None, imbalance, th.imbalance,
                    f"{where}: busy-time imbalance {imbalance:.2f}× "
                    f"exceeds {th.imbalance:.2f}× "
                    f"(max {busy_max:.3f}s vs mean {busy_mean:.3f}s)",
                )
            )
        if significant and live_bytes > 0 and io_amp > th.io_amplification:
            alerts.append(
                HealthAlert(
                    "io_amplification", level, None, io_amp,
                    th.io_amplification,
                    f"{where}: I/O amplification {io_amp:.2f}× "
                    f"({io_bytes:,} B moved over {live_bytes:,} live B) "
                    f"exceeds {th.io_amplification:.2f}×",
                )
            )
        if (
            significant
            and lookups > 0  # silent when no buffer pool is attached
            and live_bytes > 0
            and io_amp > th.reread_amplification
            and hit_rate < th.cache_hit_rate
        ):
            alerts.append(
                HealthAlert(
                    "cache_hit_rate", level, None, hit_rate, th.cache_hit_rate,
                    f"{where}: buffer-pool hit rate {hit_rate:.1%} on a "
                    f"re-reading level ({io_amp:.2f}× amplification) is below "
                    f"{th.cache_hit_rate:.0%} — the pool is thrashing",
                )
            )
        for op, (o, p) in sorted(ops.items()):
            if p <= 0:
                continue
            d = o / p
            if d < th.drift_low or d > th.drift_high:
                alerts.append(
                    HealthAlert(
                        "drift", level, op, d,
                        th.drift_high if d > 1.0 else th.drift_low,
                        f"{where}: {op} cost drift {d:.3f} outside "
                        f"[{th.drift_low:g}, {th.drift_high:g}] "
                        f"(observed {o:.4g}s vs Table-1 {p:.4g}s)",
                    )
                )
        bisect.insort(
            self.levels,
            LevelHealth(
                attempt=attempt,
                level=level,
                group=group,
                tree=tree,
                n_frontier=summaries[0].n_frontier,
                busy_max=busy_max,
                busy_mean=busy_mean,
                imbalance=imbalance,
                io_bytes=io_bytes,
                live_bytes=live_bytes,
                io_amplification=io_amp,
                drift=drift,
                drift_ops=ops,
                cache_hits=cache_hits,
                cache_misses=cache_misses,
                cache_hit_rate=hit_rate,
                overlap_saved=overlap_saved,
                alerts=tuple(alerts),
            ),
            key=lambda lh: (lh.attempt, lh.group),
        )

    def evaluate_critical_path(self, path) -> list[HealthAlert]:
        """Evaluate a run's extracted
        :class:`~repro.obs.critpath.CriticalPath` against the
        ``critpath_dominant_share`` threshold and append any alert to
        this monitor. Called post-run (the path needs the whole trace),
        unlike the per-level indicators above."""
        from .critpath import critpath_alerts

        alerts = critpath_alerts(path, self.thresholds)
        with self._lock:
            self._run_alerts.extend(alerts)
        return alerts

    def evaluate_forest_cache(
        self, *, n_groups: int, cross_tree_hits: int, hits: int
    ) -> list[HealthAlert]:
        """Post-run forest indicator: with concurrent trees sharing each
        rank's buffer pool (tree-parallel / hybrid regimes), a near-zero
        share of hits crossing a tree boundary means the shared cache is
        not paying for itself. Silent for data-parallel runs (one group)
        and runs without pool traffic. Called post-run by
        :meth:`repro.forest.PForest.fit` — the hit counters are run-wide
        pool deltas, not per-level summaries."""
        if n_groups <= 1 or hits <= 0:
            return []
        th = self.thresholds.forest_cross_tree_hit_rate
        rate = cross_tree_hits / hits
        if rate >= th:
            return []
        alert = HealthAlert(
            "forest_cross_tree_hit_rate", OUTSIDE_LEVEL, None, rate, th,
            f"forest: only {rate:.1%} of buffer-pool hits crossed a tree "
            f"boundary across {n_groups} concurrent groups (below "
            f"{th:.0%}) — the shared chunk cache is not being reused "
            "between trees",
        )
        with self._lock:
            self._run_alerts.append(alert)
        return [alert]

    # -- aggregates ----------------------------------------------------------
    def overall_drift_by_op(self) -> dict[str, tuple[float, float]]:
        """``op -> (observed, predicted)`` over the whole run: every
        evaluated level plus the outside-loop collectives."""
        with self._lock:
            outside = list(self._outside)
        out = drift_by_op(self.network, outside)
        for lh in self.levels:
            for op, (o, p) in lh.drift_ops.items():
                oo, pp = out.get(op, (0.0, 0.0))
                out[op] = (oo + o, pp + p)
        return out


@dataclass
class HealthReport:
    """Post-run health roll-up (what ``repro health`` renders)."""

    n_ranks: int
    levels: list[LevelHealth] = field(default_factory=list)
    alerts: list[HealthAlert] = field(default_factory=list)
    drift_ops: dict[str, tuple[float, float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_monitor(
        cls, monitor: HealthMonitor, meta: dict | None = None
    ) -> "HealthReport":
        return cls(
            n_ranks=monitor.n_ranks,
            levels=list(monitor.levels),
            alerts=list(monitor.alerts),
            drift_ops=monitor.overall_drift_by_op(),
            meta=dict(meta or {}),
        )

    @property
    def overall_drift(self) -> float:
        obs = sum(o for o, _ in self.drift_ops.values())
        pred = sum(p for _, p in self.drift_ops.values())
        return obs / pred if pred > 0 else 1.0

    @property
    def worst_imbalance(self) -> float:
        return max((lh.imbalance for lh in self.levels), default=1.0)

    @property
    def worst_io_amplification(self) -> float:
        return max((lh.io_amplification for lh in self.levels), default=0.0)

    @property
    def cache_hit_rate(self) -> float:
        """Run-wide buffer-pool hit rate (0.0 when no pool traffic)."""
        hits = sum(lh.cache_hits for lh in self.levels)
        lookups = hits + sum(lh.cache_misses for lh in self.levels)
        return hits / lookups if lookups else 0.0

    @property
    def overlap_saved(self) -> float:
        """Run-wide disk seconds hidden behind compute by prefetch."""
        return sum(lh.overlap_saved for lh in self.levels)

    def top_regressions(self, n: int = 5) -> list[HealthAlert]:
        """The most-regressed indicators, worst first."""
        return sorted(self.alerts, key=lambda a: -a.severity)[:n]

    @property
    def healthy(self) -> bool:
        return not self.alerts

    def to_dict(self) -> dict:
        """JSON-ready summary (merged into BENCH payloads)."""
        return {
            "n_ranks": self.n_ranks,
            "healthy": self.healthy,
            "overall_drift": self.overall_drift,
            "worst_imbalance": self.worst_imbalance,
            "worst_io_amplification": self.worst_io_amplification,
            "cache_hit_rate": self.cache_hit_rate,
            "overlap_saved_seconds": self.overlap_saved,
            "levels": [
                {
                    "attempt": lh.attempt,
                    "group": lh.group,
                    "tree": lh.tree,
                    "level": lh.level,
                    "n_frontier": lh.n_frontier,
                    "busy_max": lh.busy_max,
                    "busy_mean": lh.busy_mean,
                    "imbalance": lh.imbalance,
                    "io_bytes": lh.io_bytes,
                    "live_bytes": lh.live_bytes,
                    "io_amplification": lh.io_amplification,
                    "drift": lh.drift,
                    "cache_hits": lh.cache_hits,
                    "cache_misses": lh.cache_misses,
                    "cache_hit_rate": lh.cache_hit_rate,
                    "overlap_saved": lh.overlap_saved,
                }
                for lh in self.levels
            ],
            "drift_by_op": {
                op: {"observed": o, "predicted": p, "drift": o / p if p else 1.0}
                for op, (o, p) in sorted(self.drift_ops.items())
            },
            "alerts": [
                {
                    "indicator": a.indicator,
                    "level": a.level,
                    "op": a.op,
                    "value": a.value,
                    "threshold": a.threshold,
                    "message": a.message,
                }
                for a in self.alerts
            ],
            "meta": self.meta,
        }
