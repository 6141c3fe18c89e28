"""Hooks that feed the metrics registry and the health monitor.

:func:`attach_metrics` subscribes one :class:`MetricsRecorder` to each
rank's event stream (:mod:`repro.cluster.events`), the same ordered
observer list the tracer and the fault injector use, and writes
structured *metrics* instead of an event log:

* every communicator primitive arrives as one
  :class:`~repro.cluster.comm.CommCall` whose byte, charged-seconds and
  idle counts are :class:`~repro.cluster.stats.RankStats` deltas — exact
  accounting, never a payload re-walk;
* disk accesses, closed phases and injected faults arrive on the same
  list, as do the driver's frontier notifications (``begin_level`` /
  ``end_level`` / ``on_survival`` / ...).

Because every consumer folds the same events, metrics agree with the
trace by construction, whatever order they are attached in.

Nothing in this module advances a simulated clock, touches an rng, or
alters a payload: a metered run is bit-identical (tree *and* elapsed
time) to an unmetered one.
"""

from __future__ import annotations

from repro.cluster.comm import WORLD, CommCall
from repro.cluster.events import subscribe
from repro.cluster.machine import RankContext

from .health import OUTSIDE_LEVEL, CollectiveSample, HealthMonitor, LevelSummary
from .registry import (
    DEFAULT_BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RankShard,
    add_to_histogram,
)

__all__ = ["MetricsRecorder", "attach_metrics", "PHASE_LABELS"]

#: driver phase-timer names mapped onto the exported ``phase`` label
PHASE_LABELS = {
    "stats": "stats_exchange",
    "alive": "alive_eval",
    "partition": "partition",
    "small_nodes": "small_task",
}


def _register_metrics(registry: MetricsRegistry) -> None:
    registry.register(
        Counter(
            "repro_collective_calls_total",
            "Collective invocations",
            ("rank", "comm", "op", "level", "phase"),
        ),
        Counter(
            "repro_collective_bytes_total",
            "Bytes moved by collectives",
            ("rank", "op", "direction"),
        ),
        Counter(
            "repro_collective_busy_seconds_total",
            "Charged transfer seconds (duration minus sync idle)",
            ("rank", "op", "level", "phase"),
        ),
        Counter(
            "repro_collective_idle_seconds_total",
            "Seconds waiting for slower participants",
            ("rank", "op", "level", "phase"),
        ),
        Histogram(
            "repro_collective_latency_seconds",
            "Wall simulated duration of collective calls",
            ("op",),
        ),
        Histogram(
            "repro_collective_payload_bytes",
            "Per-call payload (max of sent/received)",
            ("op",),
            buckets=DEFAULT_BYTES_BUCKETS,
        ),
        Counter(
            "repro_p2p_messages_total", "Point-to-point calls", ("rank", "op")
        ),
        Counter(
            "repro_p2p_bytes_total",
            "Point-to-point bytes",
            ("rank", "direction"),
        ),
        Counter(
            "repro_disk_calls_total",
            "Local-disk accesses (op=read|write|retry)",
            ("rank", "op", "level", "phase"),
        ),
        Counter(
            "repro_disk_bytes_total",
            "Local-disk bytes (transfers only, retries excluded)",
            ("rank", "op", "level", "phase"),
        ),
        Counter(
            "repro_disk_seconds_total",
            "Charged disk seconds (incl. retry backoff)",
            ("rank", "op", "level", "phase"),
        ),
        Counter("repro_io_retries_total", "Transient-error retries", ("rank",)),
        Counter(
            "repro_ooc_cache_hits_total",
            "Buffer-pool chunk reads served from memory",
            ("rank",),
        ),
        Counter(
            "repro_ooc_cache_misses_total",
            "Buffer-pool chunk reads that went to disk",
            ("rank",),
        ),
        Counter(
            "repro_ooc_cache_evictions_total",
            "Buffer-pool LRU evictions",
            ("rank",),
        ),
        Counter(
            "repro_ooc_cache_write_admits_total",
            "Partition-child chunks admitted to the buffer pool as written",
            ("rank",),
        ),
        Counter(
            "repro_ooc_cache_writebacks_total",
            "Dirty buffer-pool chunks whose deferred write an eviction or "
            "an overwrite charged",
            ("rank",),
        ),
        Counter(
            "repro_ooc_prefetch_total",
            "Overlapped prefetches by outcome (issued|useful|wasted)",
            ("rank", "outcome"),
        ),
        Counter(
            "repro_ooc_overlap_saved_seconds_total",
            "Disk seconds hidden behind compute by prefetch",
            ("rank",),
        ),
        Counter(
            "repro_crc_failures_total",
            "Chunk CRC verification failures",
            ("rank",),
        ),
        Counter(
            "repro_faults_total", "Injected faults fired", ("rank", "kind")
        ),
        Counter(
            "repro_phase_seconds_total",
            "Simulated seconds per closed driver phase",
            ("rank", "phase"),
        ),
        Counter(
            "repro_level_busy_seconds_total",
            "Busy seconds per frontier level",
            ("rank", "level"),
        ),
        Counter(
            "repro_level_io_bytes_total",
            "Disk bytes per frontier level",
            ("rank", "level"),
        ),
        Counter(
            "repro_exchange_total",
            "Statistics exchanges by strategy",
            ("rank", "strategy"),
        ),
        Counter(
            "repro_exchange_payload_bytes_total",
            "Interval/class statistics bytes this rank shipped into the "
            "stats-exchange collectives, by strategy",
            ("rank", "strategy"),
        ),
        Counter(
            "repro_exchange_elected_attributes_total",
            "Attributes elected by top-k voting (exchange='voting')",
            ("rank",),
        ),
        Counter("repro_attempts_total", "Fit attempts (1 + restarts)", ("rank",)),
        Gauge("repro_frontier_nodes", "Frontier width at a level", ("level",)),
        Gauge(
            "repro_frontier_live_bytes",
            "Local live dataset bytes at level start",
            ("rank", "level"),
        ),
        Gauge(
            "repro_alive_survival_ratio",
            "Mean fraction of records in alive intervals at a level",
            ("level",),
        ),
        Gauge(
            "repro_small_tasks_owned",
            "Small tasks assigned to this rank (LPT)",
            ("rank",),
        ),
        Gauge(
            "repro_small_task_cost_load",
            "Estimated build cost assigned to this rank",
            ("rank",),
        ),
        Gauge(
            "repro_rank_seconds",
            "Final per-rank time split",
            ("rank", "kind"),
        ),
        Gauge(
            "repro_rank_bytes", "Final per-rank byte counters", ("rank", "kind")
        ),
        Gauge("repro_run_elapsed_seconds", "Simulated elapsed time of the fit"),
    )


class MetricsRecorder:
    """Per-rank metrics front-end.

    Owns the rank's :class:`~repro.obs.registry.RankShard`, tracks the
    open frontier level, logs drift samples for the health monitor, and
    acts as the disk/timer event sink and the context observer. Only the
    owning rank thread calls into it (the monitor handles its own
    locking), so there is no synchronisation here.
    """

    #: position in the rank's observer list (after injector and tracer)
    dispatch_slot = 2

    def __init__(
        self,
        ctx: RankContext,
        shard: RankShard,
        monitor: HealthMonitor | None = None,
    ) -> None:
        self.ctx = ctx
        self.shard = shard
        self.monitor = monitor
        self.rank_label = str(ctx.rank)
        self._timer = ctx.timer  # hot-path alias (one hop, not two)
        spec = shard.registry.spec
        self._latency_buckets = spec("repro_collective_latency_seconds").buckets
        self._payload_buckets = spec("repro_collective_payload_bytes").buckets
        self.attempt = 0
        self.level: int | None = None
        # (op/label, level, open phase-timer name) -> the registry cells
        # of the series that event feeds; invalidated implicitly because
        # the key changes with the level/phase. Keeps the hot paths at
        # one tuple build and one dict hit, then plain list additions:
        # no series key is built or hashed per event.
        self._coll_cells: dict[tuple, tuple] = {}
        self._disk_cells: dict[tuple, tuple] = {}
        self._seq: dict[str, int] = {}
        self._level_samples: list[CollectiveSample] = []
        self._outside_samples: list[CollectiveSample] = []
        # (n_frontier, live_bytes, group label, group size, tree) of the
        # open level
        self._level_meta: tuple[int, int, str, int | None, int | None] = (
            0, 0, WORLD, None, None,
        )
        self._busy0 = 0.0
        self._idle0 = 0.0
        self._io0 = 0
        self._cache0 = (0, 0)  # (hits, misses) at level start
        self._overlap0 = 0.0

    # -- label helpers -------------------------------------------------------
    def _phase(self, default: str) -> str:
        open_phase = self.ctx.timer.current
        if open_phase is None:
            return default
        return PHASE_LABELS.get(open_phase, open_phase)

    def _level_label(self) -> str:
        return "-" if self.level is None else str(self.level)

    # -- communicator events ------------------------------------------------
    def _new_collective_cells(self, label: str, op: str) -> tuple:
        shard = self.shard
        rank, lvl, phase = self.rank_label, self._level_label(), self._phase("collective")
        busy_idle = (rank, op, lvl, phase)
        return (
            shard.counter_cell("repro_collective_calls_total", (rank, label, op, lvl, phase)),
            shard.counter_cell("repro_collective_busy_seconds_total", busy_idle),
            shard.counter_cell("repro_collective_idle_seconds_total", busy_idle),
            # a byte series exists only once bytes move: keys, not cells
            (rank, op, "sent"),
            (rank, op, "received"),
            shard.histogram_cell("repro_collective_latency_seconds", (op,)),
            shard.histogram_cell("repro_collective_payload_bytes", (op,)),
        )

    def record_collective(self, call: CommCall) -> None:
        label, op = call.comm, call.op
        sent, received = call.sent, call.received
        ck = (label, op, self.level, self._timer.current)
        cells = self._coll_cells.get(ck)
        if cells is None:
            cells = self._coll_cells[ck] = self._new_collective_cells(label, op)
        calls, busy, idle, sent_key, received_key, latency, payload = cells
        duration = call.t_end - call.t_start
        calls[0] += 1.0
        if sent:
            self.shard.inc("repro_collective_bytes_total", sent_key, sent)
        if received:
            self.shard.inc("repro_collective_bytes_total", received_key, received)
        busy[0] += call.busy
        idle[0] += call.idle
        add_to_histogram(latency, self._latency_buckets, duration)
        add_to_histogram(payload, self._payload_buckets, max(sent, received))
        seq = self._seq.get(label, 0)
        self._seq[label] = seq + 1
        if self.monitor is None:
            return
        sample = CollectiveSample(
            label, seq, op, self.ctx.rank,
            OUTSIDE_LEVEL if self.level is None else self.level,
            sent, received, call.busy, call.idle, duration, call.p,
        )
        if self.level is None:
            self._outside_samples.append(sample)
        else:
            self._level_samples.append(sample)

    def record_p2p(self, call: CommCall) -> None:
        rank = self.rank_label
        self.shard.inc("repro_p2p_messages_total", (rank, call.op))
        if call.sent:
            self.shard.inc("repro_p2p_bytes_total", (rank, "sent"), call.sent)
        if call.received:
            self.shard.inc(
                "repro_p2p_bytes_total", (rank, "received"), call.received
            )

    # -- disk, phase and fault events ----------------------------------------
    def _new_disk_cells(self, op: str) -> tuple:
        cell = self.shard.counter_cell
        labels = (self.rank_label, op, self._level_label(), self._phase("io"))
        return (
            cell("repro_disk_calls_total", labels),
            cell("repro_disk_seconds_total", labels),
            # a retry moves no bytes: it counts one retry instead
            cell("repro_io_retries_total", (self.rank_label,))
            if op == "retry"
            else cell("repro_disk_bytes_total", labels),
        )

    def record_disk(self, op: str, nbytes: int, t_start: float, t_end: float) -> None:
        # the highest-frequency hook (every chunk access)
        ck = (op, self.level, self._timer.current)
        cells = self._disk_cells.get(ck)
        if cells is None:
            cells = self._disk_cells[ck] = self._new_disk_cells(op)
        cells[0][0] += 1.0
        cells[1][0] += t_end - t_start
        cells[2][0] += 1.0 if op == "retry" else nbytes

    def record_phase(self, name: str, t_start: float, t_end: float) -> None:
        phase = PHASE_LABELS.get(name, name)
        self.shard.inc(
            "repro_phase_seconds_total", (self.rank_label, phase), t_end - t_start
        )

    def record_fault(self, op: str, t: float) -> None:
        self.shard.inc("repro_faults_total", (self.rank_label, op))

    # -- driver notifications (via ctx.notify) -------------------------------
    def begin_attempt(self, attempt: int) -> None:
        """A (re)start of the fit program — discard any level left open
        by a crashed attempt so its samples cannot leak across."""
        self.attempt = attempt
        self.level = None
        self._level_samples = []
        self.shard.inc("repro_attempts_total", (self.rank_label,))

    def begin_level(
        self,
        level: int,
        n_frontier: int,
        live_bytes: int,
        group: str,
        group_size: int,
        tree: int | None = None,
    ) -> None:
        """A frontier level opens on this rank; ``group``/``group_size``
        name the communicator the tree is fitted over, whose ranks the
        health monitor compares this level among, and ``tree`` the
        forest member (None for a single-tree fit)."""
        stats = self.ctx.stats
        self.level = level
        self._level_meta = (n_frontier, int(live_bytes), group, group_size, tree)
        self._level_samples = []
        self._busy0 = stats.busy_time()
        self._idle0 = stats.idle_time
        self._io0 = stats.bytes_read + stats.bytes_written
        pool = self.ctx.disk.pool
        if pool is not None:
            self._cache0 = (pool.stats.hits, pool.stats.misses)
        self._overlap0 = stats.io_overlap_saved
        self.shard.set(
            "repro_frontier_live_bytes",
            (self.rank_label, str(level)),
            float(live_bytes),
        )
        if self.ctx.rank == 0:
            self.shard.set("repro_frontier_nodes", (str(level),), float(n_frontier))

    def end_level(self) -> None:
        if self.level is None:
            return
        stats = self.ctx.stats
        busy = stats.busy_time() - self._busy0
        idle = stats.idle_time - self._idle0
        io_bytes = (stats.bytes_read + stats.bytes_written) - self._io0
        lvl = str(self.level)
        self.shard.inc(
            "repro_level_busy_seconds_total", (self.rank_label, lvl), busy
        )
        self.shard.inc(
            "repro_level_io_bytes_total", (self.rank_label, lvl), io_bytes
        )
        pool = self.ctx.disk.pool
        hits = misses = 0
        if pool is not None:
            hits = pool.stats.hits - self._cache0[0]
            misses = pool.stats.misses - self._cache0[1]
        summary = LevelSummary(
            rank=self.ctx.rank,
            attempt=self.attempt,
            level=self.level,
            busy=busy,
            idle=idle,
            io_bytes=io_bytes,
            live_bytes=self._level_meta[1],
            n_frontier=self._level_meta[0],
            samples=tuple(self._level_samples),
            cache_hits=hits,
            cache_misses=misses,
            overlap_saved=stats.io_overlap_saved - self._overlap0,
            group=self._level_meta[2],
            group_size=self._level_meta[3],
            tree=self._level_meta[4],
        )
        self.level = None
        self._level_samples = []
        if self.monitor is not None:
            self.monitor.publish(summary)

    def on_survival(self, level: int, ratios: list[float]) -> None:
        if self.ctx.rank == 0 and ratios:
            self.shard.set(
                "repro_alive_survival_ratio",
                (str(level),),
                sum(ratios) / len(ratios),
            )

    def on_small_assignment(self, load: float, owned: int) -> None:
        self.shard.set(
            "repro_small_tasks_owned", (self.rank_label,), float(owned)
        )
        self.shard.set(
            "repro_small_task_cost_load", (self.rank_label,), float(load)
        )

    def on_stats_exchange(self, strategy: str, n_nodes: int) -> None:
        self.shard.inc(
            "repro_exchange_total", (self.rank_label, strategy), float(n_nodes)
        )

    def on_exchange_payload(self, strategy: str, nbytes: int) -> None:
        self.shard.inc(
            "repro_exchange_payload_bytes_total",
            (self.rank_label, strategy),
            float(nbytes),
        )

    def on_vote_election(self, elected_sets: tuple) -> None:
        self.shard.inc(
            "repro_exchange_elected_attributes_total",
            (self.rank_label,),
            float(sum(len(names) for names in elected_sets)),
        )

    # -- end of run ----------------------------------------------------------
    def finalize(self) -> None:
        """Dump the rank's final counters; called once, after the run's
        threads have joined (the happens-before edge the registry merge
        relies on)."""
        stats = self.ctx.stats
        rank = self.rank_label
        for kind, v in (
            ("compute", stats.compute_time),
            ("io", stats.io_time),
            ("comm", stats.comm_time),
            ("idle", stats.idle_time),
        ):
            self.shard.set("repro_rank_seconds", (rank, kind), v)
        for kind, v in (
            ("read", stats.bytes_read),
            ("written", stats.bytes_written),
            ("sent", stats.bytes_sent),
            ("received", stats.bytes_received),
        ):
            self.shard.set("repro_rank_bytes", (rank, kind), float(v))
        if stats.crc_failures:
            self.shard.inc(
                "repro_crc_failures_total", (rank,), float(stats.crc_failures)
            )
        pool = self.ctx.disk.pool
        if pool is not None:
            ps = pool.stats
            self.shard.inc("repro_ooc_cache_hits_total", (rank,), float(ps.hits))
            self.shard.inc(
                "repro_ooc_cache_misses_total", (rank,), float(ps.misses)
            )
            self.shard.inc(
                "repro_ooc_cache_evictions_total", (rank,), float(ps.evictions)
            )
            self.shard.inc(
                "repro_ooc_cache_write_admits_total", (rank,),
                float(ps.write_admits),
            )
            self.shard.inc(
                "repro_ooc_cache_writebacks_total", (rank,),
                float(ps.write_backs),
            )
            for outcome, v in (
                ("issued", ps.prefetch_issued),
                ("useful", ps.prefetch_useful),
                ("wasted", ps.prefetch_wasted),
            ):
                if v:
                    self.shard.inc(
                        "repro_ooc_prefetch_total", (rank, outcome), float(v)
                    )
            if ps.overlap_saved_s:
                self.shard.inc(
                    "repro_ooc_overlap_saved_seconds_total",
                    (rank,),
                    ps.overlap_saved_s,
                )
        if self.monitor is not None and self._outside_samples:
            self.monitor.publish_outside(self._outside_samples)
            self._outside_samples = []


def attach_metrics(
    contexts: list[RankContext],
    registry: MetricsRegistry | None = None,
    monitor: HealthMonitor | None = None,
) -> tuple[MetricsRegistry, list[MetricsRecorder]]:
    """Subscribe a recorder to every rank context; returns the (shared)
    registry and the per-rank recorders."""
    if registry is None:
        registry = MetricsRegistry()
    _register_metrics(registry)
    recorders: list[MetricsRecorder] = []
    for ctx in contexts:
        rec = MetricsRecorder(ctx, registry.shard(ctx.rank), monitor)
        subscribe(ctx.observers, rec)
        recorders.append(rec)
    return registry, recorders
