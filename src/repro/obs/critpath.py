"""Causal critical-path extraction over traced runs.

The tracer (PR 1) records *everything*; this module answers the paper's
actual question (Sections 3–6, Table 1): which of those events
**determined** the simulated elapsed time, and which were hidden behind
overlap, imbalance slack or prefetch?

The causal DAG over the per-rank event streams has three edge families:

* **program order** within a rank — consecutive events, with untraced
  clock time between them attributed to local compute;
* **collective rendezvous** — every participant's entry precedes every
  participant's exit (``Comm._exchange`` synchronises the clocks to the
  slowest entrant, exactly), so the path through a collective always
  runs through the *last-arriving* rank;
* **message edges** — the k-th ``recv`` on a ``(src, dst, tag)`` channel
  depends on the k-th ``send``/``isend`` on it (mailboxes are FIFO per
  channel).

Disk-queue ordering under the PR 5 demand-preemption model is carried by
the ``prefetch_wait`` events the disk emits at consumption time: they
hold the *residual* wait after demand I/O slipped the in-flight
prefetch, so overlap hidden behind compute can never land on the path
(the issue-time ``prefetch`` slice, whose end time goes stale when the
queue is preempted, is excluded from the DAG entirely).

:func:`build_critical_path` walks the DAG backwards from the last event
of the slowest rank and tiles ``[0, elapsed]`` with contiguous,
causally-ordered :class:`PathSegment`\\ s, each attributed to one of
:data:`CATEGORIES`. The tiling is exact by construction, which pins the
tentpole invariant — **critical-path length == the slowest rank's
simulated elapsed time** — for every fault-free run; any inconsistency
in the event streams (overlapping events, a sync point after an exit, a
jump forward in time) raises :class:`CritPathError` instead of silently
producing a plausible-looking path.

Collective time on the path is split into Table-1 **startup** vs
**bandwidth** with the closed forms of :func:`repro.dnc.cost` — the
startup fraction of the op's cost row evaluated at the measured payload
— so the per-category blame agrees with the model the what-if engine
(:mod:`repro.obs.whatif`) re-prices counterfactuals with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.comm import P2P_OPS
from repro.cluster.network import NetworkModel
from repro.cluster.trace import TraceEvent, Tracer
from repro.dnc.cost import observed_collective_cost, startup_cost

__all__ = [
    "CATEGORIES",
    "CritPathError",
    "CriticalPath",
    "PathSegment",
    "build_critical_path",
    "collective_groups",
    "critpath_alerts",
    "match_p2p",
    "record_critpath_metrics",
]

#: attribution buckets, in render order
CATEGORIES = (
    "compute",
    "disk_read",
    "disk_write",
    "comm_startup",
    "comm_bandwidth",
    "blocked_wait",
    "fault_retry",
)

_DISK_CATEGORY = {
    "read": "disk_read",
    "write": "disk_write",
    "prefetch_wait": "disk_read",
    "retry": "fault_retry",
}


class CritPathError(ValueError):
    """The event streams are not a consistent causal DAG (overlapping
    events, a sync point after an exit, or a jump forward in time)."""


@dataclass(frozen=True)
class PathSegment:
    """One contiguous stretch of the critical path on one rank."""

    rank: int
    t_start: float
    t_end: float
    category: str  # one of CATEGORIES
    op: str  # primitive name, or "compute" for untraced gaps
    level: int | None = None
    phase: str | None = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "category": self.category,
            "op": self.op,
            "level": self.level,
            "phase": self.phase,
        }


@dataclass
class CriticalPath:
    """The extracted path plus the per-rank aggregates the what-if
    engine needs (:mod:`repro.obs.whatif`)."""

    segments: list[PathSegment]  # chronological, tiling [0, elapsed]
    elapsed: float  # == sum of segment durations, exactly
    end_rank: int  # rank whose final event ends the run
    rank_end: list[float] = field(default_factory=list)  # last event end
    rank_blocked: list[float] = field(default_factory=list)  # sync slack
    n_cross_rank: int = 0  # rank hops along the path

    @property
    def length(self) -> float:
        return sum(s.duration for s in self.segments)

    def by_category(self) -> dict[str, float]:
        out = {c: 0.0 for c in CATEGORIES}
        for s in self.segments:
            out[s.category] = out.get(s.category, 0.0) + s.duration
        return out

    def by_level(self) -> dict[int | None, float]:
        """Path seconds per frontier level (None = outside the loop)."""
        out: dict[int | None, float] = {}
        for s in self.segments:
            out[s.level] = out.get(s.level, 0.0) + s.duration
        return out

    def by_level_category(self) -> dict[int | None, dict[str, float]]:
        out: dict[int | None, dict[str, float]] = {}
        for s in self.segments:
            cell = out.setdefault(s.level, {})
            cell[s.category] = cell.get(s.category, 0.0) + s.duration
        return out

    def rank_share(self) -> dict[int, float]:
        """Path seconds spent on each rank (straggler attribution)."""
        out: dict[int, float] = {}
        for s in self.segments:
            out[s.rank] = out.get(s.rank, 0.0) + s.duration
        return out

    def share(self, category: str) -> float:
        total = self.length
        return self.by_category().get(category, 0.0) / total if total else 0.0

    def dominant(self) -> tuple[str, float]:
        """(category, share) of the largest attribution bucket."""
        cats = self.by_category()
        cat = max(CATEGORIES, key=lambda c: cats.get(c, 0.0))
        return cat, self.share(cat)

    def crossings(self) -> list[tuple[PathSegment, PathSegment]]:
        """Consecutive segment pairs where the path changes rank."""
        out = []
        for a, b in zip(self.segments, self.segments[1:]):
            if a.rank != b.rank:
                out.append((a, b))
        return out

    def to_dict(self) -> dict:
        cats = self.by_category()
        total = self.length
        dom_cat, dom_share = self.dominant()
        return {
            "elapsed_seconds": self.elapsed,
            "path_seconds": total,
            "end_rank": self.end_rank,
            "n_segments": len(self.segments),
            "n_cross_rank": self.n_cross_rank,
            "dominant_category": dom_cat,
            "dominant_share": dom_share,
            "by_category": {
                c: {"seconds": cats.get(c, 0.0), "share": self.share(c)}
                for c in CATEGORIES
            },
            "by_level": {
                ("outside" if lv is None else str(lv)): v
                for lv, v in sorted(
                    self.by_level().items(),
                    key=lambda kv: (kv[0] is None, kv[0] or 0),
                )
            },
            "rank_share": {str(r): v for r, v in sorted(self.rank_share().items())},
        }


# -- DAG construction helpers -------------------------------------------------


def _timeline(tracer: Tracer, attempt: int) -> list[TraceEvent]:
    """The rank's causally-ordered clock-occupying events: comm calls
    and disk accesses except the ``prefetch`` slice stamped when the
    read was queued (io-queue domain; its end time goes stale under
    demand preemption — ``prefetch_wait`` carries the consumption point
    instead)."""
    out = []
    for e in tracer.events:
        if e.attempt != attempt:
            continue
        if e.kind == "comm":
            out.append(e)
        elif e.kind == "disk" and e.op != "prefetch":
            out.append(e)
    for a, b in zip(out, out[1:]):
        if b.t_end < a.t_end:
            raise CritPathError(
                f"rank {tracer.rank}: event {b.op!r} ends at {b.t_end} "
                f"before preceding {a.op!r} at {a.t_end}"
            )
    return out


def collective_groups(
    timelines: list[list[TraceEvent]],
) -> dict[int, list[tuple[int, TraceEvent]]]:
    """Map ``id(event) -> [(rank, event), ...]`` joining each collective
    invocation across its participants, aligned by ``(comm, seq)`` —
    the SPMD schedule contract makes the per-communicator sequence
    index identical on every participating rank."""
    groups: dict[tuple[str, int], list[tuple[int, TraceEvent]]] = {}
    for rank, evs in enumerate(timelines):
        seq: dict[str, int] = {}
        for e in evs:
            if e.kind != "comm" or e.op in P2P_OPS:
                continue
            label = e.comm or "world"
            k = seq.get(label, 0)
            seq[label] = k + 1
            groups.setdefault((label, k), []).append((rank, e))
    by_event: dict[int, list[tuple[int, TraceEvent]]] = {}
    for group in groups.values():
        ops = {e.op for _, e in group}
        if len(ops) != 1:
            raise CritPathError(
                f"collective group mixes ops {sorted(ops)} — schedules "
                "do not match across ranks"
            )
        for _, e in group:
            by_event[id(e)] = group
    return by_event


def match_p2p(
    timelines: list[list[TraceEvent]],
) -> dict[int, tuple[int, TraceEvent] | None]:
    """Map ``id(recv event) -> (sender rank, send event)`` pairing the
    k-th receive on each ``(src, dst, tag)`` channel with the k-th
    send/isend on it (per-channel mailboxes are FIFO)."""
    sends: dict[tuple[int, int, int], list[tuple[int, TraceEvent]]] = {}
    recvs: dict[tuple[int, int, int], list[TraceEvent]] = {}
    for rank, evs in enumerate(timelines):
        for e in evs:
            if e.kind != "comm" or e.peer is None:
                continue
            if e.op in ("send", "isend"):
                sends.setdefault((rank, e.peer, e.tag or 0), []).append((rank, e))
            elif e.op == "recv":
                recvs.setdefault((e.peer, rank, e.tag or 0), []).append(e)
    out: dict[int, tuple[int, TraceEvent] | None] = {}
    for channel, rlist in recvs.items():
        slist = sends.get(channel, [])
        for k, e in enumerate(rlist):
            out[id(e)] = slist[k] if k < len(slist) else None
    return out


def _startup_fraction(
    network: NetworkModel,
    e: TraceEvent,
    group: list[tuple[int, TraceEvent]] | None,
) -> float:
    """Fraction of the event's Table-1 cost row that is startup
    (latency) rather than payload bandwidth. Evaluated on the *measured*
    payload, so the split is exact whenever drift is 1.0 (which the
    health monitor pins for fault-free runs). Robust to clock-rate
    scaling (stragglers) and to uniformly scaled cost models: a common
    factor on alpha and beta cancels out of the fraction."""
    if e.op in P2P_OPS:
        total = network.p2p(float(e.sent or e.received))
        startup = network.alpha
    else:
        p = len(group)
        total = observed_collective_cost(
            network, e.op, p=p, sent=e.sent, received=e.received,
            max_sent=max(ev.sent for _, ev in group),
            max_received=max(ev.received for _, ev in group),
        )
        startup = startup_cost(network, e.op, p=p)
    if total <= 0.0:
        return 1.0
    return min(1.0, startup / total)


# -- the backward walk --------------------------------------------------------


def build_critical_path(
    tracers: list[Tracer],
    network: NetworkModel | None = None,
    *,
    elapsed: float | None = None,
) -> CriticalPath:
    """Extract the critical path of one traced run.

    ``network`` is only used to *split* comm segments into startup vs
    bandwidth (the fraction is invariant under uniform cost-model
    scaling, so the default :class:`NetworkModel` is exact for the
    ``scaled_models`` harness). ``elapsed`` — pass the run's simulated
    elapsed time (``PCloudsResult.elapsed``) to account trailing
    untraced local work after the last event; the invariant
    ``path.length == elapsed`` then holds exactly for fault-free runs.

    Multi-attempt (recovered) runs are walked over the final attempt
    only — clocks reset between attempts, so earlier attempts live in a
    different time domain.
    """
    network = network or NetworkModel()
    if not tracers:
        raise CritPathError("no tracers to walk")
    attempt = max((e.attempt for t in tracers for e in t.events), default=0)
    timelines = [_timeline(t, attempt) for t in tracers]
    groups = collective_groups(timelines)
    p2p = match_p2p(timelines)

    rank_end = [evs[-1].t_end if evs else 0.0 for evs in timelines]
    rank_blocked = [
        sum(e.blocked for e in evs if e.kind == "comm") for evs in timelines
    ]
    T = max(rank_end)
    end_rank = rank_end.index(T)
    if elapsed is not None:
        if elapsed < T - 1e-9 * max(1.0, T):
            raise CritPathError(
                f"run elapsed {elapsed} is before the last traced event "
                f"at {T} — stale events in the stream"
            )
        T = max(T, elapsed)

    rev: list[PathSegment] = []  # built back-to-front
    hops = 0

    def emit(rank, lo, hi, category, op, level, phase):
        if hi > lo:
            rev.append(PathSegment(rank, lo, hi, category, op, level, phase))

    r, t = end_rank, T
    if elapsed is not None and T > rank_end[end_rank]:
        emit(r, rank_end[end_rank], T, "compute", "compute", None, None)
        t = rank_end[end_rank]
    idx = [len(evs) - 1 for evs in timelines]
    budget = 4 * sum(len(evs) for evs in timelines) + 8 * len(timelines) + 16
    while True:
        budget -= 1
        if budget < 0:  # pragma: no cover - defensive
            raise CritPathError("walk did not terminate (cyclic jumps?)")
        evs = timelines[r]
        i = idx[r]
        while i >= 0 and evs[i].t_end > t:
            i -= 1
        idx[r] = i
        if i < 0:
            emit(r, 0.0, t, "compute", "compute", None, None)
            break
        e = evs[i]
        if e.t_end < t:
            # untraced clock time after e: local compute (incl. the
            # drain of isend requests, charged without a trace event)
            emit(r, e.t_end, t, "compute", "compute", e.level, e.phase)
            t = e.t_end
            continue
        # e.t_end == t: e is the event whose completion the path leaves
        if e.kind == "disk":
            emit(r, e.t_start, t, _DISK_CATEGORY.get(e.op, "disk_read"),
                 e.op, e.level, e.phase)
            t = e.t_start
            idx[r] = i - 1
            continue
        if e.op == "recv":
            idx[r] = i - 1
            matched = p2p.get(id(e))
            if e.blocked > 0.0 and matched is not None:
                src, se = matched
                if se.t_start > t:
                    raise CritPathError(
                        f"recv at {t} matched a send starting later "
                        f"({se.t_start}) on rank {src}"
                    )
                frac = _startup_fraction(network, se, None)
                cut = se.t_start + frac * (t - se.t_start)
                emit(src, cut, t, "comm_bandwidth", se.op, se.level, se.phase)
                emit(src, se.t_start, cut, "comm_startup", se.op,
                     se.level, se.phase)
                if src != r:
                    hops += 1
                r, t = src, se.t_start
            elif e.blocked > 0.0:
                # no matching send in the final attempt: genuine wait
                emit(r, e.t_start, t, "blocked_wait", e.op, e.level, e.phase)
                t = e.t_start
            else:
                t = e.t_start  # message was already here: instant
            continue
        if e.op in ("send", "isend"):
            idx[r] = i - 1
            if e.op == "isend":
                # only the startup is charged at issue; the transfer
                # flies while the sender computes
                emit(r, e.t_start, t, "comm_startup", e.op, e.level, e.phase)
            else:
                frac = _startup_fraction(network, e, None)
                cut = e.t_start + frac * (t - e.t_start)
                emit(r, cut, t, "comm_bandwidth", e.op, e.level, e.phase)
                emit(r, e.t_start, cut, "comm_startup", e.op, e.level, e.phase)
            t = e.t_start
            continue
        # collective: the exit at t depends on every participant's
        # entry; the charged interval runs from the rendezvous point
        # (== the last entry, clocks advance_to it exactly)
        group = groups[id(e)]
        t_sync = max(ev.t_start for _, ev in group)
        if t_sync > t:
            raise CritPathError(
                f"collective {e.op!r} on rank {r} exits at {t} before "
                f"its rendezvous at {t_sync}"
            )
        frac = _startup_fraction(network, e, group)
        cut = t_sync + frac * (t - t_sync)
        emit(r, cut, t, "comm_bandwidth", e.op, e.level, e.phase)
        emit(r, t_sync, cut, "comm_startup", e.op, e.level, e.phase)
        idx[r] = i - 1
        last = min(rk for rk, ev in group if ev.t_start == t_sync)
        if last != r:
            hops += 1
            r = last
        t = t_sync

    rev.reverse()
    # the tiling is contiguous by construction; verify anyway
    pos = 0.0
    for s in rev:
        if abs(s.t_start - pos) > 1e-9 * max(1.0, T):
            raise CritPathError(
                f"path tiling gap at {pos} (segment starts {s.t_start})"
            )
        pos = s.t_end
    return CriticalPath(
        segments=rev,
        elapsed=T,
        end_rank=end_rank,
        rank_end=rank_end,
        rank_blocked=rank_blocked,
        n_cross_rank=hops,
    )


# -- surfacing: metrics gauges and health alerts ------------------------------


def record_critpath_metrics(registry, path: CriticalPath) -> None:
    """Publish the ``repro_critpath_*`` gauge family onto a
    :class:`~repro.obs.registry.MetricsRegistry` (rank-0 shard; the path
    is a run-wide, replicated quantity)."""
    from .registry import Gauge

    registry.register(
        Gauge(
            "repro_critpath_seconds",
            "Critical-path seconds by attribution category",
            ("category",),
        ),
        Gauge(
            "repro_critpath_share",
            "Fraction of the critical path by attribution category",
            ("category",),
        ),
        Gauge(
            "repro_critpath_elapsed_seconds",
            "Critical-path length (== simulated elapsed, fault-free)",
        ),
        Gauge(
            "repro_critpath_cross_rank_total",
            "Rank hops along the critical path",
        ),
    )
    shard = registry.shard(0)
    cats = path.by_category()
    total = path.length
    for cat in CATEGORIES:
        v = cats.get(cat, 0.0)
        shard.set("repro_critpath_seconds", (cat,), v)
        shard.set("repro_critpath_share", (cat,), v / total if total else 0.0)
    shard.set("repro_critpath_elapsed_seconds", (), total)
    shard.set("repro_critpath_cross_rank_total", (), float(path.n_cross_rank))


def critpath_alerts(path: CriticalPath, thresholds=None) -> list:
    """Health alerts for the path: one ``critpath_share`` alert when a
    single category holds more than
    :attr:`~repro.obs.health.HealthThresholds.critpath_dominant_share`
    of it (the run is X-bound; the what-if engine bounds the payoff of
    fixing X)."""
    from .health import OUTSIDE_LEVEL, HealthAlert, HealthThresholds

    th = thresholds or HealthThresholds()
    if path.length <= 0.0:
        return []
    cat, share = path.dominant()
    if share <= th.critpath_dominant_share:
        return []
    return [
        HealthAlert(
            "critpath_share",
            OUTSIDE_LEVEL,
            cat,
            share,
            th.critpath_dominant_share,
            f"critical path is {share:.1%} {cat} "
            f"(> {th.critpath_dominant_share:.0%}): the run is "
            f"{cat}-bound — see `repro critpath --what-if` for the "
            "bounded payoff of relieving it",
        )
    ]
