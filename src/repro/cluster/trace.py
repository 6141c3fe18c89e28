"""Event tracing for the simulated machine.

A :class:`Tracer` attached to a rank context records a structured event
stream: every communication call (collectives *and* point-to-point, on
the world communicator and on every sub-communicator created by
``split``), every disk read/write, and every closed :class:`PhaseTimer`
phase. Each event is tagged with the phase that was open when it
happened, so a run can be rolled up as *bytes and time by primitive ×
phase* (see :mod:`repro.cluster.tracereport`). Three uses:

* debugging SPMD programs — dump a rank's timeline, or export the whole
  run as Chrome-trace/Perfetto JSON;
* answering the paper's questions (Sections 3–6, Table 1) — where does
  the time go: collective startups, bandwidth, or local I/O?
* verifying the SPMD contract — all ranks of a correct program execute
  the *same sequence of collectives* per communicator;
  :func:`assert_schedules_match` checks it, and the test-suite runs
  pCLOUDS under it.

Byte accounting is exact by construction: the tracer is one of the
rank's observers (:mod:`repro.cluster.events`) and records the
:class:`~repro.cluster.comm.CommCall` the communicator publishes, whose
``sent``/``received`` are the rank's :class:`RankStats` deltas over the
primitive — precisely what was charged (a ``recv`` carries the true
payload size, ``allreduce_minloc`` includes its payload), with no payload
re-walk.

Tracing is opt-in (``Cluster.run`` is unaffected); subscribe tracers with
:func:`attach_tracers` before running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from .comm import P2P_OPS, WORLD, CommCall
from .events import subscribe
from .machine import RankContext

__all__ = [
    "TraceEvent",
    "CommEvent",
    "Tracer",
    "attach_tracers",
    "assert_schedules_match",
]


@dataclass(frozen=True)
class TraceEvent:
    """One traced event: a communication call, a disk access, or a
    closed phase."""

    op: str  # primitive name ("allgather", "read", ...) or phase name
    nbytes: int  # payload size this rank moved (max of sent/received)
    t_start: float
    t_end: float
    kind: str = "comm"  # "comm" | "disk" | "phase" | "fault"
    phase: str | None = None  # PhaseTimer phase open when the event happened
    comm: str | None = None  # communicator label ("world", "world/0,1", ...)
    sent: int = 0  # bytes this rank sent (comm) / wrote (disk)
    received: int = 0  # bytes this rank received (comm) / read (disk)
    level: int | None = None  # frontier level open when the event happened
    #: simulated seconds this rank spent blocked inside the event waiting
    #: for other ranks (collective sync slack, recv before the matching
    #: send arrived) — taken from the RankStats.idle_time delta, so the
    #: event's duration splits exactly into charged work + blocked.
    blocked: float = 0.0
    #: prefetch_wait only: rated disk seconds hidden behind compute by
    #: the overlapped prefetch (RankStats.io_overlap_saved delta).
    saved: float = 0.0
    peer: int | None = None  # p2p events: the other rank
    tag: int | None = None  # p2p events: message tag
    attempt: int = 0  # fit attempt (restarts increment; 0 = first)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


#: backwards-compatible alias — earlier versions only traced comm calls.
CommEvent = TraceEvent


@dataclass
class Tracer:
    """Per-rank event log."""

    rank: int
    events: list[TraceEvent] = field(default_factory=list)
    #: PhaseTimer consulted for the open phase when recording events.
    phase_source: Any = None
    #: frontier level open right now (driver-maintained via the
    #: begin_level/end_level observer notifications); stamps every event.
    level: int | None = None
    #: statistics-exchange strategy the traced run used (recorded from
    #: the driver's ``on_stats_exchange`` notification), so roll-ups can
    #: label stats traffic with the strategy that produced it.
    exchange_strategy: str | None = None
    #: fit attempt currently recording (driver ``begin_attempt``).
    attempt: int = 0
    #: position in the rank's observer list (after the fault injector)
    dispatch_slot: ClassVar[int] = 1

    def record(
        self,
        op: str,
        nbytes: int,
        t_start: float,
        t_end: float,
        *,
        kind: str = "comm",
        comm: str | None = WORLD,
        sent: int = 0,
        received: int = 0,
        phase: str | None = None,
        blocked: float = 0.0,
        saved: float = 0.0,
        peer: int | None = None,
        tag: int | None = None,
    ) -> None:
        if phase is None and self.phase_source is not None:
            phase = self.phase_source.current
        if kind != "comm":
            comm = None
        self.events.append(
            TraceEvent(
                op=op,
                nbytes=int(nbytes),
                t_start=t_start,
                t_end=t_end,
                kind=kind,
                phase=phase,
                comm=comm,
                sent=int(sent),
                received=int(received),
                level=self.level,
                blocked=blocked,
                saved=saved,
                peer=peer,
                tag=tag,
                attempt=self.attempt,
            )
        )

    def record_collective(self, call: CommCall) -> None:
        self.record(
            call.op,
            max(call.sent, call.received),
            call.t_start,
            call.t_end,
            comm=call.comm,
            sent=call.sent,
            received=call.received,
            blocked=call.idle,
            peer=call.peer,
            tag=call.tag,
        )

    #: point-to-point calls are recorded the same way (peer and tag set)
    record_p2p = record_collective

    def record_disk(
        self, op: str, nbytes: int, t_start: float, t_end: float
    ) -> None:
        self.record(
            op,
            nbytes,
            t_start,
            t_end,
            kind="disk",
            sent=nbytes if op == "write" else 0,
            received=nbytes if op == "read" else 0,
        )

    def record_prefetch_wait(
        self, nbytes: int, t_start: float, t_end: float, saved: float
    ) -> None:
        """Consumption point of one overlapped prefetch: the residual
        wait the rank actually paid (``t_end - t_start``, possibly zero)
        plus the rated disk seconds the overlap hid (``saved``). Emitted
        by :meth:`repro.ooc.disk.LocalDisk.complete_prefetch`; this — not
        the issue-time ``prefetch`` slice, whose end time goes stale when
        demand I/O preempts the queue — is the disk event that can sit on
        the critical path."""
        self.record(
            "prefetch_wait",
            nbytes,
            t_start,
            t_end,
            kind="disk",
            received=nbytes,
            saved=saved,
        )

    def record_phase(self, name: str, t_start: float, t_end: float) -> None:
        self.record(name, 0, t_start, t_end, kind="phase", phase=name)

    def record_fault(self, op: str, t: float) -> None:
        """One injected fault (:mod:`repro.cluster.faults`) firing at
        simulated time ``t`` on this rank."""
        self.record(op, 0, t, t, kind="fault")

    # -- driver observer hooks (ctx.notify) ----------------------------------
    def begin_level(self, level: int, *_args: Any) -> None:
        self.level = level

    def end_level(self) -> None:
        self.level = None

    def begin_attempt(self, attempt: int) -> None:
        # a crashed attempt may leave a level open; the restart closes it
        self.level = None
        self.attempt = attempt

    def on_stats_exchange(self, strategy: str, _n_nodes: int) -> None:
        self.exchange_strategy = strategy

    # -- views ---------------------------------------------------------------
    def comm_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "comm"]

    def disk_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "disk"]

    def fault_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "fault"]

    def phase_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "phase"]

    def schedule(self, comm: str | None = None) -> list[str]:
        """The ordered collective-op sequence (p2p excluded). ``comm``
        restricts to one communicator label; default is all of them."""
        return [
            e.op
            for e in self.events
            if e.kind == "comm"
            and e.op not in P2P_OPS
            and (comm is None or e.comm == comm)
        ]

    def schedules_by_comm(self) -> dict[str, list[str]]:
        """Collective sequences grouped by communicator label. The world
        communicator is always present (possibly empty) so that a rank
        that executed nothing still participates in schedule matching."""
        out: dict[str, list[str]] = {WORLD: []}
        for e in self.events:
            if e.kind == "comm" and e.op not in P2P_OPS:
                out.setdefault(e.comm or WORLD, []).append(e.op)
        return out

    def timeline(self) -> str:
        """Human-readable dump."""
        lines = [f"rank {self.rank}: {len(self.events)} events"]
        for e in self.events:
            where = f" @{e.phase}" if e.phase else ""
            which = f" [{e.comm}]" if e.comm and e.comm != WORLD else ""
            lines.append(
                f"  [{e.t_start:10.4f} - {e.t_end:10.4f}] {e.kind:<5} "
                f"{e.op:<10} {e.nbytes} B{which}{where}"
            )
        return "\n".join(lines)

    def total_comm_bytes(self) -> int:
        return sum(e.nbytes for e in self.events if e.kind == "comm")

    def total_disk_bytes(self) -> int:
        return sum(e.nbytes for e in self.events if e.kind == "disk")


def attach_tracers(contexts: list[RankContext]) -> list[Tracer]:
    """Subscribe one tracer to every context's event stream (comm, disk,
    phases, faults and driver milestones); returns the tracers (indexed
    by rank) that fill up during subsequent runs."""
    tracers = []
    for ctx in contexts:
        tracer = Tracer(rank=ctx.rank, phase_source=ctx.timer)
        subscribe(ctx.observers, tracer)
        tracers.append(tracer)
    return tracers


def assert_schedules_match(tracers: list[Tracer]) -> None:
    """Every rank must have executed the identical collective sequence —
    the SPMD contract the simulated machine relies on. Sub-communicator
    schedules are checked among the ranks that used each communicator
    (different subgroups legitimately run different schedules)."""
    if not tracers:
        return
    by_comm: dict[str, dict[int, list[str]]] = {}
    for t in tracers:
        for label, sched in t.schedules_by_comm().items():
            by_comm.setdefault(label, {})[t.rank] = sched
    for label, per_rank in sorted(by_comm.items()):
        ranks = sorted(per_rank)
        base_rank, base = ranks[0], per_rank[ranks[0]]
        where = "" if label == WORLD else f" on communicator {label!r}"
        for rank in ranks[1:]:
            sched = per_rank[rank]
            if sched == base:
                continue
            for i, (a, b) in enumerate(zip(base, sched)):
                if a != b:
                    raise AssertionError(
                        f"rank {rank} diverged from rank {base_rank} at "
                        f"collective #{i}{where}: {a!r} vs {b!r}"
                    )
            raise AssertionError(
                f"rank {rank} executed {len(sched)} collectives{where}, "
                f"rank {base_rank} executed {len(base)}"
            )
