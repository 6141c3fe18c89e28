"""MPI-like communicator for the simulated machine.

One :class:`Comm` facade is bound to each rank. All ranks of an SPMD
program must reach the same sequence of collective call sites (verified at
runtime — divergence raises :class:`CommMismatchError` instead of
deadlocking). Data moves by reference between the rank threads — payloads
are not copied, matching MPI zero-copy semantics; callers must not mutate
a buffer they've sent. Time is charged from :class:`NetworkModel`:

* every collective synchronises the participants' clocks to
  ``max(clocks) + cost(m, p)``;
* a point-to-point receive completes at
  ``max(receiver ready, sender clock + alpha + beta*m)``.

The communicator is also where communication is observed. When the
rank's ``observers`` list is not empty, every primitive publishes one
:class:`CommCall` to it (see :mod:`repro.cluster.events`), and every
collective first offers ``before_collective`` — the fault injector's
crash point. No primitive calls another, so each call is one event.
"""

from __future__ import annotations

import pickle
import queue
import threading
from functools import lru_cache
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import ClusterAborted, CommMismatchError, DeadlockError
from .events import publish
from .network import NetworkModel

#: label of the communicator every rank starts with; a ``split`` child
#: extends its parent's label with its members' parent ranks
#: (``world/0,2``, then ``world/0,2/1``)
WORLD = "world"

#: the point-to-point primitives (a receive completed through
#: ``irecv().wait()`` is a ``recv``); every other op is a collective
P2P_OPS = ("send", "isend", "recv")


class CommCall(NamedTuple):
    """One finished primitive as its rank's observers see it: what it
    moved and charged on this rank (deltas of :class:`RankStats`, so
    byte counts are exactly what the communicator charged)."""

    op: str  # primitive name ("allgather", "split", "recv", ...)
    comm: str  # communicator label
    t_start: float
    t_end: float
    sent: int  # bytes this rank sent
    received: int  # bytes this rank received
    busy: float  # charged transfer seconds (comm_time)
    idle: float  # seconds blocked waiting for other ranks (idle_time)
    p: int  # communicator size
    peer: int | None = None  # p2p: the other rank
    tag: int | None = None  # p2p: message tag


@lru_cache(maxsize=8192)
def _str_nbytes(s: str) -> int:
    # dict keys are overwhelmingly a small set of repeated column names;
    # memoizing their encoded length keeps nested-dict sizing O(values)
    return len(s.encode())


def payload_nbytes(obj: Any) -> int:
    """Wire size of a message payload, in bytes.

    numpy arrays are their buffer size; scalars are one word; containers
    are the sum of their items plus a small per-item header. Anything
    opaque falls back to its pickle length. Sizing a column dict
    (str -> ndarray, the dominant ``alltoall`` payload) touches each
    value once and hits a string cache for the keys.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, str):
        return _str_nbytes(obj)
    if isinstance(obj, (list, tuple)):
        return 8 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        total = 8
        for k, v in obj.items():
            # inline the two hottest entry shapes before recursing
            total += _str_nbytes(k) if type(k) is str else payload_nbytes(k)
            total += int(v.nbytes) if type(v) is np.ndarray else payload_nbytes(v)
        return total
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


#: sentinel pushed into every pending mailbox on abort, so ranks blocked
#: in ``recv``/``Request.wait`` fail within milliseconds instead of
#: sitting out the full wall-clock timeout.
_ABORT = object()


_REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
}


def _resolve_op(op: str | Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    if callable(op):
        return op
    try:
        return _REDUCERS[op]
    except KeyError:
        raise ValueError(f"unknown reduction op {op!r}; use sum/min/max or a callable")


class _Barrier:
    """Cyclic barrier whose release is final: a rank released from a
    round returns normally even if the world aborts before its thread
    wakes. With ``threading.Barrier`` a peer that crashed right after a
    collective aborted the others still waking inside it, so whether
    they completed that collective depended on host scheduling."""

    def __init__(self, parties: int) -> None:
        self._parties = parties
        self._cond = threading.Condition()
        self._arrived = 0
        self._round = 0
        self._broken = False

    def wait(self, timeout: float | None = None) -> None:
        with self._cond:
            if self._broken:
                raise threading.BrokenBarrierError
            this_round = self._round
            self._arrived += 1
            if self._arrived == self._parties:
                self._arrived = 0
                self._round += 1
                self._cond.notify_all()
                return
            self._cond.wait_for(
                lambda: self._round != this_round or self._broken, timeout
            )
            if self._round != this_round:
                return
            self._broken = True  # aborted, or timed out: break it for all
            self._cond.notify_all()
            raise threading.BrokenBarrierError

    def abort(self) -> None:
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    def reset(self) -> None:
        with self._cond:
            self._broken = False
            self._arrived = 0


class CommWorld:
    """Shared state for one SPMD run: the barrier, the collective slots and
    the point-to-point mailboxes."""

    def __init__(self, size: int, network: NetworkModel, timeout: float):
        self.size = size
        self.network = network
        self.timeout = timeout
        self.barrier = _Barrier(size)
        self.slots: list[Any] = [None] * size
        self.opnames: list[str | None] = [None] * size
        self.clocks_in: list[float] = [0.0] * size
        self._mailboxes: dict[tuple[int, int, int], queue.SimpleQueue] = {}
        self._mailbox_lock = threading.Lock()
        self.aborted = False
        self._children: list["CommWorld"] = []
        self._children_lock = threading.Lock()

    def mailbox(self, src: int, dst: int, tag: int) -> queue.SimpleQueue:
        key = (src, dst, tag)
        with self._mailbox_lock:
            q = self._mailboxes.get(key)
            if q is None:
                q = self._mailboxes[key] = queue.SimpleQueue()
                if self.aborted:
                    # a receiver opening a mailbox after the abort must
                    # not block waiting for a message that will never come
                    q.put(_ABORT)
            return q

    def register_child(self, child: "CommWorld") -> None:
        """Track a sub-communicator's world so aborts cascade to ranks
        blocked inside subgroup collectives."""
        with self._children_lock:
            self._children.append(child)

    def reset(self) -> None:
        """Return an aborted world to service so the same contexts can run
        another SPMD program (checkpoint/restart). Only valid between runs
        — no rank thread may be inside a primitive. Pending messages and
        sub-worlds of the failed run are discarded."""
        self.aborted = False
        self.barrier.reset()
        self.slots = [None] * self.size
        self.opnames = [None] * self.size
        self.clocks_in = [0.0] * self.size
        with self._mailbox_lock:
            self._mailboxes.clear()
        with self._children_lock:
            self._children.clear()

    def abort(self) -> None:
        self.aborted = True
        self.barrier.abort()
        # wake ranks blocked in recv/Request.wait: push an abort sentinel
        # into every pending mailbox (queues created later get theirs in
        # :meth:`mailbox`)
        with self._mailbox_lock:
            queues = list(self._mailboxes.values())
        for q in queues:
            q.put(_ABORT)
        with self._children_lock:
            children = list(self._children)
        for child in children:
            child.abort()


class Comm:
    """Per-rank communicator facade.

    Created by :class:`repro.cluster.machine.Cluster`; user programs reach
    it through ``ctx.comm``.
    """

    def __init__(self, world: CommWorld, rank: int, ctx, label: str = WORLD) -> None:
        self._world = world
        self.rank = rank
        self.size = world.size
        self._ctx = ctx  # RankContext (clock + stats + observers)
        self.parent_ranks: list[int] = list(range(world.size))
        self.label = label
        # (op, clock, bytes sent, bytes received, comm s, idle s) at the
        # entry of the primitive in flight; set only while observed
        self._entry: tuple | None = None

    # -- internals ----------------------------------------------------------
    def _wait(self) -> None:
        try:
            self._world.barrier.wait(timeout=self._world.timeout)
        except threading.BrokenBarrierError:
            if self._world.aborted:
                raise ClusterAborted(f"rank {self.rank}: peer failure") from None
            raise DeadlockError(
                f"rank {self.rank}: barrier timed out after "
                f"{self._world.timeout}s — SPMD ranks diverged?"
            ) from None

    def _exchange(self, opname: str, contribution: Any) -> list[Any]:
        """Open collective ``opname`` and rendezvous. Observers hear of
        it first: the fault injector may crash the rank here, before it
        deposits anything."""
        observers = self._ctx.observers
        if observers:
            publish(observers, "before_collective", opname, self.label)
            self._open(opname)
        return self._rendezvous(opname, contribution)

    def _rendezvous(self, opname: str, contribution: Any) -> list[Any]:
        """Deposit ``contribution``, rendezvous, and return everyone's
        contributions. Verifies all ranks are executing ``opname``."""
        w = self._world
        w.slots[self.rank] = contribution
        w.opnames[self.rank] = opname
        w.clocks_in[self.rank] = self._ctx.clock.now
        self._wait()
        if any(o != opname for o in w.opnames):
            w.abort()
            raise CommMismatchError(
                f"rank {self.rank} called {opname!r} but peers called "
                f"{sorted(set(filter(None, w.opnames)))!r}"
            )
        data = list(w.slots)
        t_max = max(w.clocks_in)
        self._wait()  # everyone has copied; slots may be reused
        # synchronise clocks: idle until the slowest participant arrives
        idle = t_max - self._ctx.clock.now
        if idle > 0:
            self._ctx.stats.idle_time += idle
        self._ctx.clock.advance_to(t_max)
        self._ctx.stats.collectives += 1
        return data

    def _charge(self, seconds: float) -> None:
        self._ctx.clock.advance(seconds)
        self._ctx.stats.comm_time += seconds

    def _settle(self, seconds: float, sent: int = 0, received: int = 0) -> None:
        """Charge a collective's Table-1 seconds and bytes, then publish
        it."""
        self._charge(seconds)
        self._count_bytes(sent, received)
        if self._ctx.observers:
            self._close("record_collective")

    def _open(self, opname: str) -> None:
        ctx = self._ctx
        s = ctx.stats
        self._entry = (
            opname, ctx.clock.now, s.bytes_sent, s.bytes_received,
            s.comm_time, s.idle_time,
        )

    def _close(self, hook: str, peer: int | None = None, tag: int | None = None) -> None:
        """Publish the primitive opened by :meth:`_open` as one event."""
        op, t0, s0, r0, c0, i0 = self._entry
        ctx = self._ctx
        s = ctx.stats
        publish(
            ctx.observers,
            hook,
            CommCall(
                op, self.label, t0, ctx.clock.now,
                s.bytes_sent - s0, s.bytes_received - r0,
                s.comm_time - c0, s.idle_time - i0, self.size, peer, tag,
            ),
        )

    # -- collectives ---------------------------------------------------------
    def barrier(self) -> None:
        """Synchronise all ranks (costs one zero-byte combine)."""
        self._exchange("barrier", None)
        self._settle(self._world.network.global_combine(0, self.size))

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """One-to-all broadcast; every rank returns root's object."""
        data = self._exchange("bcast", obj if self.rank == root else None)
        out = data[root]
        m = payload_nbytes(out)
        self._settle(
            self._world.network.broadcast(m, self.size),
            sent=m if self.rank == root else 0,
            received=m,
        )
        return out

    def scatter(self, parts: Sequence[Any] | None, root: int = 0) -> Any:
        """Root distributes ``parts[d]`` to rank d; every rank returns its
        part. Modelled as the inverse gather (same Table-1 cost shape)."""
        if self.rank == root:
            if parts is None or len(parts) != self.size:
                raise ValueError(
                    f"root must pass exactly {self.size} parts"
                )
            contribution = list(parts)
        else:
            contribution = None
        data = self._exchange("scatter", contribution)
        mine = data[root][self.rank]
        m = max(payload_nbytes(x) for x in data[root])
        self._settle(
            self._world.network.gather(m, self.size),
            sent=(
                sum(payload_nbytes(x) for x in data[root])
                if self.rank == root
                else 0
            ),
            received=payload_nbytes(mine),
        )
        return mine

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank at ``root`` (others return None)."""
        data = self._exchange("gather", obj)
        m = max(payload_nbytes(x) for x in data)
        self._settle(
            self._world.network.gather(m, self.size),
            sent=payload_nbytes(obj),
            received=sum(payload_nbytes(x) for x in data) if self.rank == root else 0,
        )
        return data if self.rank == root else None

    def allgather(self, obj: Any) -> list[Any]:
        """All-to-all broadcast; every rank returns the list of all
        contributions, indexed by rank."""
        return self._all_to_all_broadcast("allgather", obj)

    def vote(self, ballot: Any) -> list[Any]:
        """All-to-all broadcast of per-rank *ballots* — the vote-election
        collective of the top-k voting exchange. Wire semantics and
        Table-1 cost are exactly those of :meth:`allgather` (every rank
        returns the list of all ballots, indexed by rank), but the call
        carries its own op name so election traffic is attributable in
        traces, metrics, fault plans and the health monitor's drift
        accounting, separately from the bulk stats collectives."""
        return self._all_to_all_broadcast("vote", ballot)

    def _all_to_all_broadcast(self, name: str, obj: Any) -> list[Any]:
        data = self._exchange(name, obj)
        m = max(payload_nbytes(x) for x in data)
        mine = payload_nbytes(obj)
        self._settle(
            self._world.network.all_to_all_broadcast(m, self.size),
            sent=mine * (self.size - 1),
            received=sum(payload_nbytes(x) for x in data) - mine,
        )
        return data

    def reduce(self, obj: Any, op: str | Callable = "sum", root: int = 0) -> Any:
        """Reduce to ``root`` (others return None)."""
        out = self._combine("reduce", obj, op)
        return out if self.rank == root else None

    def allreduce(self, obj: Any, op: str | Callable = "sum") -> Any:
        """Global combine; every rank returns the reduction."""
        return self._combine("allreduce", obj, op)

    def _combine(self, name: str, obj: Any, op: str | Callable) -> Any:
        fn = _resolve_op(op)
        data = self._exchange(name, obj)
        acc = data[0]
        for x in data[1:]:
            acc = fn(acc, x)
        m = payload_nbytes(obj)
        self._settle(self._world.network.global_combine(m, self.size), m, m)
        return acc

    def allreduce_minloc(
        self, value: float, payload: Any = None, tiebreak: Any = None
    ) -> tuple[float, Any, int]:
        """Min-reduction that also returns the payload and rank of the
        minimum — the paper's mechanism for electing the global best
        splitter. Equal values resolve by ``tiebreak`` (any sortable the
        caller supplies, e.g. a split's order key) and then by lowest
        rank, so the election is independent of how work was distributed."""
        data = self._exchange(
            "allreduce_minloc",
            (float(value), (tiebreak is None, tiebreak), self.rank, payload),
        )
        best = min(data, key=lambda t: (t[0], t[1], t[2]))
        m = 8 + payload_nbytes(best[3])
        self._settle(self._world.network.global_combine(m, self.size), m, m)
        return best[0], best[3], best[2]

    def allreduce_minloc_many(
        self,
        values: Sequence[float],
        payloads: Sequence[Any] | None = None,
        tiebreaks: Sequence[Any] | None = None,
    ) -> list[tuple[float, Any, int]]:
        """Vectorized :meth:`allreduce_minloc`: ``k`` independent min
        elections resolved in a **single** collective.

        Slot ``i`` elects the global minimum of ``values[i]`` across
        ranks, with ties resolved by ``tiebreaks[i]`` and then by lowest
        rank — exactly the per-slot semantics of ``allreduce_minloc``.
        Returns one ``(value, payload, rank)`` triple per slot. The wire
        cost is one ``alpha·log p`` startup for the whole batch plus the
        summed per-slot payloads, which is what makes a batch's split
        elections cheaper than ``k`` separate calls.

        All ranks must pass the same number of slots; a mismatch aborts
        the world like any other SPMD divergence.
        """
        k = len(values)
        payloads = list(payloads) if payloads is not None else [None] * k
        tiebreaks = list(tiebreaks) if tiebreaks is not None else [None] * k
        if len(payloads) != k or len(tiebreaks) != k:
            raise ValueError("values, payloads and tiebreaks must align")
        contribution = [
            (float(v), (tb is None, tb), self.rank, pl)
            for v, tb, pl in zip(values, tiebreaks, payloads)
        ]
        data = self._exchange("allreduce_minloc_many", contribution)
        if any(len(row) != k for row in data):
            self._world.abort()
            raise CommMismatchError(
                f"rank {self.rank} called allreduce_minloc_many with "
                f"{k} slots but peers passed "
                f"{sorted({len(row) for row in data})!r}"
            )
        out: list[tuple[float, Any, int]] = []
        m = 0
        for slot in range(k):
            best = min(
                (row[slot] for row in data), key=lambda t: (t[0], t[1], t[2])
            )
            m += 8 + payload_nbytes(best[3])
            out.append((best[0], best[3], best[2]))
        self._settle(self._world.network.global_combine(m, self.size), m, m)
        return out

    def scan(self, obj: Any, op: str | Callable = "sum") -> Any:
        """Inclusive prefix reduction across ranks (Table 1 prefix sum)."""
        fn = _resolve_op(op)
        data = self._exchange("scan", obj)
        acc = data[0]
        for r in range(1, self.rank + 1):
            acc = fn(acc, data[r])
        m = payload_nbytes(obj)
        self._settle(self._world.network.prefix_sum(m, self.size), m, m)
        return acc

    def alltoall(self, parts: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: ``parts[d]`` goes to rank d; returns the
        list of parts addressed to this rank, indexed by source."""
        if len(parts) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} parts, got {len(parts)}"
            )
        matrix = self._exchange("alltoall", list(parts))
        mine = [row[self.rank] for row in matrix]
        out_bytes = sum(payload_nbytes(x) for i, x in enumerate(parts) if i != self.rank)
        in_bytes = sum(payload_nbytes(x) for i, x in enumerate(mine) if i != self.rank)
        self._settle(
            self._world.network.alltoallv(out_bytes, in_bytes, self.size),
            out_bytes,
            in_bytes,
        )
        return mine

    # -- communicator management ------------------------------------------------
    def split(self, color: int) -> "Comm":
        """Partition the communicator into subgroups (MPI_Comm_split).

        Ranks passing the same ``color`` form a new communicator whose
        ranks are ordered by their rank here. Task parallelism assigns
        subtasks to processor subgroups created this way. Collective on
        the current communicator; the colour rendezvous costs what an
        allgather of one word per rank costs.
        """
        colors = self._exchange("split", int(color))
        word = 8  # payload_nbytes of one colour
        self._charge(self._world.network.all_to_all_broadcast(word, self.size))
        self._count_bytes(sent=word * (self.size - 1), received=word * (self.size - 1))
        members = [r for r, c in enumerate(colors) if c == colors[self.rank]]
        new_rank = members.index(self.rank)
        # build one CommWorld per color, shared via the parent's slots
        if new_rank == 0:
            child = CommWorld(len(members), self._world.network, self._world.timeout)
            self._world.register_child(child)
            proposal = {colors[self.rank]: child}
        else:
            proposal = {}
        worlds = self._rendezvous("split-worlds", proposal)
        world = None
        for d in worlds:
            if colors[self.rank] in d:
                world = d[colors[self.rank]]
                break
        label = f"{self.label}/{','.join(str(r) for r in members)}"
        sub = Comm(world, new_rank, self._ctx, label)
        sub.parent_ranks = members  # parent-communicator ranks of the subgroup
        if self._ctx.observers:
            self._close("record_collective")
        return sub

    # -- point to point -------------------------------------------------------
    def isend(self, obj: Any, dst: int, tag: int = 0) -> "Request":
        """Non-blocking send: the sender is charged only the startup now;
        the transfer completes (and the remainder is charged) at
        ``Request.wait``. The message still arrives ordered per channel."""
        if not 0 <= dst < self.size:
            raise ValueError(f"bad destination rank {dst}")
        observed = self._ctx.observers
        if observed:
            self._open("isend")
        m = payload_nbytes(obj)
        self._charge(self._world.network.alpha)
        start = self._ctx.clock.now
        self._count_bytes(sent=m)
        self._ctx.stats.messages_sent += 1
        # the message lands when the transfer would finish
        arrival = start + self._world.network.beta * m
        self._world.mailbox(self.rank, dst, tag).put((obj, arrival))
        if observed:
            self._close("record_p2p", int(dst), int(tag))
        return Request(self, kind="send", transfer_end=arrival)

    def irecv(self, src: int, tag: int = 0) -> "Request":
        """Non-blocking receive: returns a Request whose ``wait`` yields
        the object (blocking until arrival)."""
        if not 0 <= src < self.size:
            raise ValueError(f"bad source rank {src}")
        return Request(self, kind="recv", src=src, tag=tag)

    def send(self, obj: Any, dst: int, tag: int = 0) -> None:
        """Blocking-standard-mode send: the sender is busy for the full
        transfer time; the message lands at the sender's completion time."""
        if not 0 <= dst < self.size:
            raise ValueError(f"bad destination rank {dst}")
        observed = self._ctx.observers
        if observed:
            self._open("send")
        m = payload_nbytes(obj)
        self._charge(self._world.network.p2p(m))
        self._count_bytes(sent=m)
        self._ctx.stats.messages_sent += 1
        self._world.mailbox(self.rank, dst, tag).put((obj, self._ctx.clock.now))
        if observed:
            self._close("record_p2p", int(dst), int(tag))

    def recv(self, src: int, tag: int = 0) -> Any:
        """Blocking receive; completes at max(ready, arrival)."""
        if not 0 <= src < self.size:
            raise ValueError(f"bad source rank {src}")
        observed = self._ctx.observers
        if observed:
            self._open("recv")
        q = self._world.mailbox(src, self.rank, tag)
        try:
            item = q.get(timeout=self._world.timeout)
        except queue.Empty:
            if self._world.aborted:
                raise ClusterAborted(f"rank {self.rank}: peer failure") from None
            raise DeadlockError(
                f"rank {self.rank}: recv(src={src}, tag={tag}) timed out"
            ) from None
        if item is _ABORT:
            raise ClusterAborted(f"rank {self.rank}: peer failure") from None
        obj, arrival = item
        if arrival > self._ctx.clock.now:
            self._ctx.stats.idle_time += arrival - self._ctx.clock.now
            self._ctx.clock.advance_to(arrival)
        self._count_bytes(received=payload_nbytes(obj))
        if observed:
            self._close("record_p2p", int(src), int(tag))
        return obj

    def _count_bytes(self, sent: int = 0, received: int = 0) -> None:
        self._ctx.stats.bytes_sent += int(sent)
        self._ctx.stats.bytes_received += int(received)


class Request:
    """Handle for a non-blocking operation (mpi4py-style ``wait``)."""

    def __init__(
        self,
        comm: Comm,
        kind: str,
        src: int = -1,
        tag: int = 0,
        transfer_end: float = 0.0,
    ) -> None:
        self._comm = comm
        self._kind = kind
        self._src = src
        self._tag = tag
        self._transfer_end = transfer_end
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        """Complete the operation: a send waits until its transfer has
        drained the link; a receive blocks for (and returns) the message."""
        if self._done:
            return self._value
        ctx = self._comm._ctx
        if self._kind == "send":
            if self._transfer_end > ctx.clock.now:
                dt = self._transfer_end - ctx.clock.now
                ctx.clock.advance_to(self._transfer_end)
                ctx.stats.comm_time += dt
        else:
            self._value = self._comm.recv(self._src, self._tag)
        self._done = True
        return self._value

    def test(self) -> bool:
        """True once the operation is locally complete (send: transfer
        drained; recv: completed via wait)."""
        if self._done:
            return True
        if self._kind == "send":
            return self._comm._ctx.clock.now >= self._transfer_end
        return False
