"""Delayed task parallelism for small nodes (Sections 3.5 and 5).

Once every large node has been processed, the accumulated small nodes are
assigned whole to single processors (cost-based LPT on the n·log n direct
build), their data is redistributed in **one** batched personalized
all-to-all (compute-dependent parallel I/O: read at the sources, ship,
write at the destination), and each owner then builds its subtrees
locally, in memory, with the exact direct method. Delaying and batching
is what saves the message startups; processors are *not* regrouped as
they go idle, matching the paper's implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cluster.machine import RankContext
from repro.clouds.direct import StoppingRule, build_subtree_direct
from repro.clouds.tree import encode_node
from repro.data.schema import Schema
from repro.ooc.columnset import ChunkWriter, ColumnSet
from repro.ooc.memory import MemoryExceededError

from .alive import assign_by_cost
from .config import PCloudsConfig

__all__ = ["SmallTask", "process_small_tasks"]


@dataclass
class SmallTask:
    """One deferred node: its tree position, global size, global class
    counts, and this rank's local fragment."""

    node_id: int
    depth: int
    n_global: int
    class_counts: np.ndarray
    columnset: ColumnSet

    def build_cost(self) -> float:
        """Estimated direct-build cost (sorting every numeric attribute
        dominates)."""
        n = max(self.n_global, 2)
        return float(n * math.log2(n))


def process_small_tasks(
    ctx: RankContext,
    tasks: list[SmallTask],
    schema: Schema,
    config: PCloudsConfig,
) -> dict[int, dict]:
    """Run the delayed task-parallel phase; returns this rank's built
    subtrees as ``{node_id: encoded subtree}``.

    Collective: every rank calls with the same task list (same node ids
    and global sizes; local fragments differ).
    """
    comm = ctx.comm
    stopping = config.clouds.stopping()
    tasks = sorted(tasks, key=lambda t: t.node_id)
    owner = assign_by_cost([t.build_cost() for t in tasks], comm.size)
    loads = [0.0] * comm.size
    for k, t in enumerate(tasks):
        loads[owner[k]] += t.build_cost()
    # pass this rank's own load (not the whole vector): observers sit on
    # the base context, whose world rank need not index a group-sized
    # list when the builder runs inside a sub-communicator
    ctx.notify(
        "on_small_assignment",
        loads[comm.rank],
        sum(1 for o in owner if o == comm.rank),
    )

    # one batched all-to-all: every rank reads its local fragment of each
    # task it does not own and ships it to the owner
    parts: list[dict[int, tuple[dict, np.ndarray]]] = [dict() for _ in range(comm.size)]
    for k, t in enumerate(tasks):
        if owner[k] != comm.rank and t.columnset.nrows > 0:
            parts[owner[k]][k] = t.columnset.read_all()  # charges the read
        if owner[k] != comm.rank:
            t.columnset.delete()
    incoming = comm.alltoall(parts)

    # destination side of compute-dependent parallel I/O: spool the
    # received fragments to the local disk, one writer per task fed in
    # source order (all tasks arrive before any is processed). The spool
    # is written back: its chunks stay dirty in the buffer pool, and
    # their disk write is charged only for what the pool cannot hold or
    # evicts before the build loop reads and deletes it
    writers: dict[int, ChunkWriter] = {}
    for src in incoming:
        for k, (cols, labels) in src.items():
            if k not in writers:
                writers[k] = ChunkWriter(
                    ColumnSet(
                        ctx.disk, schema, name=f"small-{tasks[k].node_id}@{ctx.rank}"
                    ),
                    write_back=True,
                )
            writers[k].write(cols, labels)
    spooled = {k: w.close() for k, w in writers.items()}

    # build owned subtrees one at a time, in memory
    subtrees: dict[int, dict] = {}
    for k, t in enumerate(tasks):
        if owner[k] != comm.rank:
            continue
        pieces_cols: list[dict] = []
        pieces_labels: list[np.ndarray] = []
        if t.columnset.nrows > 0:
            cols, labels = t.columnset.read_all()
            pieces_cols.append(cols)
            pieces_labels.append(labels)
        t.columnset.delete()
        if k in spooled:
            cols, labels = spooled[k].read_all()
            spooled[k].delete()
            pieces_cols.append(cols)
            pieces_labels.append(labels)
        if not pieces_labels:
            # every record of this task lived elsewhere and nothing came in
            # (cannot happen when n_global > 0, but stay defensive)
            continue
        columns = {
            name: np.concatenate([p[name] for p in pieces_cols])
            for name in schema.names
        }
        labels = np.concatenate(pieces_labels)
        row = schema.row_nbytes()

        def charge_node(n: int) -> None:
            # the direct method sorts every numeric attribute of the node;
            # a node that does not fit the memory budget runs out-of-core
            # instead and additionally streams its fragment (read) and
            # rewrites the two children (write)
            try:
                reservation = ctx.memory.reserve(n * row)
            except MemoryExceededError:
                ctx.charge_sort(n * max(len(schema.numeric), 1))
                ctx.disk.charge_read(n * row)
                ctx.disk.charge_write(n * row)
            else:
                with reservation:
                    ctx.charge_sort(n * max(len(schema.numeric), 1))

        root = build_subtree_direct(
            schema,
            columns,
            labels,
            stopping,
            depth=t.depth,
            next_id=0,
            enumerate_limit=config.clouds.enumerate_limit,
            on_node=charge_node,
        )
        subtrees[t.node_id] = encode_node(root)
    return subtrees
