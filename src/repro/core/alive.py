"""Parallel evaluation of alive intervals (Section 5.1.3).

The paper's **single-assignment approach**: each alive interval is owned
by exactly one processor, chosen by the cost of processing it (the sort
dominates). Every processor extracts its local members of every alive
interval and ships them to the owners in one personalized all-to-all;
owners sort, evaluate the gini at every distinct point, and the global
best interior splitter is elected by min-reduction (which also serves as
the broadcast of the winning split point).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.machine import RankContext
from repro.clouds.splits import Split, better
from repro.clouds.sse import AliveInterval, evaluate_alive_interval
from repro.data.schema import Schema

from .access import NodeAccess

__all__ = ["assign_by_cost", "evaluate_alive_parallel", "evaluate_alive_level"]


def assign_by_cost(costs: list[float], n_ranks: int) -> list[int]:
    """Deterministic LPT (longest-processing-time) assignment: items in
    decreasing cost order go to the currently least-loaded rank (ties to
    the lowest rank). Every rank computes the identical mapping from the
    shared cost list."""
    loads = [0.0] * n_ranks
    owner = [0] * len(costs)
    order = sorted(range(len(costs)), key=lambda k: (-costs[k], k))
    for k in order:
        r = min(range(n_ranks), key=lambda i: (loads[i], i))
        owner[k] = r
        loads[r] += costs[k]
    return owner


def evaluate_alive_level(
    ctx: RankContext,
    accesses: list[NodeAccess],
    alive_lists: list[list[AliveInterval]],
    counts_list: list[np.ndarray],
    schema: Schema,
    boundary_splits: list[Split | None],
) -> list[Split | None]:
    """SSE's second phase for a batch of large nodes; returns each node's
    final splitter (the boundary winner unless an interior point beats
    it), in batch order.

    The LPT cost assignment runs over the pool of (node, interval) items
    of the whole batch, so a batch with one hot node and many cold ones
    still balances; all members travel in **one** personalized
    all-to-all and the per-node interior winners are elected in **one**
    k-way min-reduction. A node's split does not depend on its batch:
    interval evaluation is independent of which rank owns it (pieces
    concatenate in source-rank order and the evaluator sorts stably), and
    the election compares ``(gini, order_key)``.

    Collective: every rank must call with the identical alive lists.
    """
    comm = ctx.comm
    k = len(alive_lists)
    pool = [(j, i) for j in range(k) for i in range(len(alive_lists[j]))]
    if not pool:
        return list(boundary_splits)

    owner = assign_by_cost(
        [alive_lists[j][i].sort_cost() for j, i in pool], comm.size
    )

    # extract local members node by node (back-to-back disk passes) and
    # route everything to the interval owners in one alltoall
    members = [
        accesses[j].alive_members(alive_lists[j]) if alive_lists[j] else []
        for j in range(k)
    ]
    parts: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [
        dict() for _ in range(comm.size)
    ]
    for idx, (j, i) in enumerate(pool):
        vals, labs = members[j][i]
        if len(vals):
            parts[owner[idx]][idx] = (vals, labs)
    incoming = comm.alltoall(parts)

    # owner side: assemble, sort and evaluate every owned interval
    best_local: list[Split | None] = [None] * k
    for idx in (i for i in range(len(pool)) if owner[i] == comm.rank):
        j, i = pool[idx]
        pieces = [src[idx] for src in incoming if idx in src]
        if not pieces:
            continue
        vals = np.concatenate([p[0] for p in pieces])
        labs = np.concatenate([p[1] for p in pieces])
        ctx.charge_sort(len(vals))
        ctx.charge_compute(ops=len(vals) * schema.n_classes)
        cand = evaluate_alive_interval(
            alive_lists[j][i], vals, labs,
            np.asarray(counts_list[j], dtype=np.float64), schema.n_classes,
        )
        best_local[j] = better(best_local[j], cand)

    elected = comm.allreduce_minloc_many(
        [s.gini if s is not None else float("inf") for s in best_local],
        best_local,
        tiebreaks=[
            s.order_key() if s is not None else None for s in best_local
        ],
    )
    return [better(boundary_splits[j], elected[j][1]) for j in range(k)]


def evaluate_alive_parallel(
    ctx: RankContext,
    access: NodeAccess,
    alive: list[AliveInterval],
    total_counts: np.ndarray,
    schema: Schema,
    boundary_split: Split | None,
) -> Split | None:
    """:func:`evaluate_alive_level` over a batch of one node."""
    return evaluate_alive_level(
        ctx, [access], [alive], [total_counts], schema, [boundary_split]
    )[0]
