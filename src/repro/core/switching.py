"""Analytic switching criterion for mixed parallelism.

The paper leaves the data-parallel → task-parallel switch as an open
question ("We have not presented any concrete criteria for switching...
This analytical characterization is currently under investigation") and
uses a fixed threshold of ten intervals. This module implements the
characterisation the cost models make possible — an **extension** beyond
the paper, benchmarked against fixed thresholds in
``benchmarks/bench_ablations.py``.

Derivation. Processing one large node of global size n data-parallel
costs each processor roughly

    T_dp(n) = passes · (n/p) · c_rec  +  K · alpha · ceil(log2 p)

where ``c_rec`` is the per-record cost of one pass (dominated by disk
bandwidth over the node's row bytes, plus the scan compute), ``passes``
the stats/alive/partition passes, and ``K`` the node's collective count.
The first term shrinks with n; the fixed second term does not — exactly
the paper's observation that "communication time is expected to dominate
the overall processing time when the node size becomes small". Deferring
the node instead costs its whole subtree built sequentially, but that
work is amortised over p processors by the LPT assignment, so the
*marginal* wall-clock of deferring stays near ``subtree_work(n)/p``,
while staying data-parallel pays ``K·alpha·log2 p`` per descendant node.
Equating the parallelisable work of one node with its fixed
synchronisation overhead gives the break-even size

    n* = K · alpha · ceil(log2 p) · p / (passes · c_rec)

below which a node synchronises more than it computes. We convert n* to
the paper's units (intervals) through the q(n) scaling.
"""

from __future__ import annotations

import math

from repro.cluster.compute import ComputeModel
from repro.cluster.diskmodel import DiskModel
from repro.cluster.network import NetworkModel
from repro.clouds.builder import CloudsConfig
from repro.data.schema import Schema

__all__ = ["break_even_node_size", "auto_q_switch", "COLLECTIVES_PER_LARGE_NODE"]

#: collectives one large node executes (stats alltoall, minloc, alive
#: allgather, member alltoall, interior minloc, left-count allreduce)
COLLECTIVES_PER_LARGE_NODE = 6

#: streaming passes over a large node (stats read, alive read, partition
#: read+write)
PASSES_PER_LARGE_NODE = 4

#: deferred subtrees per processor, by volume, that the switch leaves for
#: the LPT assignment of small tasks to balance
BALANCE_FACTOR = 2.0


def break_even_node_size(
    schema: Schema,
    network: NetworkModel,
    disk: DiskModel,
    compute: ComputeModel,
    n_ranks: int,
) -> float:
    """Global node size n* at which a large node's fixed synchronisation
    cost equals its parallelisable per-pass work."""
    if n_ranks <= 1:
        return 0.0  # no synchronisation: stay data-parallel throughout
    row = schema.row_nbytes()
    c_rec = row / disk.bandwidth + compute.cost(len(schema))
    overhead = (
        COLLECTIVES_PER_LARGE_NODE * network.alpha * math.ceil(math.log2(n_ranks))
    )
    return overhead * n_ranks / (PASSES_PER_LARGE_NODE * c_rec)


def auto_q_switch(
    schema: Schema,
    clouds: CloudsConfig,
    network: NetworkModel,
    disk: DiskModel,
    compute: ComputeModel,
    n_ranks: int,
    n_total: int,
) -> int:
    """Pick the switch threshold from the machine's cost models.

    Two forces bound the switch size n_switch:

    * **latency floor** — nodes below :func:`break_even_node_size`
      synchronise more than they compute; never process them data-parallel;
    * **load balance** — deferring at n_total/(BALANCE_FACTOR·p) yields at
      least ~BALANCE_FACTOR·p deferred subtrees by volume, enough for LPT
      to balance ("the load balance can be improved with the presence of a
      large number of such nodes"), while deferring as early as balance
      allows maximises the work done without per-node synchronisation.

    A deferred task larger than the owner's memory is charged the
    streaming I/O of an out-of-core sequential build; that penalty is
    bounded (2 transfers per record per subtree level, fewer passes than
    the data-parallel path), so memory does not cap the threshold — it
    merely dampens the benefit, which the balance factor's conservatism
    absorbs.

    n_switch = max(floor, n_total/(BALANCE_FACTOR·p)); returned in the
    paper's units (intervals), clamped to [1, q_root/2] so the root always
    runs at least one data-parallel level.
    """
    if n_total <= 0:
        return 1
    floor = break_even_node_size(schema, network, disk, compute, n_ranks)
    balance = n_total / (BALANCE_FACTOR * max(n_ranks, 1))
    n_switch = max(floor, balance)
    q_star = int(round(clouds.q_root * n_switch / n_total))
    return max(1, min(q_star, clouds.q_root // 2))
