"""Closed-form cost models for the Section-3 techniques.

The paper reasons about the strategies analytically (redistribution is
"very expensive", concatenated parallelism "may lead to substantial I/O
overhead", startups dominate small tasks...). These formulas make that
reasoning executable: given the machine models and a divide-and-conquer
tree's shape, predict each strategy's cost — including the
**compute-independent parallel I/O** variant of task parallelism
(Section 3.1), which is modelled here rather than executed (its remote
reads would need a disk-service model the executors don't carry).

The `bench_strategies` analytic table cross-checks these predictions
against the simulator's measurements, which validates both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.compute import ComputeModel
from repro.cluster.diskmodel import DiskModel
from repro.cluster.network import NetworkModel

__all__ = [
    "DncCostModel",
    "TreeShape",
    "collective_cost",
    "observed_collective_cost",
    "exchange_stats_bytes",
    "exchange_cost",
    "startup_cost",
    "forest_regime_cost",
    "choose_forest_regime",
]


#: ops priced by the reduction row of Table 1 (alpha·log p + beta·m)
_COMBINE_OPS = frozenset(
    {"reduce", "allreduce", "allreduce_minloc", "allreduce_minloc_many"}
)
#: ops priced by the all-to-all broadcast row: ``split``'s colour
#: rendezvous is an allgather of one word per rank
_ALL_TO_ALL_BROADCAST_OPS = frozenset({"allgather", "vote", "split"})


def collective_cost(
    network: NetworkModel,
    op: str,
    *,
    p: int,
    m: float = 0.0,
    out_bytes: float = 0.0,
    in_bytes: float = 0.0,
) -> float:
    """Table-1 predicted cost of one collective primitive, by name.

    Maps the communicator's op vocabulary onto the paper's collective
    cost rows, exactly as :class:`repro.cluster.comm.Comm` charges them:
    ``m`` is the per-rank message size the row takes (max contribution
    for allgather/gather/scatter, the reduced vector for combines),
    while ``alltoall`` takes the rank's injected/drained byte totals.
    The health monitor (:mod:`repro.obs.health`) divides *observed*
    collective busy time by this prediction to compute cost-model
    drift; :class:`DncCostModel` builds its strategy estimates from the
    same rows, so drift is measured against the exact formulas the
    Section-3 analysis argues from.
    """
    if op == "barrier":
        return network.global_combine(0, p)
    if op == "bcast":
        return network.broadcast(m, p)
    if op in ("gather", "scatter"):
        return network.gather(m, p)
    if op in _ALL_TO_ALL_BROADCAST_OPS:
        return network.all_to_all_broadcast(m, p)
    if op in _COMBINE_OPS:
        return network.global_combine(m, p)
    if op == "scan":
        return network.prefix_sum(m, p)
    if op == "alltoall":
        return network.alltoallv(out_bytes, in_bytes, p)
    raise ValueError(f"no Table-1 cost row for collective {op!r}")


def observed_collective_cost(
    network: NetworkModel,
    op: str,
    *,
    p: int,
    sent: float,
    received: float,
    max_sent: float,
    max_received: float,
) -> float:
    """Table-1 cost of one rank's part in a collective, priced from the
    byte counters the communicator charged — the inverse of
    :class:`repro.cluster.comm.Comm`'s accounting.

    ``sent``/``received`` are this rank's counters for the call,
    ``max_sent``/``max_received`` the maxima over its participants: a
    row's ``m`` is the largest contribution for bcast, scatter, gather
    and the all-to-all broadcasts, the rank's own reduced vector for
    combines and scans, while ``alltoall`` takes the rank's totals. The
    health monitor's drift and the critical path's startup/bandwidth
    split both price observed collectives with it.
    """
    if op == "alltoall":
        return collective_cost(
            network, op, p=p, out_bytes=sent, in_bytes=received
        )
    if op in ("bcast", "scatter"):
        m = max_received
    elif op == "gather":
        m = max_sent
    elif op in _ALL_TO_ALL_BROADCAST_OPS:
        m = max_sent / (p - 1) if p > 1 else 0.0
    elif op == "barrier":
        m = 0.0
    else:  # combines, scans: every rank contributes the reduced vector
        m = sent
    return collective_cost(network, op, p=p, m=m)


def startup_cost(network: NetworkModel, op: str, *, p: int) -> float:
    """The startup (latency) column of the op's Table-1 row: its cost at
    zero payload. The critical-path profiler uses
    ``startup_cost / collective_cost`` to split an observed collective
    interval into startup vs. bandwidth blame; the ratio is invariant
    under uniform scaling of the machine model."""
    if op == "alltoall":
        return collective_cost(network, op, p=p, out_bytes=0.0, in_bytes=0.0)
    return collective_cost(network, op, p=p, m=0.0)


def _without_idle_vote(strategy: str, top_k: int | None, f: int) -> str:
    """Voting with ``top_k >= f`` would elect every attribute, so the
    exchange holds no vote and runs the attribute method."""
    if strategy == "voting" and top_k is not None and top_k >= f:
        return "attribute"
    return strategy


def exchange_stats_bytes(
    strategy: str,
    *,
    q: int,
    c: int,
    f: int,
    p: int,
    top_k: int | None = None,
    value_nbytes: int = 8,
) -> float:
    """Per-rank bytes one stats exchange injects into the network, by
    strategy, for ``q`` intervals × ``c`` classes × ``f`` attributes on
    ``p`` processors.

    The exact strategies ship the full O(q·c·f) statistics: the
    attribute-partitioned alltoalls keep each rank's own share local (a
    ``(p-1)/p`` factor), the naive allreduce pushes the whole vector
    through the combine. ``"voting"`` ships one (attribute, gini) ballot
    of ``top_k`` rows to every peer plus the alltoall restricted to the
    at most ``min(2·top_k, f)`` elected attributes — the O(f) → O(k)
    reduction the PV-Tree vote buys. With ``top_k >= f`` no vote is held
    and voting is priced as ``"attribute"``.
    """
    full = float(q) * c * f * value_nbytes
    frac = (p - 1) / p if p > 0 else 0.0
    strategy = _without_idle_vote(strategy, top_k, f)
    if strategy in ("attribute", "distributed"):
        return full * frac
    if strategy == "allreduce":
        return full
    if strategy == "voting":
        if top_k is None:
            raise ValueError("voting needs top_k")
        candidates = min(2 * top_k, f)
        ballots = min(top_k, f) * 2 * value_nbytes * max(p - 1, 0)
        return float(q) * c * candidates * value_nbytes * frac + ballots
    raise ValueError(f"unknown exchange strategy {strategy!r}")


def exchange_cost(
    network: NetworkModel,
    strategy: str,
    *,
    q: int,
    c: int,
    f: int,
    p: int,
    top_k: int | None = None,
    value_nbytes: int = 8,
) -> float:
    """Table-1 predicted time of one stats exchange, by strategy.

    ``"attribute"`` pays one alltoallv of the partitioned statistics
    plus the split election combine; ``"distributed"`` adds the parallel
    prefix sum that recovers block-base cumulative counts;
    ``"allreduce"`` is one global combine of everything; ``"voting"``
    pays the ballot all-to-all broadcast up front and then the
    attribute-partitioned alltoallv over only the elected candidates —
    or, with ``top_k >= f``, exactly what ``"attribute"`` pays.
    """
    w = value_nbytes
    frac = (p - 1) / p if p > 0 else 0.0
    election = network.global_combine(8.0, p)
    strategy = _without_idle_vote(strategy, top_k, f)
    if strategy == "attribute":
        b = q * c * f * w * frac
        return network.alltoallv(b, b, p) + election
    if strategy == "distributed":
        b = q * c * f * w * frac
        return (
            network.alltoallv(b, b, p)
            + network.prefix_sum(f * c * w, p)
            + election
        )
    if strategy == "allreduce":
        return network.global_combine(q * c * f * w, p) + election
    if strategy == "voting":
        if top_k is None:
            raise ValueError("voting needs top_k")
        candidates = min(2 * top_k, f)
        b = q * c * candidates * w * frac
        return (
            network.all_to_all_broadcast(min(top_k, f) * 2 * w, p)
            + network.alltoallv(b, b, p)
            + election
        )
    raise ValueError(f"unknown exchange strategy {strategy!r}")


@dataclass(frozen=True)
class TreeShape:
    """Shape summary of a binary divide-and-conquer tree over n records:
    at level d there are ~2^d tasks totalling n records (n_l + n_r = n),
    down to tasks of ``leaf_records``."""

    n_records: int
    leaf_records: int
    record_nbytes: int = 8
    split_ratio: float = 0.5

    @property
    def levels(self) -> int:
        """Depth until tasks reach leaf size (balanced-tree estimate for
        ratio 0.5; governed by the heavier side otherwise)."""
        if self.n_records <= self.leaf_records:
            return 0
        shrink = 1.0 / max(self.split_ratio, 1.0 - self.split_ratio)
        return max(1, math.ceil(
            math.log(self.n_records / self.leaf_records) / math.log(shrink)
        ))

    def tasks_at(self, level: int) -> int:
        return min(2**level, max(self.n_records // self.leaf_records, 1))

    @property
    def total_tasks(self) -> int:
        return sum(self.tasks_at(d) for d in range(self.levels + 1))


@dataclass(frozen=True)
class DncCostModel:
    """Predicts strategy costs for one machine + problem shape.

    All estimates assume a memory budget small enough that whole levels
    never fit (the out-of-core regime the paper addresses); per-task
    in-core crossover is handled with the ``in_core_level`` helper.
    """

    network: NetworkModel
    disk: DiskModel
    compute: ComputeModel
    n_ranks: int
    summary_nbytes: int = 24
    ops_per_record: float = 1.0

    # -- building blocks -----------------------------------------------------
    def level_bytes(self, shape: TreeShape) -> float:
        """Bytes per rank per level (all tasks of a level together hold
        the whole data set, randomly spread across ranks)."""
        return shape.n_records * shape.record_nbytes / self.n_ranks

    def pass_time(self, nbytes: float) -> float:
        """One streaming pass over nbytes of local data (read)."""
        return self.disk.access(int(nbytes))

    def level_compute(self, shape: TreeShape) -> float:
        return self.compute.cost(
            self.ops_per_record * shape.n_records / self.n_ranks
        )

    def in_core_level(self, shape: TreeShape, memory_limit: int | None) -> int:
        """First level at which one task's per-rank fragment fits in
        memory (data parallelism stops re-reading there)."""
        if memory_limit is None:
            return 0
        b = self.level_bytes(shape)
        level = 0
        while b > memory_limit and level < shape.levels:
            b /= 2.0
            level += 1
        return level

    # -- strategies ------------------------------------------------------------
    def data_parallel(self, shape: TreeShape, memory_limit: int | None = None) -> float:
        """Per level: summary pass + partition pass (+write), one combine
        per task; tasks that fit memory drop the second read."""
        t = 0.0
        cross = self.in_core_level(shape, memory_limit)
        for d in range(shape.levels):
            nbytes = self.level_bytes(shape)
            reads = 1 if d >= cross else 2
            t += reads * self.pass_time(nbytes) + self.pass_time(nbytes)  # + write
            t += 2 * self.level_compute(shape)
            t += shape.tasks_at(d) * 2 * self.network.global_combine(
                self.summary_nbytes, self.n_ranks
            )
        return t

    def concatenated(self, shape: TreeShape, memory_limit: int | None = None) -> float:
        """Same I/O structure but the level shares memory (aggregate never
        fits: always two reads) and one spooled combine per level."""
        t = 0.0
        for d in range(shape.levels):
            nbytes = self.level_bytes(shape)
            agg_fits = memory_limit is None or nbytes <= memory_limit
            reads = 1 if agg_fits else 2
            t += reads * self.pass_time(nbytes) + self.pass_time(nbytes)
            t += 2 * self.level_compute(shape)
            t += 2 * self.network.global_combine(
                self.summary_nbytes * shape.tasks_at(d), self.n_ranks
            )
        return t

    def task_parallel_compute_dependent(self, shape: TreeShape) -> float:
        """Group halving with redistribution: every level moves the data
        once (read + alltoall + write) until groups reach size one, then
        sequential levels follow."""
        t = 0.0
        split_levels = min(shape.levels, max(1, int(math.log2(self.n_ranks))))
        for d in range(shape.levels):
            nbytes = self.level_bytes(shape)
            t += 2 * self.pass_time(nbytes) + self.pass_time(nbytes)
            t += 2 * self.level_compute(shape)
            if d < split_levels:
                group = max(self.n_ranks >> d, 2)
                # redistribution: read children + ship + write at dest
                t += 2 * self.pass_time(nbytes)
                t += self.network.alltoallv(nbytes, nbytes, group)
                t += 2 * self.network.global_combine(self.summary_nbytes, group)
            # after the groups reach size one there is no communication
        return t

    def task_parallel_compute_independent(self, shape: TreeShape) -> float:
        """No redistribution: the data stays put, so a subgroup of size g
        processing a task must fetch the fraction held outside the group
        ((p-g)/p of the task) over the network every pass — the paper's
        compute-independent parallel I/O."""
        t = 0.0
        for d in range(shape.levels):
            nbytes_rank = self.level_bytes(shape)
            group = max(self.n_ranks >> min(d, 30), 1)
            remote_frac = 1.0 - group / self.n_ranks
            # local passes (2 reads + write) at each of the serving ranks,
            # plus shipping the remote fraction to the computing subgroup
            t += 3 * self.pass_time(nbytes_rank)
            t += 2 * self.level_compute(shape)
            remote_bytes = nbytes_rank * remote_frac * 2  # both passes
            t += self.network.p2p(remote_bytes)
            if group > 1:
                t += 2 * self.network.global_combine(self.summary_nbytes, group)
        return t

    def mixed(
        self,
        shape: TreeShape,
        switch_records: int,
        memory_limit: int | None = None,
    ) -> float:
        """Data parallelism down to ``switch_records``, then one
        redistribution plus balanced sequential building of the rest."""
        if switch_records >= shape.n_records:
            switch_level = 0
        else:
            switch_level = min(
                shape.levels,
                max(0, math.ceil(math.log2(shape.n_records / switch_records))),
            )
        upper = TreeShape(
            n_records=shape.n_records,
            leaf_records=max(switch_records, shape.leaf_records),
            record_nbytes=shape.record_nbytes,
            split_ratio=shape.split_ratio,
        )
        t = self.data_parallel(upper, memory_limit)
        # one batched exchange of everything below the switch
        nbytes = self.level_bytes(shape)
        t += 2 * self.pass_time(nbytes) + self.network.alltoallv(
            nbytes, nbytes, self.n_ranks
        )
        # remaining levels built sequentially but task-balanced across ranks
        remaining = max(shape.levels - switch_level, 0)
        per_level = self.pass_time(nbytes) + self.level_compute(shape)
        t += remaining * per_level
        return t


# -- forest regimes ------------------------------------------------------------


def forest_regime_cost(
    model: DncCostModel,
    shape: TreeShape,
    *,
    n_trees: int,
    n_groups: int,
    memory_limit: int | None = None,
    pool_bytes: int | None = None,
    copy_ratio: float = 50.0,
    stats_nbytes: int | None = None,
) -> float:
    """Predicted elapsed time of training ``n_trees`` bagged trees over
    one p-rank machine with ``n_groups`` disjoint rank groups building
    trees concurrently (the Section-3 trade-off replayed one level up).

    * ``n_groups == 1`` is **data parallelism**: all p ranks per tree,
      trees sequential. Each tree pays the per-level statistics exchange
      over the full machine — ``stats_nbytes`` should be the *actual*
      per-node payload (attributes x intervals x classes), which is what
      dominates and what grouping eliminates.
    * ``n_groups == G > 1`` is **tree/hybrid parallelism**: trees run
      ``G`` at a time on groups of ``p/G`` ranks. Fewer ranks per
      collective makes communication cheaper (none at all for gp=1), but
      each group rank holds a ``G×`` larger share of its tree's bag, so
      the fit streams more. Bags must also be redistributed onto their
      owner group (one alltoallv per tree).

    ``pool_bytes`` is credited on both sides: bag-derivation rescans of a
    pool-resident base fragment become memory copies, and fit levels
    whose fragments fit the pool drop their second read (the pool serves
    the re-read, so for read counting it acts as extra memory).

    The returned figure is a Table-1-style analytic estimate for regime
    *ranking*, not a forecast of the simulator's exact elapsed time.
    """
    p = model.n_ranks
    if n_groups < 1 or p % n_groups != 0:
        raise ValueError(f"n_groups={n_groups} must divide n_ranks={p}")
    if n_trees < 1:
        raise ValueError(f"need at least one tree, got {n_trees}")
    gp = p // n_groups
    waves = math.ceil(n_trees / n_groups)
    base_rank_bytes = shape.n_records * shape.record_nbytes / p

    # bag derivation: every tree scans the base spool once; with a pool
    # large enough to keep the base fragment resident, scans after the
    # first within a wave window are served as memory copies
    scan = model.pass_time(base_rank_bytes)
    copy = base_rank_bytes / (copy_ratio * model.disk.bandwidth)
    pooled = pool_bytes is not None and base_rank_bytes <= pool_bytes
    derive = scan + (n_trees - 1) * (copy if pooled else scan)
    # writing each bag fragment back to local disk (bag size == n)
    derive += n_trees * model.pass_time(base_rank_bytes)
    if n_groups > 1:
        # ship each bag onto its owner group's ranks
        derive += n_trees * model.network.alltoallv(
            base_rank_bytes, base_rank_bytes * n_groups, p
        )

    # fitting: each wave runs G concurrent data-parallel fits over gp
    # ranks; per-group-rank fragments are G× larger than the base share
    group_model = DncCostModel(
        network=model.network,
        disk=model.disk,
        compute=model.compute,
        n_ranks=gp,
        summary_nbytes=(
            model.summary_nbytes if stats_nbytes is None else stats_nbytes
        ),
        ops_per_record=model.ops_per_record,
    )
    # the pool serves re-reads of resident fragments, so it counts as
    # memory for the purpose of dropping a level's second read
    fit_limit = max(memory_limit or 0, pool_bytes or 0) or None
    fit = waves * group_model.data_parallel(shape, fit_limit)
    return derive + fit


def choose_forest_regime(
    model: DncCostModel,
    shape: TreeShape,
    *,
    n_trees: int,
    memory_limit: int | None = None,
    pool_bytes: int | None = None,
    copy_ratio: float = 50.0,
    stats_nbytes: int | None = None,
) -> tuple[int, dict[int, float]]:
    """Pick the cheapest group count for a forest: evaluates
    :func:`forest_regime_cost` at every divisor of p up to
    ``min(n_trees, p)`` and returns ``(best_n_groups, {G: cost})``.
    Ties go to the smaller G (less redistribution machinery)."""
    p = model.n_ranks
    candidates = [g for g in range(1, min(n_trees, p) + 1) if p % g == 0]
    costs = {
        g: forest_regime_cost(
            model, shape, n_trees=n_trees, n_groups=g,
            memory_limit=memory_limit, pool_bytes=pool_bytes,
            copy_ratio=copy_ratio, stats_nbytes=stats_nbytes,
        )
        for g in candidates
    }
    best = min(costs, key=lambda g: (costs[g], g))
    return best, costs
