"""pCLOUDS: the parallel out-of-core decision-tree classifier
(Section 5 of the paper).

The tree is built with **mixed parallelism**:

* **Large nodes** (interval count above the switch threshold) are
  processed with *data parallelism*: every processor keeps its random
  share of the node's records on its own disk, builds local interval
  statistics in one pass, the statistics are combined with the replicated
  attribute-based exchange, alive intervals are evaluated with the
  single-assignment approach, and each processor partitions its local
  share — the I/O stays local and uniform, so load balance is near
  perfect (Lemma 2). A streaming partition pass also folds both
  children's statistics (:class:`~repro.clouds.nodestats.FoldedStats`,
  carried on the child's ``_LargeTask``), so a node whose parent
  streamed skips its statistics pass; the root, a checkpoint-restored
  frontier and the children of in-core nodes still make one. The large
  nodes of one breadth-first level run in consecutive batches sized to
  the rank's buffer pool, each batch paying one set of collectives; a
  batch of one is the paper's per-node cycle.
* **Small nodes** are deferred until every large node is done, then
  handled with *delayed task parallelism*: cost-based assignment of whole
  nodes to processors, one batched redistribution, local in-memory exact
  builds.

Every rank executes the same driver loop over the same (globally known)
node metadata, so the SPMD control flow never diverges; only the local
fragments differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import Cluster, RankContext, SpmdRun
from repro.clouds.builder import node_boundaries
from repro.clouds.gini import gini_from_counts
from repro.clouds.intervals import class_counts, scale_q
from repro.clouds.nodestats import FoldedStats
from repro.clouds.tree import DecisionTree, TreeNode, decode_node
from repro.data.schema import Schema
from repro.ooc.columnset import ColumnSet

from .access import open_node

# the one-node forms of the batch steps (evaluate_alive_parallel,
# exchange_node_stats) stay importable here: perfbench/layers.py wraps them
from .alive import evaluate_alive_level, evaluate_alive_parallel  # noqa: F401
from .checkpoint import CheckpointStore, run_observed
from .config import PCloudsConfig
from .dataset import DistributedDataset
from .small_tasks import SmallTask, process_small_tasks
from .stats_exchange import exchange_level_stats, exchange_node_stats  # noqa: F401
from .switching import auto_q_switch

__all__ = ["PClouds", "PCloudsResult", "apportion_sample", "fit_tree_program"]


@dataclass
class _LargeTask:
    node_id: int
    depth: int
    columnset: ColumnSet
    sample_cols: dict[str, np.ndarray]
    sample_labels: np.ndarray
    counts: np.ndarray  # global class counts (identical on every rank)
    #: this rank's statistics of the node, folded by its parent's
    #: streaming partition pass; None means the node makes a stats pass
    folded: FoldedStats | None = None


@dataclass
class PCloudsResult:
    """Outcome of one parallel fit."""

    tree: DecisionTree
    elapsed: float  # simulated seconds (max over ranks)
    run: SpmdRun
    n_large_nodes: int
    n_small_tasks: int
    survival_ratios: list[float] = field(default_factory=list)
    #: per-rank event streams when the fit ran with ``trace=True``
    tracers: list | None = None
    #: failed attempts replayed from checkpoints (``fit(recover=True)``)
    n_restarts: int = 0
    #: faults fired by the injector, in firing order (``fit(faults=...)``)
    fault_events: list = field(default_factory=list)
    #: merged metrics registry when the fit ran with ``metrics=True``
    metrics: object | None = None
    #: online health roll-up (imbalance / I/O amplification / cost drift)
    health: object | None = None

    def metrics_snapshot(self) -> dict:
        """JSON-ready merged metrics (requires ``fit(..., metrics=True)``);
        includes the health roll-up under ``"health"``."""
        if self.metrics is None:
            raise ValueError("fit was not metered; pass metrics=True to fit()")
        snap = self.metrics.snapshot()
        if self.health is not None:
            snap["health"] = self.health.to_dict()
        return snap

    def prometheus(self) -> str:
        """Prometheus text exposition of the merged metrics."""
        if self.metrics is None:
            raise ValueError("fit was not metered; pass metrics=True to fit()")
        from repro.obs.prometheus import to_prometheus

        return to_prometheus(self.metrics)

    def health_markdown(self) -> str:
        """The ``repro health`` markdown report for this fit."""
        if self.health is None:
            raise ValueError("fit was not metered; pass metrics=True to fit()")
        from repro.obs.report import render_health_markdown

        return render_health_markdown(self.health)

    def trace_report(self):
        """Roll-up of the traced run (requires ``fit(..., trace=True)``)."""
        if self.tracers is None:
            raise ValueError("fit was not traced; pass trace=True to fit()")
        from repro.cluster.tracereport import TraceReport

        return TraceReport.from_tracers(self.tracers)

    def phase_time(self, phase: str) -> float:
        """Max-over-ranks simulated time attributed to one phase."""
        return max((pt.get(phase, 0.0) for pt in self.run.phase_times), default=0.0)

    @property
    def phases(self) -> dict[str, float]:
        keys = {k for pt in self.run.phase_times for k in pt}
        return {k: self.phase_time(k) for k in sorted(keys)}


class PClouds:
    """Parallel CLOUDS classifier over a simulated shared-nothing machine."""

    def __init__(self, config: PCloudsConfig | None = None) -> None:
        self.config = config or PCloudsConfig()

    def fit(
        self,
        dataset: DistributedDataset,
        seed: int = 0,
        *,
        trace: bool = False,
        faults=None,
        recover: bool = False,
        max_restarts: int = 8,
        metrics: bool = False,
        health=None,
    ) -> PCloudsResult:
        """Build the decision tree for a distributed training set.

        Consumes the dataset's disk fragments (children overwrite parents
        exactly as on the real machine); create a fresh
        :class:`DistributedDataset` to fit again.

        ``trace=True`` runs the fit under per-rank event tracing
        (collectives, point-to-point, disk accesses, phases); the event
        streams land on :attr:`PCloudsResult.tracers` and roll up via
        :meth:`PCloudsResult.trace_report`.

        ``faults`` arms deterministic fault injection: a
        :class:`~repro.cluster.faults.FaultPlan` (or pre-built
        :class:`~repro.cluster.faults.FaultInjector`) whose crashes,
        transient disk errors, chunk corruptions and stragglers replay
        identically for a given ``(plan, seed)``. Fired faults land on
        :attr:`PCloudsResult.fault_events` and — when also tracing — in
        the trace as ``fault`` events.

        ``recover=True`` checkpoints the build state to rank-0's disk at
        every frontier level and, when an attempt dies with
        :class:`~repro.cluster.errors.SpmdProgramError`, restarts from
        the latest readable checkpoint (up to ``max_restarts`` times).
        The recovered tree is bit-identical to the fault-free tree; the
        reported ``elapsed`` includes the simulated time lost to the
        failed attempts and to checkpoint traffic.

        ``metrics=True`` runs the fit under the live metrics registry and
        online health monitor (:mod:`repro.obs`): collective/disk/phase
        counters land on :attr:`PCloudsResult.metrics`, the per-level
        imbalance / I/O-amplification / cost-drift indicators on
        :attr:`PCloudsResult.health`. ``health`` overrides the alert
        thresholds (a :class:`~repro.obs.health.HealthThresholds`).
        Metering never advances a simulated clock, so the tree and the
        elapsed time are bit-identical to an unmetered fit.
        """
        obs = run_observed(
            dataset,
            _fit_program,
            dataset.columnsets,
            dataset.schema,
            self.config,
            dataset.n_total,
            seed,
            seed=seed,
            trace=trace,
            faults=faults,
            recover=recover,
            max_restarts=max_restarts,
            metrics=metrics,
            health=health,
        )
        run = obs.run
        payload = run.results[0]
        tree = DecisionTree(
            root=payload["root"],
            schema=dataset.schema,
            meta={"builder": "pclouds", "n_ranks": dataset.n_ranks},
        )
        health_report = None
        if obs.monitor is not None:
            from repro.obs.health import HealthReport

            health_report = HealthReport.from_monitor(
                obs.monitor,
                meta={
                    "n_ranks": dataset.n_ranks,
                    "seed": seed,
                    "exchange": self.config.exchange,
                    "q_switch": self.config.q_switch,
                    "restarts": obs.restarts,
                    "elapsed_s": obs.elapsed,
                },
            )
        return PCloudsResult(
            tree=tree,
            elapsed=obs.elapsed,
            run=run,
            n_large_nodes=payload["n_large"],
            n_small_tasks=payload["n_small"],
            survival_ratios=payload["survival"],
            tracers=obs.tracers,
            n_restarts=obs.restarts,
            fault_events=obs.fault_events,
            metrics=obs.registry,
            health=health_report,
        )


# -- the SPMD program -------------------------------------------------------


def apportion_sample(sample_size: int, counts: list[int]) -> list[int]:
    """Largest-remainder apportionment of the global sample over ranks.

    Returns per-rank draw sizes proportional to the ranks' local row
    counts with ``sum(out) == min(sample_size, sum(counts))`` exactly and
    ``out[r] <= counts[r]`` everywhere. Independent per-rank rounding
    (the old ``int(round(...))``) drifted from the requested sample size
    by up to p/2 records. Ties go to the lowest rank, so every rank
    computes the identical apportionment from the allgathered counts.
    """
    total = sum(counts)
    if total <= 0:
        return [0] * len(counts)
    want = min(int(sample_size), total)
    quotas = [want * c / total for c in counts]
    out = [min(int(q), c) for q, c in zip(quotas, counts)]
    deficit = want - sum(out)
    if deficit > 0:
        # one descending argsort over the fractional remainders replaces
        # the O(p²) repeated-max top-up: no rank is ever topped up twice
        # (remainders are < 1), and the stable sort on the negated
        # remainders keeps ties going to the lowest rank
        remainders = np.array(quotas) - np.array(out, dtype=np.float64)
        for r in np.argsort(-remainders, kind="stable"):
            if deficit == 0:
                break
            r = int(r)
            if out[r] < counts[r]:
                out[r] += 1
                deficit -= 1
    return out


def _root_preprocess(
    ctx: RankContext,
    cs: ColumnSet,
    schema: Schema,
    sample_size: int,
    n_total: int,
    seed: int,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Preprocessing (Section 5, step 1): draw the random sample and count
    classes in one local pass, then replicate the sample everywhere.

    The replicated sample is partitioned alongside the data at every
    split, so interval boundaries are later derived without communication.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17, ctx.rank]))
    local_rows = ctx.comm.allgather(int(cs.nrows))
    want_local = apportion_sample(sample_size, local_rows)[ctx.rank]
    n = cs.nrows
    pick = (
        np.sort(rng.choice(n, size=min(want_local, n), replace=False))
        if n
        else np.empty(0, dtype=np.int64)
    )
    counts = np.zeros(schema.n_classes, dtype=np.int64)
    got_cols: dict[str, list] = {a.name: [] for a in schema}
    got_labels: list[np.ndarray] = []
    base = 0
    for batch, labels in cs.iter_batches():
        counts += class_counts(labels, schema.n_classes)
        local = pick[(pick >= base) & (pick < base + len(labels))] - base
        if len(local):
            for name in got_cols:
                got_cols[name].append(batch[name][local])
            got_labels.append(labels[local])
        base += len(labels)
        ctx.charge_compute(ops=len(labels))
    local_sample_cols = {
        name: (
            np.concatenate(chunks)
            if chunks
            else np.empty(0, dtype=schema.attribute(name).dtype)
        )
        for name, chunks in got_cols.items()
    }
    local_sample_labels = (
        np.concatenate(got_labels) if got_labels else np.empty(0, dtype=np.int64)
    )

    total = ctx.comm.allreduce(counts)
    gathered = ctx.comm.allgather((local_sample_cols, local_sample_labels))
    sample_cols = {
        name: np.concatenate([g[0][name] for g in gathered]) for name in got_cols
    }
    sample_labels = np.concatenate([g[1] for g in gathered])
    return sample_cols, sample_labels, total


def _save_checkpoint(
    ctx: RankContext,
    store: CheckpointStore,
    label: str,
    level: int,
    frontier: list[_LargeTask],
    small: list[SmallTask],
    nodes: dict[int, dict],
    survival: list[float],
    n_large: int,
) -> None:
    """Checkpoint the full build state to rank-0's disk (one collective).

    Every rank reads its local fragments back (charged, CRC-verified —
    corruption written in the previous level is caught *here* rather than
    poisoning the checkpoint) and gathers them at rank 0, which persists
    one blob. Replicated state (sample points, class counts, finished
    nodes) is stored once, from rank 0's copy.
    """
    ctx.timer.start("checkpoint")
    local = {
        "frontier": [t.columnset.read_all() for t in frontier],
        "small": [s.columnset.read_all() for s in small],
    }
    gathered = ctx.comm.gather(local, root=0)
    if ctx.rank == 0:
        shared = {
            "level": level,
            "nodes": nodes,
            "survival": list(survival),
            "n_large": n_large,
            "frontier": [
                {
                    "node_id": t.node_id,
                    "depth": t.depth,
                    "counts": t.counts,
                    "sample_cols": t.sample_cols,
                    "sample_labels": t.sample_labels,
                }
                for t in frontier
            ],
            "small": [
                {
                    "node_id": s.node_id,
                    "depth": s.depth,
                    "n_global": s.n_global,
                    "class_counts": s.class_counts,
                }
                for s in small
            ],
        }
        # pickled immediately, so later mutation of nodes/survival on
        # rank 0 cannot leak into the snapshot
        store.save(ctx.disk, label, {"shared": shared, "per_rank": gathered})


def _restore_checkpoint(
    ctx: RankContext, store: CheckpointStore, schema: Schema
) -> tuple[dict, list[_LargeTask], list[SmallTask]] | None:
    """Rebuild the build state from the latest readable checkpoint.

    Collective: rank 0 loads the blob, broadcasts the replicated state
    and scatters each rank its fragments, which are rewritten to the
    local disks at the default chunk granularity (the layout a fault-free
    fragment has). Returns ``None`` when no checkpoint is
    readable — the caller restarts from scratch (the initial fragments
    are only consumed after the first checkpoint exists, so a from-zero
    restart always finds them intact).
    """
    loaded = store.load_latest(ctx.disk) if ctx.rank == 0 else None
    shared = ctx.comm.bcast(loaded[1]["shared"] if loaded is not None else None, root=0)
    if shared is None:
        return None
    frags = ctx.comm.scatter(
        loaded[1]["per_rank"] if ctx.rank == 0 else None, root=0
    )
    frontier = [
        _LargeTask(
            node_id=meta["node_id"],
            depth=meta["depth"],
            columnset=ColumnSet.from_arrays(
                ctx.disk,
                schema,
                cols,
                labels,
                name=f"r{ctx.rank}/ckpt-node{meta['node_id']}",
            ),
            sample_cols=meta["sample_cols"],
            sample_labels=meta["sample_labels"],
            counts=meta["counts"],
        )
        for meta, (cols, labels) in zip(shared["frontier"], frags["frontier"])
    ]
    small = [
        SmallTask(
            node_id=meta["node_id"],
            depth=meta["depth"],
            n_global=meta["n_global"],
            class_counts=meta["class_counts"],
            columnset=ColumnSet.from_arrays(
                ctx.disk,
                schema,
                cols,
                labels,
                name=f"r{ctx.rank}/ckpt-small{meta['node_id']}",
            ),
        )
        for meta, (cols, labels) in zip(shared["small"], frags["small"])
    ]
    return shared, frontier, small


def _fit_program(
    ctx: RankContext,
    columnsets: list[ColumnSet],
    schema: Schema,
    config: PCloudsConfig,
    n_total: int,
    seed: int,
    store: CheckpointStore | None = None,
    resume: bool = False,
) -> dict | None:
    return fit_tree_program(
        ctx, columnsets[ctx.rank], schema, config, n_total, seed,
        store=store, resume=resume,
    )


def fit_tree_program(
    ctx: RankContext,
    cs: ColumnSet,
    schema: Schema,
    config: PCloudsConfig,
    n_total: int,
    seed: int,
    store: CheckpointStore | None = None,
    resume: bool = False,
) -> dict | None:
    """The SPMD body of one pCLOUDS tree build over ``ctx.comm``.

    Everything flows through ``ctx`` — when ``ctx`` is a
    :class:`~repro.cluster.machine.GroupContext` the same program fits a
    tree inside a rank *group* (the forest's tree-parallel regime),
    gathering the assembled tree at the group's rank 0. Consumes ``cs``.
    """
    cfg = config.clouds
    stopping = cfg.stopping()
    q_switch = (
        auto_q_switch(
            schema, cfg, ctx.comm._world.network, ctx.disk.model,
            ctx.compute, ctx.size, n_total,
        )
        if config.q_switch == "auto"
        else config.q_switch
    )

    nodes: dict[int, dict] = {}
    small: list[SmallTask] = []
    survival: list[float] = []
    n_large = 0
    level = 0
    restored = None
    if resume and store is not None:
        ctx.timer.start("recover")
        restored = _restore_checkpoint(ctx, store, schema)
    if restored is not None:
        shared, frontier, small = restored
        # broadcast passes objects by reference between the rank threads:
        # copy the containers each rank will mutate (their values stay
        # shared and are treated as read-only by the build)
        nodes = dict(shared["nodes"])
        survival = list(shared["survival"])
        n_large = int(shared["n_large"])
        level = int(shared["level"])
    else:
        ctx.timer.start("preprocess")
        sample_cols, sample_labels, root_counts = _root_preprocess(
            ctx, cs, schema, cfg.sample_size, n_total, seed
        )
        frontier = [
            _LargeTask(
                node_id=0,
                depth=0,
                columnset=cs,
                sample_cols=sample_cols,
                sample_labels=sample_labels,
                counts=root_counts,
            )
        ]

    # breadth-first over frontier levels: the same visit order as a FIFO
    # queue, but with a level boundary where the build state is compact
    # enough to checkpoint
    while frontier:
        if store is not None:
            _save_checkpoint(
                ctx, store, f"level-{level}", level,
                frontier, small, nodes, survival, n_large,
            )
        if ctx.observers:
            # live bytes at level start feed the I/O-amplification
            # indicator; checkpoint traffic (above) stays outside the level.
            # The communicator names the rank group the tree is fitted
            # over, so health compares each level among those ranks, and
            # a forest member's rows carry its tree index
            ctx.notify(
                "begin_level",
                level,
                len(frontier),
                sum(t.columnset.nbytes for t in frontier),
                ctx.comm.label,
                ctx.size,
                ctx.tree,
            )
        survival_mark = len(survival)
        frontier, n_processed = _process_level(
            ctx, frontier, schema, config, stopping, q_switch,
            n_total, nodes, small, survival,
        )
        n_large += n_processed
        if ctx.observers:
            ctx.notify("on_survival", level, survival[survival_mark:])
            ctx.notify("end_level")
        level += 1

    # one last checkpoint so a crash in the small-node phase does not
    # rewind into the frontier levels
    if store is not None:
        _save_checkpoint(
            ctx, store, "small", level, [], small, nodes, survival, n_large
        )

    # delayed task parallelism for the accumulated small nodes
    ctx.timer.start("small_nodes")
    subtrees = process_small_tasks(ctx, small, schema, config)
    ctx.timer.stop()

    # assembly at rank 0 (the pruning/serving host)
    gathered = ctx.comm.gather(subtrees, root=0)
    if ctx.rank != 0:
        return None
    merged: dict[int, dict] = {}
    for d in gathered:
        merged.update(d)
    root = _assemble(0, nodes, merged)
    _renumber(root)
    return {
        "root": root,
        "n_large": n_large,
        "n_small": len(small),
        "survival": survival,
    }


def _process_level(
    ctx: RankContext,
    frontier: list[_LargeTask],
    schema: Schema,
    config: PCloudsConfig,
    stopping,
    q_switch: int,
    n_total: int,
    nodes: dict[int, dict],
    small: list[SmallTask],
    survival: list[float],
) -> tuple[list[_LargeTask], int]:
    """One frontier level: leaves and small nodes peel off, and the large
    nodes run steps 1-3 of Section 5 in consecutive pool-sized batches
    (:func:`_pool_batches`, :func:`_process_batch`).

    Mutates ``nodes``/``small``/``survival`` in frontier order and
    returns ``(next_frontier, n_large_processed)``.
    """
    cfg = config.clouds
    large: list[_LargeTask] = []
    qs: list[int] = []
    for t in frontier:
        n = int(t.counts.sum())
        if stopping.is_leaf(t.counts, t.depth):
            nodes[t.node_id] = {
                "kind": "leaf", "counts": t.counts, "depth": t.depth
            }
            t.columnset.delete()
            continue
        q = scale_q(cfg.q_root, n, n_total)
        if q <= q_switch:
            nodes[t.node_id] = {
                "kind": "small", "counts": t.counts, "depth": t.depth
            }
            small.append(
                SmallTask(
                    node_id=t.node_id,
                    depth=t.depth,
                    n_global=n,
                    class_counts=t.counts,
                    columnset=t.columnset,
                )
            )
            continue
        large.append(t)
        qs.append(q)
    next_frontier: list[_LargeTask] = []
    for lo, hi in _pool_batches(ctx, large, schema):
        next_frontier += _process_batch(
            ctx, large[lo:hi], qs[lo:hi], schema, config, nodes, survival
        )
    return next_frontier, len(large)


def _pool_batches(
    ctx: RankContext, large: list[_LargeTask], schema: Schema
) -> list[tuple[int, int]]:
    """Cut a level's large nodes into consecutive ``[lo, hi)`` batches
    whose estimated per-rank bytes fit the rank's buffer pool together.

    A node's estimate is ``ceil(n / p)`` rows, from the global class
    counts every rank holds, so every rank cuts the same batches without
    a collective. A batch closes when the next node would push its total
    over the pool capacity; a node the pool cannot share with another
    node is a batch of one. Without a pool the whole level is one batch.
    """
    if not large:
        return []
    pool = ctx.disk.pool
    if pool is None:
        return [(0, len(large))]
    row = schema.row_nbytes()
    cuts: list[tuple[int, int]] = []
    lo, held = 0, 0
    for i, t in enumerate(large):
        nbytes = -(-int(t.counts.sum()) // ctx.size) * row
        if i > lo and held + nbytes > pool.capacity:
            cuts.append((lo, i))
            lo, held = i, 0
        held += nbytes
    cuts.append((lo, len(large)))
    return cuts


def _process_batch(
    ctx: RankContext,
    batch: list[_LargeTask],
    qs: list[int],
    schema: Schema,
    config: PCloudsConfig,
    nodes: dict[int, dict],
    survival: list[float],
) -> list[_LargeTask]:
    """Steps 1-3 of Section 5, fused across a batch of large nodes: the
    collectives are **one** stats alltoall, **one** k-way boundary
    election, **one** alive allgather, **one** member alltoall, **one**
    k-way interior election and **one** allreduce of the stacked per-node
    left-count matrix — constant in the batch size. A node's split does
    not depend on which nodes share its batch (same combines, same
    tie-break keys, same partitions), so the tree does not either.

    Returns the children of the batch's split nodes, in batch order.
    """
    counts_list = [t.counts for t in batch]
    accesses = []
    try:
        # (1) every node's local stats pass back-to-back, then one
        # batched exchange
        ctx.timer.start("stats")
        locals_list = []
        for t, q in zip(batch, qs):
            bounds = node_boundaries(schema, t.sample_cols, q)
            access = open_node(ctx, t.columnset, schema, t.folded)
            t.folded = None
            accesses.append(access)
            locals_list.append(access.stats_pass(bounds))
        exchanged = exchange_level_stats(
            ctx, schema, locals_list, counts_list, config
        )
        boundary_splits = [s for s, _ in exchanged]
        alive_lists = [a for _, a in exchanged]

        # (2) alive evaluation over the batch's (node, interval) pool
        ctx.timer.start("alive")
        for t, alive in zip(batch, alive_lists):
            survival.append(
                sum(iv.count for iv in alive) / max(int(t.counts.sum()), 1)
            )
        splits = evaluate_alive_level(
            ctx, accesses, alive_lists, counts_list, schema, boundary_splits
        )
        for idx, t in enumerate(batch):
            if splits[idx] is not None and splits[idx].gini >= float(
                gini_from_counts(t.counts)
            ):
                splits[idx] = None
        splitting = [idx for idx in range(len(batch)) if splits[idx] is not None]

        # (3) all partition passes locally, closed by one allreduce of the
        # stacked per-node left-count matrix (skipped when the whole batch
        # went leaf — every rank agrees, the splits are replicated). A
        # streaming pass folds both children's statistics on the way
        children: dict[int, tuple[ColumnSet, ColumnSet]] = {}
        samples: dict[int, list[tuple[dict, np.ndarray]]] = {}
        folds: dict[int, tuple[FoldedStats, FoldedStats]] = {}
        left_matrix = None
        if splitting:
            ctx.timer.start("partition")
            locals_left = []
            for idx in splitting:
                t = batch[idx]
                smask = splits[idx].goes_left(t.sample_cols[splits[idx].attribute])
                samples[idx] = [
                    ({k: v[m] for k, v in t.sample_cols.items()}, t.sample_labels[m])
                    for m in (smask, ~smask)
                ]
                if accesses[idx].folds:
                    folds[idx] = tuple(
                        FoldedStats(schema, cols) for cols, _ in samples[idx]
                    )
                left_cs, right_cs, local_left = accesses[idx].partition(
                    splits[idx], folds.get(idx)
                )
                t.columnset.delete()
                children[idx] = (left_cs, right_cs)
                locals_left.append(local_left)
            left_matrix = ctx.comm.allreduce(np.stack(locals_left))
        ctx.timer.stop()
    finally:
        for access in accesses:
            access.release()

    row = {idx: r for r, idx in enumerate(splitting)}
    next_frontier: list[_LargeTask] = []
    for idx, t in enumerate(batch):
        split = splits[idx]
        if split is not None:
            left_counts = left_matrix[row[idx]]
            right_counts = t.counts - left_counts
            if left_counts.sum() == 0 or right_counts.sum() == 0:
                # globally degenerate split (cannot happen via the gini
                # machinery, but a malformed custom config should not
                # corrupt the tree)
                children[idx][0].delete()
                children[idx][1].delete()
                split = None
        if split is None:
            nodes[t.node_id] = {
                "kind": "leaf", "counts": t.counts, "depth": t.depth
            }
            if idx not in children:
                t.columnset.delete()
            continue
        nodes[t.node_id] = {
            "kind": "internal",
            "split": split,
            "counts": t.counts,
            "depth": t.depth,
        }
        fold = folds.get(idx, (None, None))
        for side, counts in enumerate((left_counts, right_counts)):
            next_frontier.append(
                _LargeTask(
                    node_id=2 * t.node_id + 1 + side,
                    depth=t.depth + 1,
                    columnset=children[idx][side],
                    sample_cols=samples[idx][side][0],
                    sample_labels=samples[idx][side][1],
                    counts=counts,
                    folded=fold[side],
                )
            )
    return next_frontier


# -- tree assembly -------------------------------------------------------------


def _assemble(node_id: int, nodes: dict[int, dict], subtrees: dict[int, dict]) -> TreeNode:
    rec = nodes[node_id]
    if rec["kind"] == "small":
        if node_id in subtrees:
            return decode_node(subtrees[node_id])
        # a small task with no surviving records anywhere: emit a leaf
        return TreeNode(
            node_id=node_id, depth=rec["depth"], class_counts=rec["counts"]
        )
    node = TreeNode(
        node_id=node_id, depth=rec["depth"], class_counts=rec["counts"]
    )
    if rec["kind"] == "internal":
        node.split = rec["split"]
        node.left = _assemble(2 * node_id + 1, nodes, subtrees)
        node.right = _assemble(2 * node_id + 2, nodes, subtrees)
    return node


def _renumber(root: TreeNode) -> None:
    """Depth-first sequential node ids over the assembled tree."""
    counter = 0
    stack = [root]
    while stack:
        node = stack.pop()
        node.node_id = counter
        counter += 1
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
