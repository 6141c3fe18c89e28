"""Parallel out-of-core random-forest trainer over one distributed spool.

``B`` bagged trees are trained against a single
:class:`~repro.core.dataset.DistributedDataset` **without ever
duplicating the base data**: bags exist as per-tree multiplicity
vectors over global row ids (:mod:`repro.forest.bagging`), and each
tree's physical bag fragments are derived by streaming the base spool
once and routing replicated rows to the ranks of the group that owns
the tree. The base spool is only ever *read* — after the fit it is
intact and a second forest (or a single-tree fit) can run over it.

Scheduling follows :mod:`repro.forest.regimes`: the machine splits into
``n_groups`` equal rank groups (``Comm.split``), trees are assigned
round-robin (tree ``t`` belongs to group ``t % n_groups``) and the fit
proceeds in ``ceil(B / n_groups)`` waves. Within a wave every group runs
the *same* single-tree SPMD program
(:func:`repro.core.pclouds.fit_tree_program`) over its own
sub-communicator, wrapped in a :class:`~repro.cluster.machine.GroupContext`
whose phase prefix (``tree3/stats`` ...) keeps per-tree critical-path
blame separable.

The perf payload is the **cross-tree shared buffer pool**: all groups
on a rank share that rank's chunk cache, and a wave derives its bags
back-to-back — so with a warm pool, ``B`` near-identical scans of the
base spool collapse towards one cold scan plus cached re-reads.
:meth:`PForest.fit` accounts this exactly via the pool's
``cross_tree_hits`` counters (chunks admitted while another tree was
the pool's consumer, see ``BufferPool.begin_tree``).

**Bit-identity.** The CLOUDS-SSE tree is a function of its training
*multiset* only, and a bag's multiset is fixed by ``(forest seed, tree
index, n_total)`` alone — so every member is bit-identical to training
it standalone with its spawned ``fit_seed``, across regimes, rank
counts and exchange strategies (pinned in ``tests/test_forest.py``).

Crash recovery mirrors :class:`~repro.core.pclouds.PClouds`: the unit
is one *wave* — rank 0 checkpoints the JSON-encoded finished trees
after every wave, and a restarted attempt re-derives and re-fits only
the unfinished ones (recovered members stay bit-identical).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.machine import GroupContext, RankContext, SpmdRun
from repro.clouds.forest import DecisionForest
from repro.clouds.tree import (
    DecisionTree,
    TreeNode,
    _json_nesting_depth,
    _recursion_headroom,
    decode_node,
    encode_node,
)
from repro.core.checkpoint import CheckpointStore, run_observed
from repro.core.config import PCloudsConfig
from repro.core.dataset import DistributedDataset
from repro.core.pclouds import fit_tree_program
from repro.data.schema import Schema
from repro.dnc.cost import DncCostModel, TreeShape
from repro.ooc.columnset import ChunkWriter, ColumnSet

from .bagging import TreeSeeds, bag_multiplicities, spawn_tree_seeds
from .regimes import REGIMES, resolve_n_groups

__all__ = ["ForestConfig", "ForestResult", "PForest"]


@dataclass(frozen=True)
class ForestConfig:
    """Configuration of one parallel forest fit."""

    #: number of bagged member trees (``B``)
    n_trees: int = 8
    #: the single-tree builder every member runs under
    pclouds: PCloudsConfig = field(default_factory=PCloudsConfig)
    #: scheduler regime: ``"data"`` (all ranks per tree, trees
    #: sequential), ``"tree"`` (max concurrent groups), ``"hybrid"``
    #: (explicit/middle group count), ``"auto"`` (cost-model pick)
    regime: str = "auto"
    #: explicit group count for ``regime="hybrid"`` (``None`` = middle
    #: divisor); ignored by the other regimes
    n_groups: int | None = None

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.regime not in REGIMES:
            raise ValueError(
                f"unknown regime {self.regime!r}; expected one of {REGIMES}"
            )


@dataclass
class ForestResult:
    """Outcome of one parallel forest fit."""

    forest: DecisionForest
    elapsed: float  # simulated seconds (max over ranks, incl. failed attempts)
    run: SpmdRun
    n_groups: int
    n_waves: int
    #: candidate group count -> modelled cost (regime="auto" only)
    regime_costs: dict[int, float] = field(default_factory=dict)
    #: per tree: ``{"tree", "elapsed", "n_large", "n_small"}`` —
    #: ``elapsed`` is the max-over-ranks fit span (0.0 for members
    #: restored from a checkpoint rather than refitted)
    tree_stats: list[dict] = field(default_factory=list)
    #: run-wide buffer-pool deltas: ``hits`` / ``cross_tree_hits`` /
    #: ``cross_tree_hit_bytes`` / ``cross_tree_hit_rate`` plus the
    #: raw ``per_rank`` dicts
    cross_tree: dict = field(default_factory=dict)
    #: per-rank disk bytes read during the fit (base-spool scans + bag
    #: and builder traffic); the bench's read-reduction ratio compares
    #: these totals pool-on vs pool-off
    disk_read_bytes: list[int] = field(default_factory=list)
    tracers: list | None = None
    n_restarts: int = 0
    fault_events: list = field(default_factory=list)
    metrics: object | None = None
    health: object | None = None

    def metrics_snapshot(self) -> dict:
        """JSON-ready merged metrics (requires ``fit(metrics=True)``);
        includes the health roll-up under ``"health"``."""
        if self.metrics is None:
            raise ValueError("fit was not metered; pass metrics=True to fit()")
        snap = self.metrics.snapshot()
        if self.health is not None:
            snap["health"] = self.health.to_dict()
        return snap

    def phase_time(self, phase: str) -> float:
        """Max-over-ranks simulated time attributed to one phase (phases
        are per-tree prefixed: ``tree0/stats``, ``tree3/bag``, ...)."""
        return max((pt.get(phase, 0.0) for pt in self.run.phase_times), default=0.0)

    @property
    def phases(self) -> dict[str, float]:
        keys = {k for pt in self.run.phase_times for k in pt}
        return {k: self.phase_time(k) for k in sorted(keys)}

    def tree_phases(self, tree: int) -> dict[str, float]:
        """One member's slice of the phase profile (critical-path blame
        per tree): phase name without the ``tree<t>/`` prefix -> max-
        over-ranks seconds."""
        prefix = f"tree{tree}/"
        return {
            k[len(prefix):]: v
            for k, v in self.phases.items()
            if k.startswith(prefix)
        }


class PForest:
    """Bagged-forest trainer over a simulated shared-nothing machine."""

    def __init__(self, config: ForestConfig | None = None) -> None:
        self.config = config or ForestConfig()

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
    ) -> ForestResult:
        """Train ``config.n_trees`` bagged trees over ``dataset``.

        Unlike :meth:`PClouds.fit` this does **not** consume the
        dataset's fragments — bags are derived spools and the base data
        survives the fit. The keyword surface mirrors ``PClouds.fit``:
        ``trace`` / ``faults`` / ``recover`` / ``metrics`` go through
        the same :func:`~repro.core.checkpoint.run_observed`, and
        metering never perturbs the simulated clocks, so a metered
        forest is bit-identical to an unmetered one.
        """
        cfg = self.config
        B = cfg.n_trees
        clouds = cfg.pclouds.clouds
        model = DncCostModel(
            network=dataset.cluster.network,
            disk=dataset.cluster.disk_model,
            compute=dataset.cluster.compute,
            n_ranks=dataset.n_ranks,
        )
        shape = TreeShape(
            n_records=max(1, dataset.n_total),
            leaf_records=max(1, clouds.min_node),
            record_nbytes=max(1, dataset.schema.row_nbytes()),
        )
        pool_budget = dataset.contexts[0].pool_budget
        # per-node statistics-exchange payload: every numeric attribute
        # ships q interval histograms over the classes (int64 counts) —
        # this is the communication that rank grouping eliminates, so the
        # regime model must see its real size, not a token summary
        stats_nbytes = (
            len(dataset.schema.names)
            * max(2, clouds.q_root)
            * dataset.schema.n_classes
            * 8
        )
        n_groups, regime_costs = resolve_n_groups(
            cfg.regime,
            n_ranks=dataset.n_ranks,
            n_trees=B,
            n_groups=cfg.n_groups,
            model=model,
            shape=shape,
            memory_limit=dataset.cluster.memory_limit,
            pool_bytes=pool_budget.limit if pool_budget is not None else None,
            stats_nbytes=stats_nbytes,
        )
        n_waves = math.ceil(B / n_groups)
        seeds = spawn_tree_seeds(seed, B)

        # run-wide deltas: pool + disk counters already hold the initial
        # distribution's traffic, so snapshot before the fit
        pool_pre = [_pool_totals(c) for c in dataset.contexts]
        disk_pre = [int(c.stats.bytes_read) for c in dataset.contexts]

        obs = run_observed(
            dataset,
            _forest_program,
            dataset.columnsets,
            dataset.schema,
            dataset.row_ids,
            cfg,
            dataset.n_total,
            seeds,
            n_groups,
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
        trees = [
            _decode_tree(
                enc,
                dataset.schema,
                meta={
                    "builder": "pforest",
                    "tree": t,
                    "fit_seed": seeds[t].fit_seed,
                    "n_ranks": dataset.n_ranks,
                    "n_groups": n_groups,
                },
            )
            for t, enc in enumerate(payload["trees"])
        ]
        forest = DecisionForest(
            trees=trees,
            schema=dataset.schema,
            meta={
                "builder": "pforest",
                "n_trees": B,
                "n_groups": n_groups,
                "n_waves": n_waves,
                "regime": cfg.regime,
                "seed": seed,
            },
        )
        tree_stats = _merge_tree_stats(run, payload["trees"])

        per_rank = []
        for c, p0 in zip(dataset.contexts, pool_pre):
            p1 = _pool_totals(c)
            per_rank.append({k: p1[k] - p0[k] for k in p1})
        hits = sum(d["hits"] for d in per_rank)
        xhits = sum(d["cross_tree_hits"] for d in per_rank)
        cross_tree = {
            "hits": hits,
            "cross_tree_hits": xhits,
            "cross_tree_hit_bytes": sum(
                d["cross_tree_hit_bytes"] for d in per_rank
            ),
            "cross_tree_hit_rate": xhits / hits if hits else 0.0,
            "per_rank": per_rank,
        }
        disk_read = [
            int(c.stats.bytes_read) - b0
            for c, b0 in zip(dataset.contexts, disk_pre)
        ]

        health_report = None
        if obs.monitor is not None:
            _record_forest_metrics(
                obs.registry, B, n_groups, n_waves, tree_stats, cross_tree
            )
            obs.monitor.evaluate_forest_cache(
                n_groups=n_groups,
                cross_tree_hits=xhits,
                hits=hits,
            )
            from repro.obs.health import HealthReport

            health_report = HealthReport.from_monitor(
                obs.monitor,
                meta={
                    "n_ranks": dataset.n_ranks,
                    "seed": seed,
                    "n_trees": B,
                    "n_groups": n_groups,
                    "n_waves": n_waves,
                    "regime": cfg.regime,
                    "exchange": cfg.pclouds.exchange,
                    "restarts": obs.restarts,
                    "elapsed_s": obs.elapsed,
                    "cross_tree_hit_rate": cross_tree["cross_tree_hit_rate"],
                },
            )
        return ForestResult(
            forest=forest,
            elapsed=obs.elapsed,
            run=run,
            n_groups=n_groups,
            n_waves=n_waves,
            regime_costs=regime_costs,
            tree_stats=tree_stats,
            cross_tree=cross_tree,
            disk_read_bytes=disk_read,
            tracers=obs.tracers,
            n_restarts=obs.restarts,
            fault_events=obs.fault_events,
            metrics=obs.registry,
            health=health_report,
        )


# -- the SPMD program -------------------------------------------------------


def _forest_program(
    ctx: RankContext,
    columnsets: list[ColumnSet],
    schema: Schema,
    row_ids: list[np.ndarray] | None,
    config: ForestConfig,
    n_total: int,
    seeds: list[TreeSeeds],
    n_groups: int,
    store: CheckpointStore | None = None,
    resume: bool = False,
):
    """One rank's slice of the whole forest fit (wave-scheduled)."""
    base = columnsets[ctx.rank]
    B = len(seeds)
    p = ctx.size
    if p % n_groups != 0:
        raise ValueError(f"n_groups={n_groups} does not divide p={p}")
    gp = p // n_groups
    group_index = ctx.rank // gp
    pool = ctx.disk.pool

    if row_ids is not None:
        ids = row_ids[ctx.rank]
    else:
        # datasets assembled outside DistributedDataset.create don't
        # carry provenance; fall back to contiguous global ids in rank
        # order (bags stay valid multisets, just over renumbered rows)
        local = ctx.comm.allgather(int(base.nrows))
        off = sum(local[: ctx.rank])
        ids = np.arange(off, off + base.nrows, dtype=np.int64)

    # restore the finished-tree log (encoded payloads are flat JSON
    # strings, so the checkpoint blob never recurses per tree level)
    completed: dict[int, dict] = {}
    if store is not None and resume:
        state = None
        if ctx.rank == 0:
            loaded = store.load_latest(ctx.disk)
            state = loaded[1] if loaded is not None else {}
        completed = dict(ctx.comm.bcast(state) or {})

    group_comm = ctx.comm.split(group_index) if n_groups > 1 else ctx.comm
    # every rank sees the same round count so the derive alltoalls align
    n_rounds = int(ctx.comm.allreduce(base.labels_file.nchunks, op="max"))

    n_waves = math.ceil(B / n_groups)
    tree_stats: list[dict] = []
    for w in range(n_waves):
        wave = range(w * n_groups, min((w + 1) * n_groups, B))
        todo = [t for t in wave if t not in completed]
        if not todo:
            continue
        # derive this wave's bags back-to-back over the shared pool:
        # the first scan warms the cache, the rest hit it cross-tree
        frag = None
        for t in todo:
            if pool is not None:
                pool.begin_tree(t)
            got = _derive_bag(
                ctx, base, ids, schema, seeds[t], n_groups, gp, n_total, n_rounds
            )
            if got is not None:
                frag = got
        my_tree = w * n_groups + group_index
        out = None
        if my_tree in todo:
            if pool is not None:
                pool.begin_tree(my_tree)
            gctx = GroupContext(ctx, group_comm, tree=my_tree)
            t0 = ctx.clock.now
            res = fit_tree_program(
                gctx,
                frag,
                schema,
                config.pclouds,
                n_total,
                seeds[my_tree].fit_seed,
            )
            tree_stats.append(
                {"tree": my_tree, "t0": t0, "t1": ctx.clock.now}
            )
            if res is not None:  # group rank 0 assembled the tree
                out = {my_tree: _encode_tree_payload(res)}
        # wave barrier: replicate the finished trees (and sync clocks)
        for d in ctx.comm.allgather(out):
            if d:
                completed.update(d)
        if store is not None and ctx.rank == 0:
            store.save(ctx.disk, f"wave-{w}", dict(completed))
    if pool is not None:
        pool.begin_tree(None)
    payload = {"tree_stats": tree_stats}
    if ctx.rank == 0:
        payload["trees"] = [completed[t] for t in range(B)]
    return payload


def _derive_bag(
    ctx,
    base: ColumnSet,
    ids: np.ndarray,
    schema: Schema,
    seeds: TreeSeeds,
    n_groups: int,
    gp: int,
    n_total: int,
    n_rounds: int,
) -> ColumnSet | None:
    """Stream the base spool once and spool tree ``seeds.tree``'s bag.

    Every rank replicates the bag's multiplicity vector, expands its
    own batches, and — under tree parallelism — routes the expanded
    rows to the owning group's ranks by ``global_id % group_size``
    (an ``alltoall`` per aligned round). Returns the local bag fragment
    on ranks of the owning group, ``None`` elsewhere. The bag multiset
    is a pure function of ``(mask seed, n_total)``, never of the
    machine layout — the bit-identity invariant.

    The bag lands in whole chunks, rows in order, and is written back:
    the tree's root reads it and the fit deletes it, so its disk write
    is charged only for the chunks the buffer pool cannot hold or evicts
    first (:class:`~repro.ooc.columnset.ChunkWriter`).
    """
    tree = seeds.tree
    owner_group = tree % n_groups
    mine = n_groups == 1 or (ctx.rank // gp) == owner_group
    ctx.timer.start(f"tree{tree}/bag")
    try:
        mult = bag_multiplicities(seeds.mask, n_total)
        ctx.charge_compute(ops=n_total)
        out = (
            ChunkWriter(
                ColumnSet(ctx.disk, schema, name=f"r{ctx.rank}-bag{tree}"),
                write_back=True,
            )
            if mine
            else None
        )
        names = [a.name for a in schema]
        it = base.iter_batches()
        off = 0
        for _ in range(n_rounds):
            try:
                batch, labels = next(it)
            except StopIteration:
                batch, labels = None, None
            take = None
            if batch is not None:
                k = len(labels)
                m = mult[ids[off : off + k]]
                off += k
                take = np.repeat(np.arange(k), m)
                ctx.charge_compute(ops=k + len(take))
            if n_groups == 1:
                if take is not None and len(take):
                    out.write({n: batch[n][take] for n in names}, labels[take])
                continue
            parts: list = [None] * ctx.size
            if take is not None and len(take):
                # route expanded rows to the owner group's ranks, keyed
                # by global row id so the placement is layout-invariant
                d_of = np.repeat(ids[off - k : off], m) % gp
                for d in range(gp):
                    sel = take[d_of == d]
                    if len(sel) == 0:
                        continue
                    parts[owner_group * gp + d] = (
                        {n: batch[n][sel] for n in names},
                        labels[sel],
                    )
            got = ctx.comm.alltoall(parts)
            if out is not None:
                recv = [g for g in got if g is not None]
                if recv:
                    out.write(
                        {
                            n: np.concatenate([g[0][n] for g in recv])
                            for n in names
                        },
                        np.concatenate([g[1] for g in recv]),
                    )
        return out.close() if out is not None else None
    finally:
        ctx.timer.stop()


# -- payload plumbing -------------------------------------------------------


def _tree_depth(root: TreeNode) -> int:
    depth = 0
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if not node.is_leaf:
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return depth


def _encode_tree_payload(res: dict) -> dict:
    """Flatten one fitted tree into a checkpoint/gather-safe payload:
    the root becomes a single JSON string (depth-proportional recursion
    headroom for the C encoder), so pickling the payload never recurses
    per tree level."""
    root = res["root"]
    with _recursion_headroom(2 * _tree_depth(root) + 64):
        root_json = json.dumps(encode_node(root))
    return {
        "root_json": root_json,
        "n_large": res["n_large"],
        "n_small": res["n_small"],
        "survival": list(res["survival"]),
    }


def _decode_tree(payload: dict, schema: Schema, meta: dict) -> DecisionTree:
    text = payload["root_json"]
    try:
        data = json.loads(text)
    except RecursionError:
        with _recursion_headroom(2 * _json_nesting_depth(text) + 64):
            data = json.loads(text)
    return DecisionTree(root=decode_node(data), schema=schema, meta=meta)


# -- host-side accounting ---------------------------------------------------

_POOL_KEYS = (
    "hits",
    "misses",
    "hit_bytes",
    "evictions",
    "cross_tree_hits",
    "cross_tree_hit_bytes",
    "write_admits",
    "write_admit_bytes",
    "write_backs",
    "write_back_bytes",
)


def _pool_totals(ctx: RankContext) -> dict[str, int]:
    pool = ctx.disk.pool
    if pool is None:
        return {k: 0 for k in _POOL_KEYS}
    return {k: int(getattr(pool.stats, k, 0)) for k in _POOL_KEYS}


def _merge_tree_stats(run: SpmdRun, encoded: list[dict]) -> list[dict]:
    spans: dict[int, tuple[float, float]] = {}
    for result in run.results:
        for rec in result["tree_stats"]:
            t = rec["tree"]
            t0, t1 = spans.get(t, (math.inf, -math.inf))
            spans[t] = (min(t0, rec["t0"]), max(t1, rec["t1"]))
    out = []
    for t, enc in enumerate(encoded):
        t0, t1 = spans.get(t, (0.0, 0.0))
        out.append(
            {
                "tree": t,
                "elapsed": max(0.0, t1 - t0),
                "n_large": enc["n_large"],
                "n_small": enc["n_small"],
            }
        )
    return out


def _record_forest_metrics(
    registry, n_trees, n_groups, n_waves, tree_stats, cross_tree
) -> None:
    """Register and record the ``repro_forest_*`` family post-run."""
    from repro.obs.registry import Counter, Gauge

    registry.register(
        Gauge("repro_forest_trees", "Member trees in the fitted forest"),
        Gauge(
            "repro_forest_groups", "Concurrent rank groups (parallelism regime)"
        ),
        Gauge("repro_forest_waves", "Scheduling waves (ceil(trees / groups))"),
        Gauge(
            "repro_forest_tree_elapsed_seconds",
            "Max-over-ranks simulated seconds fitting one member",
            ("tree",),
        ),
        Counter(
            "repro_forest_cross_tree_hits_total",
            "Buffer-pool hits served across a tree boundary",
            ("rank",),
        ),
        Counter(
            "repro_forest_cross_tree_hit_bytes_total",
            "Bytes of cross-tree buffer-pool hits",
            ("rank",),
        ),
        Gauge(
            "repro_forest_cross_tree_hit_rate",
            "Share of pool hits that crossed a tree boundary",
        ),
    )
    shard = registry.shard(0)
    shard.set("repro_forest_trees", (), n_trees)
    shard.set("repro_forest_groups", (), n_groups)
    shard.set("repro_forest_waves", (), n_waves)
    for rec in tree_stats:
        shard.set(
            "repro_forest_tree_elapsed_seconds",
            (str(rec["tree"]),),
            rec["elapsed"],
        )
    for r, delta in enumerate(cross_tree["per_rank"]):
        registry.shard(r).inc(
            "repro_forest_cross_tree_hits_total",
            (str(r),),
            delta["cross_tree_hits"],
        )
        registry.shard(r).inc(
            "repro_forest_cross_tree_hit_bytes_total",
            (str(r),),
            delta["cross_tree_hit_bytes"],
        )
    shard.set(
        "repro_forest_cross_tree_hit_rate",
        (),
        cross_tree["cross_tree_hit_rate"],
    )
