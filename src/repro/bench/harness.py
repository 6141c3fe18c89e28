"""Shared experiment harness for the paper's figures and the ablations.

Scaling
-------
The paper ran 3.6–7.2 **million** records on a 16-node SP2; we run the
same experiments at 1:``scale`` (default 1:100) record counts. To keep
the *cost ratios* identical to the paper's regime, every per-record cost
is multiplied by ``scale`` — per-byte network time, per-byte disk time,
per-op CPU time — while the non-scaling terms (message startup, seek
latency) stay physical. A record of the scaled run then costs exactly
what ``scale`` records cost on the modelled 1999 machine, so speedup,
sizeup and scaleup shapes are preserved. The per-processor memory limit
follows the paper ("1 MB for 6.0 million tuples ... linearly scaled based
on the size"): a fixed fraction of the (unscaled) training-set bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.compute import ComputeModel
from repro.cluster.diskmodel import DiskModel
from repro.cluster.machine import Cluster
from repro.cluster.network import NetworkModel
from repro.clouds.builder import CloudsConfig
from repro.core.config import PCloudsConfig
from repro.core.dataset import DistributedDataset
from repro.core.pclouds import PClouds, PCloudsResult
from repro.data.generator import generate_quest, quest_schema
from repro.forest.trainer import ForestConfig, ForestResult, PForest

__all__ = [
    "ExperimentConfig",
    "ForestExperimentConfig",
    "scaled_models",
    "build_cluster",
    "pclouds_config",
    "run_pclouds",
    "run_forest",
    "bench_payload",
    "forest_payload",
    "speedup_series",
]

#: the paper's configuration expressed at unit scale
PAPER_MEMORY_RATIO = 1.0 * 2**20 / (6.0e6 * 64)  # 1 MB per 6M 64-byte records


def scaled_models(
    scale: float = 100.0,
    *,
    alpha: float = 40e-6,
    beta: float = 1.0 / 35e6,
    seek: float = 10e-3,
    bandwidth: float = 8e6,
    seconds_per_op: float = 7.5e-9,
) -> tuple[NetworkModel, DiskModel, ComputeModel]:
    """Cost models where one scaled record stands for ``scale`` paper
    records (volume terms ×scale, latency terms unchanged)."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return (
        NetworkModel(alpha=alpha, beta=beta * scale),
        DiskModel(seek=seek, bandwidth=bandwidth / scale),
        ComputeModel(seconds_per_op=seconds_per_op * scale),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One pCLOUDS experiment point of the paper's evaluation."""

    n_records: int
    n_ranks: int
    scale: float = 100.0
    function: int = 2  # the paper uses classification function 2
    noise: float = 0.05  # label noise so purity stopping mirrors real data
    q_root: int | None = None
    records_per_interval: int = 36
    sample_size: int | None = None
    q_switch: int = 10
    memory_ratio: float = PAPER_MEMORY_RATIO
    method: str = "sse"
    exchange: str = "attribute"
    #: voting exchange: attributes each rank nominates per node
    vote_top_k: int = 8
    #: accepts only "level" (see :class:`PCloudsConfig`)
    frontier_batching: str = "level"
    #: per-rank chunk cache + overlapped prefetch for the out-of-core
    #: layer ("off" | "lru" | "lru+prefetch"); on by default — trees are
    #: bit-identical in every mode, only charged I/O time changes
    buffer_pool: str = "lru+prefetch"
    #: buffer-pool capacity as a multiple of the per-rank memory limit
    #: (the processing limit is the paper's 1 MB-ish threshold; the pool
    #: models the node's remaining RAM working as an I/O cache)
    pool_ratio: float = 4.0
    seed: int = 0
    min_node: int = 16
    purity: float = 0.999

    def resolved_q_root(self) -> int:
        """Paper: q_root=10,000 for 3.6M records, i.e. ~360 records per
        interval, with the task-parallel switch at 10 intervals. At 1:100
        record scale we keep the interval population at ~36 records so the
        tree still has a deep data-parallel phase over many large nodes
        followed by a broad small-node tail, as in the paper."""
        if self.q_root is not None:
            return self.q_root
        return max(20, self.n_records // self.records_per_interval)

    def resolved_sample(self) -> int:
        if self.sample_size is not None:
            return self.sample_size
        return max(200, min(self.n_records, 4 * self.resolved_q_root()))

    def memory_limit_bytes(self, row_nbytes: int) -> int:
        """Per-processor memory limit: a fixed fraction of the training
        set's bytes, independent of p (each node's RAM is fixed)."""
        return max(4096, int(self.n_records * row_nbytes * self.memory_ratio))

    def pool_nbytes(self, row_nbytes: int) -> int:
        """Buffer-pool capacity for this point's cluster."""
        return int(self.pool_ratio * self.memory_limit_bytes(row_nbytes))


def pclouds_config(cfg: ExperimentConfig) -> PCloudsConfig:
    """The pCLOUDS configuration of one experiment point."""
    return PCloudsConfig(
        clouds=CloudsConfig(
            method=cfg.method,
            q_root=cfg.resolved_q_root(),
            sample_size=cfg.resolved_sample(),
            min_node=cfg.min_node,
            purity=cfg.purity,
        ),
        q_switch=cfg.q_switch,
        exchange=cfg.exchange,
        frontier_batching=cfg.frontier_batching,
        vote_top_k=cfg.vote_top_k,
    )


def build_cluster(cfg: ExperimentConfig, row_nbytes: int) -> Cluster:
    net, disk, compute = scaled_models(cfg.scale)
    limit = cfg.memory_limit_bytes(row_nbytes)
    return Cluster(
        cfg.n_ranks,
        network=net,
        disk=disk,
        compute=compute,
        memory_limit=limit,
        seed=cfg.seed,
        buffer_pool=cfg.buffer_pool,
        pool_bytes=cfg.pool_nbytes(row_nbytes),
    )


@dataclass(frozen=True)
class ForestExperimentConfig(ExperimentConfig):
    """One bagged-forest experiment point over a single shared spool.

    The pool default differs from the single-tree default: for a forest,
    the pool models node RAM provisioned to hold the *shared base spool
    plus one bag* — that residency is what lets concurrent trees in
    different rank groups hit each other's chunks instead of re-reading
    them. ``pool_ratio=None`` (the forest default) auto-sizes the pool to
    that working set; an explicit ratio keeps the single-tree semantics
    (a multiple of the per-rank memory limit) for ablation sweeps.
    """

    n_trees: int = 8
    #: "data" | "tree" | "hybrid" | "auto" (cost-model pick)
    regime: str = "auto"
    #: hybrid only: explicit concurrent group count
    n_groups: int | None = None
    #: None = auto-size to the tree-parallel working set (see class doc)
    pool_ratio: float | None = None

    def pool_nbytes(self, row_nbytes: int) -> int:
        if self.pool_ratio is not None:
            return super().pool_nbytes(row_nbytes)
        # tree-parallel working set of one group rank: its share of the
        # base spool plus the bag spool it fits from (a full bag when
        # groups are single ranks), with slack for the child spools the
        # partition pass writes alongside; those children are
        # write-allocated into the pool, so the slack is what keeps a
        # level's children resident for the next level's reads
        working = self.n_records * row_nbytes * (1.0 / self.n_ranks + 1.0)
        return max(
            int(1.25 * working),
            int(32.0 * self.memory_limit_bytes(row_nbytes)),
        )


def run_forest(
    cfg: ForestExperimentConfig, *, trace: bool = False, metrics: bool = False
) -> ForestResult:
    """Generate data, distribute it once, and fit a bagged forest.

    Mirrors :func:`run_pclouds`: same seed layout (``seed`` generates,
    ``seed+1`` distributes, ``seed+2`` fits), same cost models, one
    :class:`~repro.core.dataset.DistributedDataset` shared by every
    member through per-tree multiplicity masks.
    """
    schema = quest_schema()
    cols, labels = generate_quest(
        cfg.n_records, cfg.function, seed=cfg.seed, noise=cfg.noise
    )
    cluster = build_cluster(cfg, schema.row_nbytes())
    dataset = DistributedDataset.create(
        cluster, schema, cols, labels, seed=cfg.seed + 1
    )
    forest = PForest(
        ForestConfig(
            n_trees=cfg.n_trees,
            pclouds=pclouds_config(cfg),
            regime=cfg.regime,
            n_groups=cfg.n_groups,
        )
    )
    return forest.fit(dataset, seed=cfg.seed + 2, trace=trace, metrics=metrics)


def run_pclouds(
    cfg: ExperimentConfig,
    *,
    trace: bool = False,
    metrics: bool = False,
    health=None,
) -> PCloudsResult:
    """Generate data, distribute it, and fit pCLOUDS once.

    ``trace=True`` records the fit's full event stream (comm + disk +
    phases) on ``result.tracers`` — the Fig. 1–3 benches use it to emit
    phase-attributed timelines and Perfetto exports. ``metrics=True``
    runs under the live metrics registry and health monitor
    (:mod:`repro.obs`), with ``health`` overriding its alert thresholds;
    embed ``result.metrics_snapshot()`` in BENCH payloads via
    :func:`bench_payload`.
    """
    schema = quest_schema()
    cols, labels = generate_quest(
        cfg.n_records, cfg.function, seed=cfg.seed, noise=cfg.noise
    )
    cluster = build_cluster(cfg, schema.row_nbytes())
    dataset = DistributedDataset.create(
        cluster, schema, cols, labels, seed=cfg.seed + 1
    )
    return PClouds(pclouds_config(cfg)).fit(
        dataset, seed=cfg.seed + 2, trace=trace, metrics=metrics, health=health
    )


def bench_payload(result: PCloudsResult, **extra) -> dict:
    """Standard BENCH_*.json payload for one fit: elapsed time, node
    counts, and — when the fit was metered — the merged metrics snapshot
    plus the health roll-up."""
    payload = {
        "elapsed_s": result.elapsed,
        "n_large_nodes": result.n_large_nodes,
        "n_small_tasks": result.n_small_tasks,
        "n_restarts": result.n_restarts,
        **extra,
    }
    if result.metrics is not None:
        payload["metrics"] = result.metrics_snapshot()
    return payload


def forest_payload(result: ForestResult, **extra) -> dict:
    """Standard BENCH_*.json payload for one forest fit: elapsed time,
    schedule shape, cross-tree cache accounting, and total disk reads."""
    payload = {
        "elapsed_s": result.elapsed,
        "n_trees": len(result.forest.trees),
        "n_groups": result.n_groups,
        "n_waves": result.n_waves,
        "n_restarts": result.n_restarts,
        "cross_tree": result.cross_tree,
        "disk_read_bytes": int(sum(result.disk_read_bytes)),
        "tree_elapsed_s": {
            str(t["tree"]): t["elapsed"] for t in result.tree_stats
        },
        "regime_costs": {
            str(g): cost for g, cost in result.regime_costs.items()
        },
        **extra,
    }
    if result.metrics is not None:
        payload["metrics"] = result.metrics_snapshot()
    return payload


@dataclass
class SpeedupPoint:
    n_ranks: int
    elapsed: float
    speedup: float
    result: PCloudsResult = field(repr=False, default=None)


def speedup_series(
    n_records: int,
    ranks: list[int],
    base: ExperimentConfig | None = None,
    **overrides,
) -> list[SpeedupPoint]:
    """Elapsed time and speedup relative to one processor for a series of
    machine sizes (one Figure-1 curve)."""
    points: list[SpeedupPoint] = []
    t1 = None
    for p in ranks:
        cfg = ExperimentConfig(n_records=n_records, n_ranks=p, **overrides)
        res = run_pclouds(cfg)
        if t1 is None:
            base_cfg = ExperimentConfig(n_records=n_records, n_ranks=1, **overrides)
            t1 = res.elapsed if p == 1 else run_pclouds(base_cfg).elapsed
        points.append(
            SpeedupPoint(
                n_ranks=p, elapsed=res.elapsed, speedup=t1 / res.elapsed, result=res
            )
        )
    return points
