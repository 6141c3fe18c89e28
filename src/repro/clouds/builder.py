"""Sequential CLOUDS: the base classifier pCLOUDS parallelises.

Two execution paths share the same split-finding code:

* :meth:`CloudsBuilder.fit_arrays` — in-core, for datasets that fit in
  memory (also the reference implementation for accuracy comparisons);
* :meth:`CloudsBuilder.fit_columnset` — out-of-core, streaming a
  disk-resident :class:`~repro.ooc.columnset.ColumnSet` in batches: one
  statistics pass per node (SS), an optional alive-interval pass (SSE),
  and one partitioning pass that writes the children and tallies their
  class counts so no extra counting pass is needed (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.data.schema import Schema
from repro.ooc.columnset import ChunkWriter, ColumnSet

from .direct import StoppingRule, build_subtree_direct, _subtree_size
from .gini import gini_from_counts
from .intervals import boundaries_from_sample, class_counts, scale_q
from .nodestats import FoldedStats, NodeStats, accumulate_batch, empty_stats
from .splits import Split
from .ss import find_split_ss
from .sse import (
    determine_alive_intervals,
    evaluate_alive_interval,
    member_mask,
    refine_with_alive,
    stacked_member_masks,
)
from .tree import DecisionTree, TreeNode

__all__ = ["CloudsConfig", "CloudsBuilder", "draw_sample", "partition_columnset"]


class CostSink(Protocol):
    """Anything that can absorb simulated compute charges (a
    :class:`repro.cluster.machine.RankContext` qualifies)."""

    def charge_compute(self, ops: float = 0.0, seconds: float = 0.0) -> None: ...

    def charge_sort(self, n: int) -> None: ...


class _NullSink:
    def charge_compute(self, ops: float = 0.0, seconds: float = 0.0) -> None:
        pass

    def charge_sort(self, n: int) -> None:
        pass


@dataclass(frozen=True)
class CloudsConfig:
    """Knobs of the CLOUDS family.

    ``q_root`` — intervals per numeric attribute at the root (the paper's
    experiments used 10,000 for millions of records; q scales down with
    node size). ``q_min`` — below this many intervals a node is processed
    with the exact direct method. ``sample_size`` — the pre-drawn random
    sample used to place interval boundaries.
    """

    method: str = "sse"  # 'ss' | 'sse'
    q_root: int = 200
    sample_size: int = 2000
    q_min: int = 10
    min_node: int = 2
    max_depth: int | None = None
    purity: float = 1.0
    enumerate_limit: int = 10

    def __post_init__(self) -> None:
        if self.method not in ("ss", "sse"):
            raise ValueError(f"method must be 'ss' or 'sse', got {self.method!r}")
        if self.q_root < 2:
            raise ValueError("q_root must be at least 2")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")

    def stopping(self) -> StoppingRule:
        return StoppingRule(
            min_node=self.min_node, max_depth=self.max_depth, purity=self.purity
        )


def draw_sample(
    cs: ColumnSet, size: int, rng: np.random.Generator
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Draw the pre-drawn random sample of CLOUDS from a disk-resident
    fragment in one streaming pass.

    Row count is file metadata, so we can pick ``size`` uniform row
    indices up front and collect them during a single scan.
    """
    n = cs.nrows
    size = min(size, n)
    want = np.sort(rng.choice(n, size=size, replace=False)) if size else np.empty(
        0, dtype=np.int64
    )
    picked_cols: dict[str, list[np.ndarray]] = {}
    picked_labels: list[np.ndarray] = []
    base = 0
    for batch, labels in cs.iter_batches():
        nb = len(labels)
        local = want[(want >= base) & (want < base + nb)] - base
        if len(local):
            if not picked_cols:
                picked_cols = {k: [] for k in batch}
            for k in batch:
                picked_cols[k].append(batch[k][local])
            picked_labels.append(labels[local])
        base += nb
    if not picked_labels:
        empty_cols = {a.name: np.empty(0, dtype=a.dtype) for a in cs.schema}
        return empty_cols, np.empty(0, dtype=np.int64)
    return (
        {k: np.concatenate(v) for k, v in picked_cols.items()},
        np.concatenate(picked_labels),
    )


def partition_columnset(
    cs: ColumnSet,
    split: Split,
    sink: CostSink,
    fold: tuple[FoldedStats, FoldedStats] | None = None,
) -> tuple[ColumnSet, ColumnSet, np.ndarray]:
    """Stream a fragment once, writing both children (read + write of
    every attribute, as the paper's cost analysis states) and tallying
    the left child's class counts on the way — partitioning updates the
    frequencies so no extra counting pass is needed.

    With ``fold`` (a ``(left, right)`` pair) the pass also folds each
    child's rows into its :class:`FoldedStats` before writing them, so
    neither child needs a statistics pass of its own; the fold charges
    the compute of that pass, and no I/O.

    Children are written in whole chunks (:class:`ChunkWriter`), so each
    child file holds ``ceil(rows / chunk_rows)`` chunks at every depth,
    whatever the chunking of the fragment it came from. They are
    write-allocated into the rank's buffer pool and written through: the
    out-of-core pass pays its write as it goes.
    """
    schema = cs.schema
    left = ChunkWriter(
        ColumnSet(cs.disk, schema, name=f"{cs.name}/L"), write_allocate=True
    )
    right = ChunkWriter(
        ColumnSet(cs.disk, schema, name=f"{cs.name}/R"), write_allocate=True
    )
    left_counts = np.zeros(schema.n_classes, dtype=np.int64)
    for batch, labels in cs.iter_batches():
        mask = split.goes_left(batch[split.attribute])
        ops = len(labels) * len(schema)
        sink.charge_compute(ops=2 * ops if fold else ops)
        for writer, side, m in ((left, 0, mask), (right, 1, ~mask)):
            cols, labs = {k: v[m] for k, v in batch.items()}, labels[m]
            if fold:
                fold[side].fold(cols, labs)
            writer.write(cols, labs)
        left_counts += class_counts(labels[mask], schema.n_classes)
    return left.close(), right.close(), left_counts


def node_boundaries(
    schema: Schema,
    sample_cols: dict[str, np.ndarray],
    q: int,
) -> dict[str, np.ndarray]:
    """Interval boundaries for every numeric attribute from the node's
    sample fragment."""
    return {
        a.name: boundaries_from_sample(sample_cols[a.name], q)
        for a in schema.numeric
    }


def find_split_from_arrays(
    schema: Schema,
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
    boundaries: dict[str, np.ndarray],
    config: CloudsConfig,
    sink: CostSink | None = None,
) -> tuple[Split | None, NodeStats, float]:
    """SS/SSE split search on an in-memory fragment.

    Returns ``(split, stats, survival_ratio)``; the survival ratio is 0
    for the SS method.
    """
    sink = sink or _NullSink()
    stats = empty_stats(schema, boundaries)
    accumulate_batch(stats, schema, columns, labels)
    sink.charge_compute(ops=len(labels) * len(schema))
    best = find_split_ss(stats, schema, config.enumerate_limit)
    q_total = sum(ns.n_intervals for ns in stats.numeric.values())
    sink.charge_compute(ops=q_total * schema.n_classes)
    if config.method == "ss" or best is None:
        return best, stats, 0.0
    alive = determine_alive_intervals(stats, schema, best.gini)
    sink.charge_compute(ops=q_total * schema.n_classes * (2**schema.n_classes))
    results = []
    surviving = 0
    for iv in alive:
        mask = member_mask(columns[iv.attribute], iv)
        vals = columns[iv.attribute][mask]
        surviving += len(vals)
        sink.charge_sort(len(vals))
        results.append(
            evaluate_alive_interval(
                iv, vals, labels[mask], stats.total, schema.n_classes
            )
        )
    ratio = surviving / max(stats.n, 1)
    return refine_with_alive(best, results), stats, ratio


class CloudsBuilder:
    """Sequential CLOUDS classifier."""

    def __init__(self, schema: Schema, config: CloudsConfig | None = None) -> None:
        self.schema = schema
        self.config = config or CloudsConfig()

    # -- in-core path ----------------------------------------------------------
    def fit_arrays(
        self,
        columns: dict[str, np.ndarray],
        labels: np.ndarray,
        seed: int = 0,
        sink: CostSink | None = None,
    ) -> DecisionTree:
        """Fit on in-memory columns."""
        rng = np.random.default_rng(seed)
        n_root = len(labels)
        size = min(self.config.sample_size, n_root)
        sample_idx = (
            rng.choice(n_root, size=size, replace=False)
            if n_root
            else np.empty(0, dtype=np.int64)
        )
        sample_cols = {k: v[sample_idx] for k, v in columns.items()}
        self._next_id = 0
        root = self._build_in_core(
            columns, labels, sample_cols, n_root, depth=0, sink=sink or _NullSink()
        )
        return DecisionTree(
            root=root,
            schema=self.schema,
            meta={"builder": f"clouds-{self.config.method}"},
        )

    def _alloc_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def _build_in_core(
        self,
        columns: dict[str, np.ndarray],
        labels: np.ndarray,
        sample_cols: dict[str, np.ndarray],
        n_root: int,
        depth: int,
        sink: CostSink,
    ) -> TreeNode:
        cfg = self.config
        counts = class_counts(labels, self.schema.n_classes)
        node = TreeNode(node_id=self._alloc_id(), depth=depth, class_counts=counts)
        if cfg.stopping().is_leaf(counts, depth):
            return node
        q = scale_q(cfg.q_root, len(labels), n_root)
        if q < cfg.q_min:
            # small node: exact direct method
            sub = build_subtree_direct(
                self.schema,
                columns,
                labels,
                cfg.stopping(),
                depth=depth,
                next_id=node.node_id,
                enumerate_limit=cfg.enumerate_limit,
                on_node=lambda n: sink.charge_sort(n * len(self.schema.numeric)),
            )
            self._next_id = node.node_id + _subtree_size(sub)
            return sub
        bounds = node_boundaries(self.schema, sample_cols, q)
        split, stats, _ = find_split_from_arrays(
            self.schema, columns, labels, bounds, cfg, sink
        )
        if split is None or split.gini >= float(gini_from_counts(counts)):
            return node
        mask = split.goes_left(columns[split.attribute])
        n_left = int(mask.sum())
        if n_left == 0 or n_left == len(labels):
            return node
        sink.charge_compute(ops=len(labels) * len(self.schema))
        smask = split.goes_left(sample_cols[split.attribute])
        node.split = split
        node.left = self._build_in_core(
            {k: v[mask] for k, v in columns.items()},
            labels[mask],
            {k: v[smask] for k, v in sample_cols.items()},
            n_root,
            depth + 1,
            sink,
        )
        node.right = self._build_in_core(
            {k: v[~mask] for k, v in columns.items()},
            labels[~mask],
            {k: v[~smask] for k, v in sample_cols.items()},
            n_root,
            depth + 1,
            sink,
        )
        return node

    # -- out-of-core path -------------------------------------------------------
    def fit_columnset(
        self,
        cs: ColumnSet,
        seed: int = 0,
        sink: CostSink | None = None,
    ) -> DecisionTree:
        """Fit on a disk-resident fragment, streaming batch-wise.

        The node's fragment is deleted once its children are written, so
        peak disk usage stays ~2x the training set.
        """
        sink = sink or _NullSink()
        rng = np.random.default_rng(seed)
        cfg = self.config
        n_root = cs.nrows
        sample_cols, sample_labels = draw_sample(
            cs, min(cfg.sample_size, max(n_root, 1)), rng
        )
        self._next_id = 0
        root = self._build_ooc(cs, sample_cols, None, n_root, depth=0, sink=sink)
        return DecisionTree(
            root=root,
            schema=self.schema,
            meta={"builder": f"clouds-{cfg.method}-ooc"},
        )

    def _node_stats_pass(
        self,
        cs: ColumnSet,
        boundaries: dict[str, np.ndarray],
        sink: CostSink,
    ) -> NodeStats:
        stats = empty_stats(self.schema, boundaries)
        for batch, labels in cs.iter_batches():
            accumulate_batch(stats, self.schema, batch, labels)
            sink.charge_compute(ops=len(labels) * len(self.schema))
        return stats

    def _alive_pass(
        self,
        cs: ColumnSet,
        alive,
        stats: NodeStats,
        sink: CostSink,
    ) -> list[Split | None]:
        """Second pass of SSE: gather each alive interval's members (the
        paper assumes each alive interval fits in memory) and evaluate."""
        if not alive:
            return []
        needed = sorted({iv.attribute for iv in alive})
        members: dict[int, tuple[list, list]] = {i: ([], []) for i in range(len(alive))}
        for name in needed:
            ks = [k for k, iv in enumerate(alive) if iv.attribute == name]
            ivs = [alive[k] for k in ks]
            for values, labels in cs.iter_column_with_labels(name):
                sink.charge_compute(ops=len(values) * len(ivs))
                for k, m in zip(ks, stacked_member_masks(values, ivs)):
                    if m.any():
                        members[k][0].append(values[m])
                        members[k][1].append(labels[m])
        results: list[Split | None] = []
        for k, iv in enumerate(alive):
            vals_list, labs_list = members[k]
            if not vals_list:
                results.append(None)
                continue
            vals = np.concatenate(vals_list)
            labs = np.concatenate(labs_list)
            sink.charge_sort(len(vals))
            results.append(
                evaluate_alive_interval(
                    iv, vals, labs, stats.total, self.schema.n_classes
                )
            )
        return results

    def _build_ooc(
        self,
        cs: ColumnSet,
        sample_cols: dict[str, np.ndarray],
        counts: np.ndarray | None,
        n_root: int,
        depth: int,
        sink: CostSink,
    ) -> TreeNode:
        cfg = self.config
        if counts is None:
            counts = class_counts(cs.read_labels(), self.schema.n_classes)
        node = TreeNode(node_id=self._alloc_id(), depth=depth, class_counts=counts)
        if cfg.stopping().is_leaf(counts, depth):
            cs.delete()
            return node
        q = scale_q(cfg.q_root, cs.nrows, n_root)
        if q < cfg.q_min or cs.nbytes <= 0:
            columns, labels = cs.read_all()
            cs.delete()
            sub = build_subtree_direct(
                self.schema,
                columns,
                labels,
                cfg.stopping(),
                depth=depth,
                next_id=node.node_id,
                enumerate_limit=cfg.enumerate_limit,
                on_node=lambda n: sink.charge_sort(n * len(self.schema.numeric)),
            )
            self._next_id = node.node_id + _subtree_size(sub)
            return sub
        bounds = node_boundaries(self.schema, sample_cols, q)
        # the node is about to be scanned up to three times (stats, SSE
        # members, partition): pin it so a buffer pool that can hold the
        # fragment serves the re-reads from memory; deleting the fragment
        # below invalidates its entries, which also unpins them
        pool = cs.disk.pool
        if pool is not None and pool.would_cache(cs.nbytes):
            pool.pin_columnset(cs)
        stats = self._node_stats_pass(cs, bounds, sink)
        best = find_split_ss(stats, self.schema, cfg.enumerate_limit)
        if cfg.method == "sse" and best is not None:
            alive = determine_alive_intervals(stats, self.schema, best.gini)
            results = self._alive_pass(cs, alive, stats, sink)
            best = refine_with_alive(best, results)
        if best is None or best.gini >= float(gini_from_counts(counts)):
            cs.delete()
            return node
        left_cs, right_cs, left_counts = partition_columnset(cs, best, sink)
        cs.delete()
        if left_cs.nrows == 0 or right_cs.nrows == 0:
            left_cs.delete()
            right_cs.delete()
            return node
        smask = best.goes_left(sample_cols[best.attribute])
        node.split = best
        node.left = self._build_ooc(
            left_cs,
            {k: v[smask] for k, v in sample_cols.items()},
            left_counts,
            n_root,
            depth + 1,
            sink,
        )
        node.right = self._build_ooc(
            right_cs,
            {k: v[~smask] for k, v in sample_cols.items()},
            counts - left_counts,
            n_root,
            depth + 1,
            sink,
        )
        return node
