"""Per-node data access: in-core vs out-of-core.

The paper processes a large node out-of-core only when it exceeds the
pre-specified memory limit (Section 6). Both access modes expose the same
three operations — the statistics pass, alive-interval member extraction,
and the partitioning pass — so the driver is oblivious to residency. The
I/O difference is what the memory limit buys:

* in-core: one sequential read of the fragment, then no further reads;
  its children stay in the buffer pool, written back to disk only if
  they leave it before the next level deletes them;
* streaming: the SSE member pass and the partition pass each re-read
  from disk, and the children are written through. The partition pass
  also folds both children's statistics
  (:class:`~repro.clouds.nodestats.FoldedStats`), so a node whose parent
  streamed makes no statistics pass: its ``stats_pass`` reduces what the
  parent folded. Only the root, a checkpoint-restored frontier and the
  children of in-core nodes scan their fragment for statistics.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.machine import RankContext
from repro.clouds.builder import partition_columnset
from repro.clouds.intervals import class_counts
from repro.clouds.nodestats import (
    FoldedStats,
    NodeStats,
    accumulate_batch,
    empty_stats,
)
from repro.clouds.splits import Split
from repro.clouds.sse import AliveInterval, member_mask, stacked_member_masks
from repro.data.schema import Schema
from repro.ooc.columnset import ColumnSet

__all__ = ["NodeAccess", "InCoreAccess", "StreamingAccess", "open_node"]


class NodeAccess:
    """Common interface over one rank's local fragment of one node.

    ``folded`` holds the node's statistics when its parent's partition
    pass folded them; :meth:`stats_pass` then reduces them instead of
    reading the fragment."""

    #: whether :meth:`partition` folds the children's statistics
    folds: bool = False

    def __init__(
        self,
        ctx: RankContext,
        cs: ColumnSet,
        schema: Schema,
        folded: FoldedStats | None = None,
    ) -> None:
        self.ctx = ctx
        self.cs = cs
        self.schema = schema
        self.folded = folded

    @property
    def local_rows(self) -> int:
        return self.cs.nrows

    def stats_pass(self, boundaries: dict[str, np.ndarray]) -> NodeStats:
        """Local statistics over ``boundaries``."""
        raise NotImplementedError

    def alive_members(
        self, alive: list[AliveInterval]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Local (values, labels) of each alive interval, by alive index."""
        raise NotImplementedError

    def partition(
        self, split: Split, fold: tuple[FoldedStats, FoldedStats] | None = None
    ) -> tuple[ColumnSet, ColumnSet, np.ndarray]:
        """Write both children to the local disk; returns
        (left, right, local left class counts). A streaming node's
        children are written through; an in-core node's are written back
        (:class:`~repro.ooc.columnset.ChunkWriter`). When the access
        :attr:`folds`, the ``(left, right)`` pair ``fold`` receives the
        children's statistics; an in-core partition leaves it alone."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop any memory-resident copy of the fragment and return its
        bytes to the rank's memory budget. The driver keeps every node of
        a batch open from its stats pass to the batch's last partition,
        so the batch's in-core fragments are resident together; each
        holds its bytes on ``ctx.memory`` until released, and
        :func:`open_node` streams a node that no longer fits beside
        them."""


class InCoreAccess(NodeAccess):
    """Fragment fits the memory budget: one read, then memory-resident
    (its bytes reserved on ``ctx.memory`` until :meth:`release`)."""

    def __init__(
        self,
        ctx: RankContext,
        cs: ColumnSet,
        schema: Schema,
        folded: FoldedStats | None = None,
    ) -> None:
        super().__init__(ctx, cs, schema, folded)
        self.columns, self.labels = cs.read_all()
        self._held = cs.nbytes
        ctx.memory.acquire(self._held)

    def stats_pass(self, boundaries: dict[str, np.ndarray]) -> NodeStats:
        if self.folded is not None:
            return self.folded.reduce(boundaries)
        stats = empty_stats(self.schema, boundaries)
        accumulate_batch(stats, self.schema, self.columns, self.labels)
        self.ctx.charge_compute(ops=len(self.labels) * len(self.schema))
        return stats

    def alive_members(self, alive):
        out = []
        for iv in alive:
            mask = member_mask(self.columns[iv.attribute], iv)
            self.ctx.charge_compute(ops=len(self.labels))
            out.append((self.columns[iv.attribute][mask], self.labels[mask]))
        return out

    def partition(self, split, fold=None):
        mask = split.goes_left(self.columns[split.attribute])
        self.ctx.charge_compute(ops=len(self.labels) * len(self.schema))
        left = ColumnSet.from_arrays(
            self.ctx.disk,
            self.schema,
            {k: v[mask] for k, v in self.columns.items()},
            self.labels[mask],
            name=f"{self.cs.name}/L",
            write_back=True,
        )
        right = ColumnSet.from_arrays(
            self.ctx.disk,
            self.schema,
            {k: v[~mask] for k, v in self.columns.items()},
            self.labels[~mask],
            name=f"{self.cs.name}/R",
            write_back=True,
        )
        return left, right, class_counts(self.labels[mask], self.schema.n_classes)

    def release(self) -> None:
        self.columns = {}
        self.labels = np.empty(0, dtype=np.int64)
        self.ctx.memory.release(self._held)
        self._held = 0


class StreamingAccess(NodeAccess):
    """Fragment exceeds the memory budget: every pass streams from disk.

    The partition pass folds both children's statistics, so the node's
    first read is its stats pass only when its parent did not stream
    (the root, a restored frontier, the child of an in-core node);
    otherwise it is the SSE member pass, or for SS the partition pass.
    When the rank has a buffer pool large enough for the fragment, the
    node's chunks are pinned for the duration of the access: the first
    pass populates the cache and the later passes re-read from memory
    instead of disk (released with the access)."""

    folds = True

    def __init__(
        self,
        ctx: RankContext,
        cs: ColumnSet,
        schema: Schema,
        folded: FoldedStats | None = None,
    ) -> None:
        super().__init__(ctx, cs, schema, folded)
        self._pinned = False
        pool = ctx.disk.pool
        if pool is not None and pool.would_cache(cs.nbytes):
            pool.pin_columnset(cs)
            self._pinned = True

    def stats_pass(self, boundaries: dict[str, np.ndarray]) -> NodeStats:
        if self.folded is not None:
            return self.folded.reduce(boundaries)
        stats = empty_stats(self.schema, boundaries)
        for batch, labels in self.cs.iter_batches():
            accumulate_batch(stats, self.schema, batch, labels)
            self.ctx.charge_compute(ops=len(labels) * len(self.schema))
        return stats

    def alive_members(self, alive):
        collected: list[tuple[list, list]] = [([], []) for _ in alive]
        by_attr: dict[str, list[int]] = {}
        for k, iv in enumerate(alive):
            by_attr.setdefault(iv.attribute, []).append(k)
        for name, ks in sorted(by_attr.items()):
            ivs = [alive[k] for k in ks]
            for values, labels in self.cs.iter_column_with_labels(name):
                self.ctx.charge_compute(ops=len(values) * len(ks))
                for k, m in zip(ks, stacked_member_masks(values, ivs)):
                    if m.any():
                        collected[k][0].append(values[m])
                        collected[k][1].append(labels[m])
        out = []
        for vals_list, labs_list in collected:
            if vals_list:
                out.append((np.concatenate(vals_list), np.concatenate(labs_list)))
            else:
                out.append(
                    (np.empty(0), np.empty(0, dtype=np.int64))
                )
        return out

    def partition(self, split, fold=None):
        return partition_columnset(self.cs, split, self.ctx, fold)

    def release(self) -> None:
        if self._pinned:
            self.ctx.disk.pool.unpin_columnset(self.cs)
            self._pinned = False


def open_node(
    ctx: RankContext,
    cs: ColumnSet,
    schema: Schema,
    folded: FoldedStats | None = None,
) -> NodeAccess:
    """Pick the access mode by the per-processor memory limit (Section 6:
    "large nodes are processed out-of-core if the size of those nodes
    exceed a pre-specified memory limit"), counting the in-core
    fragments still open on this rank. ``folded`` is the node's
    statistics from its parent's streaming partition pass, if any."""
    if ctx.memory.fits(cs.nbytes):
        return InCoreAccess(ctx, cs, schema, folded)
    return StreamingAccess(ctx, cs, schema, folded)
