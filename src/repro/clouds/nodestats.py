"""Per-node interval/count statistics.

One :class:`NodeStats` is exactly the state the paper's *replication
method* keeps per processor for one tree node: a class-frequency vector
per interval boundary for every numeric attribute (O(q·c·f) storage) plus
a count matrix per categorical attribute. Local statistics from data
chunks (or from different processors) combine by elementwise addition,
which is what makes the parallel exchange a global-combine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.schema import Schema

from .intervals import categorical_count_matrix, class_counts, interval_index


@dataclass
class NumericStats:
    """Interval boundaries + per-interval class frequencies for one
    numeric attribute of one node.

    ``vmin``/``vmax`` track the smallest/largest value observed inside
    each interval; an interval with fewer than two distinct values cannot
    contain an interior split, so SSE never needs to keep it alive. This
    matters for duplicate-heavy attributes (Quest's ``commission`` is 0
    for a majority of records) whose gini lower bound is otherwise loose.
    """

    boundaries: np.ndarray  # (q-1,) strictly increasing
    hist: np.ndarray  # (q, c) int64
    vmin: np.ndarray | None = None  # (q,) float64, +inf where empty
    vmax: np.ndarray | None = None  # (q,) float64, -inf where empty
    #: when ``hist`` holds one contiguous block of the attribute's
    #: intervals (a distributed-exchange owner's share): the index of its
    #: first interval, and the class counts of the intervals left of it
    lo: int = 0
    base: np.ndarray | None = None  # (c,) int64; None means zero

    def __post_init__(self) -> None:
        q = self.hist.shape[0]
        if self.vmin is None:
            self.vmin = np.full(q, np.inf)
        if self.vmax is None:
            self.vmax = np.full(q, -np.inf)

    @property
    def n_intervals(self) -> int:
        return self.hist.shape[0]

    def splittable(self) -> np.ndarray:
        """Mask of intervals that hold at least two distinct values."""
        return self.vmin < self.vmax

    def cumulative(self) -> np.ndarray:
        """Class counts at/left-of each boundary: cumsum over intervals,
        one row per boundary (drops the final all-inclusive row)."""
        return np.cumsum(self.hist, axis=0)[:-1]

    def left_of_interval(self) -> np.ndarray:
        """Class counts strictly left of each interval of ``hist`` (row i
        = ``base`` + rows 0..i-1); row 0 is ``base``, zero for a whole
        attribute."""
        out = np.zeros_like(self.hist)
        np.cumsum(self.hist[:-1], axis=0, out=out[1:])
        if self.base is not None:
            out += self.base
        return out


@dataclass
class NodeStats:
    """All splitting statistics of one node."""

    total: np.ndarray  # (c,) class counts
    numeric: dict[str, NumericStats] = field(default_factory=dict)
    categorical: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.total.sum())

    def add_inplace(self, other: "NodeStats") -> "NodeStats":
        """Merge another processor's / chunk's statistics (same boundaries)."""
        self.total = self.total + other.total
        for name, ns in other.numeric.items():
            mine = self.numeric[name]
            if mine.hist.shape != ns.hist.shape:
                raise ValueError(
                    f"cannot merge stats for {name!r}: interval counts differ"
                )
            mine.hist = mine.hist + ns.hist
            mine.vmin = np.minimum(mine.vmin, ns.vmin)
            mine.vmax = np.maximum(mine.vmax, ns.vmax)
        for name, cm in other.categorical.items():
            self.categorical[name] = self.categorical[name] + cm
        return self


def empty_stats(
    schema: Schema, boundaries: dict[str, np.ndarray]
) -> NodeStats:
    """Zeroed statistics for a node whose numeric interval boundaries are
    already fixed."""
    c = schema.n_classes
    stats = NodeStats(total=np.zeros(c, dtype=np.int64))
    for a in schema.numeric:
        b = np.asarray(boundaries[a.name], dtype=np.float64)
        stats.numeric[a.name] = NumericStats(
            boundaries=b, hist=np.zeros((len(b) + 1, c), dtype=np.int64)
        )
    for a in schema.categorical:
        stats.categorical[a.name] = np.zeros((a.cardinality, c), dtype=np.int64)
    return stats


def accumulate_batch(
    stats: NodeStats,
    schema: Schema,
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
) -> None:
    """Fold one aligned batch of records into ``stats`` (the single data
    pass of the SS method / the statistics pass of SSE)."""
    c = schema.n_classes
    stats.total = stats.total + class_counts(labels, c)
    for a in schema.numeric:
        ns = stats.numeric[a.name]
        values = np.asarray(columns[a.name], dtype=np.float64)
        idx = interval_index(values, ns.boundaries)
        flat = np.bincount(
            idx.astype(np.int64) * c + np.asarray(labels, dtype=np.int64),
            minlength=ns.n_intervals * c,
        )
        ns.hist = ns.hist + flat.reshape(ns.n_intervals, c).astype(np.int64)
        np.minimum.at(ns.vmin, idx, values)
        np.maximum.at(ns.vmax, idx, values)
    for a in schema.categorical:
        stats.categorical[a.name] = stats.categorical[a.name] + (
            categorical_count_matrix(columns[a.name], labels, a.cardinality, c)
        )


def stats_from_arrays(
    schema: Schema,
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
    boundaries: dict[str, np.ndarray],
) -> NodeStats:
    """One-shot statistics of an in-memory fragment."""
    stats = empty_stats(schema, boundaries)
    accumulate_batch(stats, schema, columns, labels)
    return stats
