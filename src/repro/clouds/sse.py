"""The SSE method: sampling the splitting points with estimation
(Section 4.1.1).

SSE starts from the SS result (``gini_min`` at the boundaries /
categorical splits) and estimates a lower bound ``gini_est`` for the best
gini achievable *inside* each interval. Intervals with
``gini_est < gini_min`` stay **alive**; a second data pass gathers their
member points and evaluates the gini at every distinct value, which may
beat the boundary split. The ratio of points in alive intervals to the
node size is the *survival ratio* — SSE's whole advantage is that it is
small.

:func:`determine_alive_intervals` bounds all of an attribute's
candidate intervals with one batched
:func:`~repro.clouds.gini.gini_lower_bounds` call (one corner sweep per
attribute, not one per interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import Schema

from .gini import best_numeric_split_exact, gini_lower_bounds
from .nodestats import NodeStats
from .splits import NUMERIC_SPLIT, Split, better

__all__ = [
    "AliveInterval",
    "determine_alive_intervals",
    "survival_ratio",
    "evaluate_alive_interval",
    "member_mask",
    "stacked_member_masks",
]


@dataclass(frozen=True)
class AliveInterval:
    """One interval whose interior might hold a better split than gini_min."""

    attribute: str
    index: int  # interval number within the attribute
    lo: float  # open lower edge (-inf for the first interval)
    hi: float  # closed upper edge (+inf for the last interval)
    left_cum: np.ndarray  # class counts strictly left of the interval
    count: int  # records inside the interval
    gini_est: float  # lower bound on the interior gini

    def sort_cost(self) -> float:
        """Estimated processing cost (the sorting dominates) used for the
        paper's cost-based single-assignment of intervals to processors."""
        n = max(self.count, 1)
        return float(n * max(np.log2(n), 1.0))


def determine_alive_intervals(
    stats: NodeStats,
    schema: Schema,
    gini_min: float,
) -> list[AliveInterval]:
    """All intervals with ``gini_est < gini_min`` (Section 5.1.2).

    Deterministic given the statistics, so with replicated statistics
    every processor derives the identical alive list locally. An owner
    in the parallel exchange passes only what it holds: attributes
    missing from ``stats`` are skipped, and a block of intervals
    (:attr:`NumericStats.lo`, :attr:`NumericStats.base`) keeps its
    whole-attribute interval numbers and left counts.
    """
    alive: list[AliveInterval] = []
    for a in schema.numeric:
        ns = stats.numeric.get(a.name)
        if ns is None:
            continue  # held by another owner
        counts = ns.hist.sum(axis=1)
        # fewer than two records or distinct values: no interior split
        rows = np.flatnonzero((counts >= 2) & ns.splittable())
        left = ns.left_of_interval()[rows]
        ests = gini_lower_bounds(left, ns.hist[rows], stats.total)
        b = ns.boundaries
        keep = ests < gini_min
        for i, est, left_cum in zip(rows[keep], ests[keep], left[keep]):
            idx = ns.lo + int(i)
            alive.append(
                AliveInterval(
                    attribute=a.name,
                    index=idx,
                    lo=float(b[idx - 1]) if idx > 0 else -np.inf,
                    hi=float(b[idx]) if idx < len(b) else np.inf,
                    left_cum=left_cum.astype(np.float64),
                    count=int(counts[i]),
                    gini_est=float(est),
                )
            )
    return alive


def survival_ratio(alive: list[AliveInterval], n: int) -> float:
    """Records living in alive intervals, relative to the node size.

    Summed over every numeric attribute — a record inside an alive
    interval of two attributes is scanned twice in the second pass — so
    the ratio can exceed 1.0 on hard nodes (it is bounded by the number
    of numeric attributes). SSE pays off when this is small.
    """
    if n <= 0:
        return 0.0
    return sum(iv.count for iv in alive) / float(n)


def member_mask(values: np.ndarray, iv: AliveInterval) -> np.ndarray:
    """Mask of records falling inside an alive interval ``(lo, hi]``."""
    values = np.asarray(values)
    return (values > iv.lo) & (values <= iv.hi)


def stacked_member_masks(
    values: np.ndarray, intervals: list[AliveInterval]
) -> list[np.ndarray]:
    """Membership masks of *all* of one attribute's alive intervals
    against one value chunk, via a single stacked boundary comparison.

    The intervals of one attribute come from the same boundary partition,
    so they are disjoint ``(lo, hi]`` ranges in ascending index order —
    one ``searchsorted`` against the stacked upper edges locates every
    record's candidate interval, and one comparison against the stacked
    lower edges confirms membership. Bit-identical to calling
    :func:`member_mask` per interval (NaNs sort past every edge and drop
    out, exactly as ``values > lo`` rejects them), at one O(n log k) scan
    instead of k full-column comparisons.
    """
    values = np.asarray(values)
    k = len(intervals)
    his = np.array([iv.hi for iv in intervals])
    los = np.array([iv.lo for iv in intervals])
    j = np.searchsorted(his, values, side="left")
    inside = np.empty(len(values), dtype=bool)
    in_range = j < k
    inside[~in_range] = False
    jc = j[in_range]
    inside[in_range] = values[in_range] > los[jc]
    return [inside & (j == idx) for idx in range(k)]


def evaluate_alive_interval(
    iv: AliveInterval,
    values: np.ndarray,
    labels: np.ndarray,
    total_counts: np.ndarray,
    n_classes: int,
) -> Split | None:
    """Exact best split inside one alive interval: sort the members and
    evaluate the gini at every distinct point (Section 5.1.3)."""
    res = best_numeric_split_exact(
        values,
        labels,
        n_classes,
        base_left=iv.left_cum,
        node_counts=total_counts,
    )
    if res is None:
        return None
    g, thr = res
    return Split(attribute=iv.attribute, kind=NUMERIC_SPLIT, gini=g, threshold=thr)


def refine_with_alive(
    boundary_best: Split | None,
    alive_results: list[Split | None],
) -> Split | None:
    """Final SSE splitter: the boundary winner unless an alive interval
    produced something strictly better."""
    best = boundary_best
    for s in alive_results:
        best = better(best, s)
    return best
