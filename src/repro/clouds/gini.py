"""Gini-index machinery shared by CLOUDS, pCLOUDS and the baselines.

Everything here is a pure function of class-count statistics, so the
sequential classifier, the parallel statistics exchange and the tests all
call the same code.

The SSE lower bound exploits convexity: for a fixed interval, the
*goodness* ``sum_j l_j^2 / nL + sum_j r_j^2 / nR`` is a sum of
quadratic-over-linear (perspective) functions of the left-count vector
``l`` and therefore convex; the weighted gini ``1 - goodness/n`` is
concave. Minimising a concave function over the box
``l_j in [L_j, L_j + I_j]`` attains its minimum at a vertex, so
evaluating all ``2^c`` corners yields the exact continuous minimum — a
true lower bound on the gini of any split realisable inside the interval
(realisable splits are points of the box).

The two exact-split kernels are batched, so a caller pays one NumPy
sweep where it used to pay one per item:

* :func:`gini_lower_bounds` bounds many intervals at once: it builds the
  ``2^c`` corners once and scores an ``(intervals, 2^c, c)`` corner
  array with one :func:`weighted_gini` call (SSE makes one call per
  numeric attribute);
* :func:`best_numeric_splits` finds the best threshold of several
  numeric columns at once: a stable argsort per row, one
  ``(columns, records, classes)`` cumulative-count array and one
  :func:`boundary_sweep` over every row's candidates (the direct method
  makes one call per block of attributes).

Every step is elementwise or a reduction over the class axis, so a row's
result is bit-identical to the one-row call; :func:`gini_lower_bound`
and :func:`best_numeric_split_exact` *are* the one-row calls.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "gini_from_counts",
    "weighted_gini",
    "boundary_sweep",
    "best_numeric_split_exact",
    "best_numeric_splits",
    "best_categorical_split",
    "gini_lower_bound",
    "gini_lower_bounds",
]

#: most elements one corner array of :func:`gini_lower_bounds` holds;
#: further intervals go in further chunks, so many classes (``2^c · c``
#: elements per interval) cost no more memory than one interval did
CORNER_ELEMENTS = 2**16


def gini_from_counts(counts: np.ndarray) -> np.ndarray | float:
    """Gini impurity ``1 - sum (n_j/n)^2`` of one or many count vectors.

    ``counts`` has class counts along the last axis; rows with zero total
    have impurity 0 (an empty partition is pure by convention).
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac2 = np.where(
            total[..., None] > 0, (counts / total[..., None]) ** 2, 0.0
        ).sum(axis=-1)
    g = np.where(total > 0, 1.0 - frac2, 0.0)
    return float(g) if g.ndim == 0 else g


def weighted_gini(left: np.ndarray, right: np.ndarray) -> np.ndarray | float:
    """Size-weighted gini of a binary split; broadcasts over leading axes."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    nl = left.sum(axis=-1)
    nr = right.sum(axis=-1)
    n = nl + nr
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(
            n > 0,
            (nl * gini_from_counts(left) + nr * gini_from_counts(right))
            / np.maximum(n, 1),
            0.0,
        )
    return float(g) if g.ndim == 0 else g


def boundary_sweep(cum_counts: np.ndarray, total_counts: np.ndarray) -> np.ndarray:
    """Weighted gini of the split ``x <= boundary_i`` for every boundary.

    ``cum_counts[i]`` are class counts of records with values in intervals
    ``0..i`` (cumulative histogram); ``total_counts`` are the node's class
    counts. Returns one gini per boundary.
    """
    cum = np.asarray(cum_counts, dtype=np.float64)
    total = np.asarray(total_counts, dtype=np.float64)
    return weighted_gini(cum, total[None, :] - cum)


def best_numeric_split_exact(
    values: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    base_left: np.ndarray | None = None,
    node_counts: np.ndarray | None = None,
) -> tuple[float, float] | None:
    """Exact best threshold for one numeric attribute (the direct method).

    Evaluates the gini of ``x <= v`` at every distinct value ``v`` that
    leaves at least one record on each side. When scanning an *alive
    interval* of a larger node, ``base_left`` gives the class counts
    strictly left of the interval and ``node_counts`` the whole node's
    counts, so the returned gini is the node-level split gini (and the
    interval's largest value is then a legal threshold, since later
    intervals stay right). Returns ``(gini, threshold)`` or None when no
    split exists. The one-row call of :func:`best_numeric_splits`.
    """
    return best_numeric_splits(
        np.asarray(values)[None, :], labels, n_classes, base_left, node_counts
    )[0]


def best_numeric_splits(
    values: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    base_left: np.ndarray | None = None,
    node_counts: np.ndarray | None = None,
) -> list[tuple[float, float] | None]:
    """:func:`best_numeric_split_exact` for every row of ``values``
    (``(f, n)``: f numeric columns of the same n records, labelled by
    ``labels``), in one sweep.

    Each row is sorted with a stable argsort, and one ``(f, n, c)``
    cumulative-count array covers all rows. The candidates are the last
    occurrence of each distinct value that leaves a non-empty right side
    at node scope; one :func:`boundary_sweep` scores the candidates of
    every row, and each row takes its first minimum, as ``argmin`` over
    its candidates alone would. Returns one ``(gini, threshold)`` or None
    per row.
    """
    values = np.asarray(values)
    labels = np.asarray(labels)
    f, n = values.shape
    if n != len(labels):
        raise ValueError("values and labels differ in length")
    if n == 0:
        return [None] * f
    rows = np.arange(f)[:, None]
    order = np.argsort(values, axis=1, kind="stable")
    v = values[rows, order]
    onehot = np.zeros((f, n, n_classes), dtype=np.float64)
    onehot[rows, np.arange(n), labels[order]] = 1.0
    cum = np.cumsum(onehot, axis=1)
    if base_left is not None:
        cum += np.asarray(base_left, dtype=np.float64)
    if node_counts is None:
        node_counts = cum[0, -1]  # every row counts the same records
    node_counts = np.asarray(node_counts, dtype=np.float64)
    # candidate boundaries: last occurrence of each distinct value ...
    candidate = np.ones((f, n), dtype=bool)
    candidate[:, :-1] = v[:, :-1] != v[:, 1:]
    # ... that leaves a non-empty right side at node scope
    candidate &= cum.sum(axis=2) < node_counts.sum()
    ginis = np.full((f, n), np.inf)
    ginis[candidate] = boundary_sweep(cum[candidate], node_counts)
    best = np.argmin(ginis, axis=1)
    return [
        (float(ginis[r, k]), float(v[r, k])) if candidate[r, k] else None
        for r, k in enumerate(best)
    ]


def _two_class_subset(counts: np.ndarray) -> tuple[float, frozenset[int]]:
    """Optimal subset split for two classes: sort categories by
    P(class 0 | v); the optimal left set is a prefix (Breiman's theorem)."""
    total = counts.sum(axis=1)
    present = np.flatnonzero(total > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p0 = counts[present, 0] / total[present]
    order = present[np.argsort(p0, kind="stable")]
    cum = np.cumsum(counts[order], axis=0)
    all_counts = counts.sum(axis=0, dtype=np.float64)
    ginis = boundary_sweep(cum[:-1], all_counts) if len(order) > 1 else np.array([])
    if ginis.size == 0:
        return float("inf"), frozenset()
    k = int(np.argmin(ginis))
    return float(ginis[k]), frozenset(int(x) for x in order[: k + 1])


def _enumerated_subset(counts: np.ndarray) -> tuple[float, frozenset[int]]:
    """Exhaustive subset enumeration (2^(V-1)-1 non-trivial splits)."""
    present = np.flatnonzero(counts.sum(axis=1) > 0)
    v = len(present)
    all_counts = counts.sum(axis=0, dtype=np.float64)
    best = (float("inf"), frozenset())
    if v < 2:
        return best
    # fix the first present value on the right to break the L/R symmetry
    rest = present[1:]
    for r in range(1, v):
        for combo in itertools.combinations(rest, r):
            left = counts[list(combo)].sum(axis=0, dtype=np.float64)
            g = weighted_gini(left, all_counts - left)
            if g < best[0]:
                best = (float(g), frozenset(int(x) for x in combo))
    return best


def _greedy_subset(counts: np.ndarray) -> tuple[float, frozenset[int]]:
    """Greedy hill-climbing subset construction (SPRINT's fallback for
    high-cardinality attributes). Each round scores every candidate move
    with one broadcast :func:`weighted_gini` call; ``argmin`` takes the
    first minimum, so ties go to the lowest category code exactly as the
    scalar scan did."""
    present = list(np.flatnonzero(counts.sum(axis=1) > 0))
    all_counts = counts.sum(axis=0, dtype=np.float64)
    left: set[int] = set()
    left_counts = np.zeros_like(all_counts)
    best = (float("inf"), frozenset())
    remaining = list(present)
    while len(left) < len(present) - 1 and remaining:
        cand = left_counts[None, :] + counts[remaining]
        ginis = np.atleast_1d(weighted_gini(cand, all_counts[None, :] - cand))
        k = int(np.argmin(ginis))
        g, v = float(ginis[k]), int(remaining.pop(k))
        left.add(v)
        left_counts = left_counts + counts[v]
        if g < best[0]:
            best = (g, frozenset(left))
        else:
            break  # hill climbing: stop on first non-improving move
    return best


def best_categorical_split(
    counts: np.ndarray, enumerate_limit: int = 10
) -> tuple[float, frozenset[int]] | None:
    """Best subset split for one categorical attribute.

    ``counts`` is the (cardinality, n_classes) count matrix of the node.
    Two classes use the exact prefix theorem; otherwise full enumeration
    up to ``enumerate_limit`` present values, greedy beyond. Returns
    ``(gini, left_codes)`` or None if no split exists.
    """
    counts = np.asarray(counts, dtype=np.float64)
    present = int((counts.sum(axis=1) > 0).sum())
    if present < 2:
        return None
    if counts.shape[1] == 2:
        g, s = _two_class_subset(counts)
    elif present <= enumerate_limit:
        g, s = _enumerated_subset(counts)
    else:
        g, s = _greedy_subset(counts)
    if not np.isfinite(g):
        return None
    return g, s


def gini_lower_bound(
    left_cum: np.ndarray,
    interval_counts: np.ndarray,
    total_counts: np.ndarray,
    corner_limit: int = 16,
) -> float:
    """SSE's ``gini_est``: a lower bound on the gini of any split falling
    strictly inside one interval.

    ``left_cum`` — class counts strictly left of the interval;
    ``interval_counts`` — class counts inside it; ``total_counts`` — the
    node's counts. Exact (vertex enumeration of the concave minimisation)
    for up to ``corner_limit`` classes; beyond that a vertex local search
    is used and the result is a heuristic estimate, as in CLOUDS. The
    one-row call of :func:`gini_lower_bounds`.
    """
    L = np.asarray(left_cum)[None, :]
    I = np.asarray(interval_counts)[None, :]
    return float(gini_lower_bounds(L, I, total_counts, corner_limit)[0])


def gini_lower_bounds(
    left_cum: np.ndarray,
    interval_counts: np.ndarray,
    total_counts: np.ndarray,
    corner_limit: int = 16,
) -> np.ndarray:
    """:func:`gini_lower_bound` of every interval: row i of the ``(k, c)``
    arrays ``left_cum`` and ``interval_counts`` is one interval of a node
    whose class counts are ``total_counts``. Returns ``(k,)`` bounds.

    The ``2^c`` corners are built once per call, and every interval's
    corners are scored by one :func:`weighted_gini` call over a
    ``(k, 2^c, c)`` array (in chunks of at most :data:`CORNER_ELEMENTS`
    elements). Above ``corner_limit`` classes each row runs the vertex
    local search.
    """
    L = np.asarray(left_cum, dtype=np.float64)
    I = np.asarray(interval_counts, dtype=np.float64)
    T = np.asarray(total_counts, dtype=np.float64)
    k, c = L.shape
    if not (I.shape == (k, c) and T.shape == (c,)):
        raise ValueError("class-count vectors must share one shape")
    if c > corner_limit:
        return np.array([_vertex_search(L[i], I[i], T) for i in range(k)], dtype=np.float64)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=c)))
    out = np.empty(k, dtype=np.float64)
    step = max(1, CORNER_ELEMENTS // corners.size)
    for s in range(0, k, step):
        lefts = L[s : s + step, None, :] + corners * I[s : s + step, None, :]
        out[s : s + step] = np.min(weighted_gini(lefts, T - lefts), axis=-1)
    return out


def _vertex_search(L: np.ndarray, I: np.ndarray, T: np.ndarray) -> float:
    """Vertex local search for many classes: flip one coordinate at a
    time while the gini improves."""
    c = L.shape[0]
    a = np.zeros(c)
    best = float(weighted_gini(L, T - L))
    improved = True
    while improved:
        improved = False
        for j in range(c):
            b = a.copy()
            b[j] = I[j] - b[j] if b[j] == 0 else 0.0
            g = float(weighted_gini(L + b, T - L - b))
            if g < best:
                best, a, improved = g, b, True
    return best
