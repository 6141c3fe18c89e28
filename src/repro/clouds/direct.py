"""The direct method: exact split search over in-memory data.

pCLOUDS uses this for small nodes ("we sort the points along every
numeric attribute and compute the gini index at each point", Section 5),
and the test-suite uses it as the correctness oracle for SS/SSE.

:func:`find_split_direct` stacks the numeric attributes in blocks of at
most :data:`BLOCK_ELEMENTS` attribute × record × class elements and
finds every threshold of a block in one
:func:`~repro.clouds.gini.best_numeric_splits` sweep; the block size
trades host time (fewer, larger sweeps) against peak memory. The
results fold in schema order, so the split is the one the per-attribute
search finds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import Schema

from .gini import best_categorical_split, best_numeric_splits
from .intervals import class_counts
from .splits import CATEGORICAL_SPLIT, NUMERIC_SPLIT, Split, better
from .tree import DecisionTree, TreeNode

__all__ = ["StoppingRule", "find_split_direct", "build_subtree_direct"]

#: most attribute × record × class elements one batched threshold
#: search stacks; 2^12 keeps a 64-attribute fit's peak memory at the
#: per-attribute search's, where 2^15 raised it by about 5%
BLOCK_ELEMENTS = 2**12


@dataclass(frozen=True)
class StoppingRule:
    """When a node becomes a leaf.

    ``min_node`` — don't split nodes smaller than this;
    ``max_depth`` — absolute depth cap (None = unbounded);
    ``purity`` — stop when the majority class fraction reaches this.
    """

    min_node: int = 2
    max_depth: int | None = None
    purity: float = 1.0

    def is_leaf(self, counts: np.ndarray, depth: int) -> bool:
        n = int(counts.sum())
        if n < max(self.min_node, 2):
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        return counts.max() / n >= self.purity


def find_split_direct(
    schema: Schema,
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
    enumerate_limit: int = 10,
) -> Split | None:
    """Exact minimum-gini split over every attribute of an in-memory
    fragment."""
    c = schema.n_classes
    best: Split | None = None
    numeric = schema.numeric
    step = max(1, BLOCK_ELEMENTS // max(1, len(labels) * c))
    for s in range(0, len(numeric), step):
        block = numeric[s : s + step]
        found = best_numeric_splits(
            np.stack([columns[a.name] for a in block]), labels, c
        )
        for a, res in zip(block, found):
            if res is not None:
                g, thr = res
                best = better(
                    best,
                    Split(attribute=a.name, kind=NUMERIC_SPLIT, gini=g, threshold=thr),
                )
    for a in schema.categorical:
        flat = np.bincount(
            np.asarray(columns[a.name], dtype=np.int64) * c
            + np.asarray(labels, dtype=np.int64),
            minlength=a.cardinality * c,
        ).reshape(a.cardinality, c)
        res = best_categorical_split(flat, enumerate_limit)
        if res is not None:
            g, left = res
            best = better(
                best,
                Split(
                    attribute=a.name, kind=CATEGORICAL_SPLIT, gini=g, left_codes=left
                ),
            )
    return best


def build_subtree_direct(
    schema: Schema,
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
    stopping: StoppingRule,
    *,
    depth: int = 0,
    next_id: int = 0,
    enumerate_limit: int = 10,
    on_node=None,
) -> TreeNode:
    """Recursive exact tree construction of an in-memory fragment.

    ``on_node(n_records)`` is invoked once per node that searches for a
    split, so callers (e.g. the simulated small-node processing) can
    charge its sort. A stopping-rule leaf is not charged: it runs no
    split search and writes no child, and its class counts come from its
    parent's split. Node ids are assigned depth-first starting at
    ``next_id``.
    """
    return _build(
        schema, columns, labels, stopping, depth, next_id, enumerate_limit, on_node
    )[0]


def _build(
    schema: Schema,
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
    stopping: StoppingRule,
    depth: int,
    next_id: int,
    enumerate_limit: int,
    on_node,
) -> tuple[TreeNode, int]:
    """:func:`build_subtree_direct`'s recursion; also returns the next
    free node id, so the right child is numbered without walking the
    left subtree."""
    counts = class_counts(labels, schema.n_classes)
    node = TreeNode(node_id=next_id, depth=depth, class_counts=counts)
    if stopping.is_leaf(counts, depth):
        return node, next_id + 1
    if on_node is not None:
        on_node(int(counts.sum()))
    split = find_split_direct(schema, columns, labels, enumerate_limit)
    if split is None:
        return node, next_id + 1
    mask = split.goes_left(columns[split.attribute])
    n_left = int(mask.sum())
    if n_left == 0 or n_left == len(labels):
        return node, next_id + 1  # degenerate split: nothing to gain
    parent_gini = 1.0 - float(((counts / counts.sum()) ** 2).sum())
    if split.gini >= parent_gini:
        return node, next_id + 1  # no impurity decrease
    node.split = split
    left_cols = {k: v[mask] for k, v in columns.items()}
    right_cols = {k: v[~mask] for k, v in columns.items()}
    node.left, next_free = _build(
        schema, left_cols, labels[mask], stopping,
        depth + 1, next_id + 1, enumerate_limit, on_node,
    )
    node.right, next_free = _build(
        schema, right_cols, labels[~mask], stopping,
        depth + 1, next_free, enumerate_limit, on_node,
    )
    return node, next_free


def _subtree_size(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    return 1 + _subtree_size(node.left) + _subtree_size(node.right)


def fit_direct(
    schema: Schema,
    columns: dict[str, np.ndarray],
    labels: np.ndarray,
    stopping: StoppingRule | None = None,
    enumerate_limit: int = 10,
) -> DecisionTree:
    """Convenience: fit an exact in-memory tree (the correctness oracle)."""
    root = build_subtree_direct(
        schema,
        columns,
        labels,
        stopping or StoppingRule(),
        enumerate_limit=enumerate_limit,
    )
    return DecisionTree(root=root, schema=schema, meta={"builder": "direct"})
