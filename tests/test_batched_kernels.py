"""The batched exact-split kernels equal, bit for bit, the per-item loops
they replaced: the per-interval SSE corner enumeration and the
per-attribute threshold sweep of the direct method. The loops are kept
here, verbatim in behaviour, as the reference."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.clouds.direct as direct
from repro.clouds.direct import find_split_direct
from repro.clouds.gini import (
    best_numeric_splits,
    boundary_sweep,
    gini_lower_bounds,
    weighted_gini,
)
from repro.data.synthetic import blob_schema, make_blobs


def reference_lower_bound(L, I, T, corner_limit=16):
    """One interval's bound: all 2^c corners, or the vertex local search
    above ``corner_limit`` classes."""
    L, I, T = (np.asarray(x, dtype=np.float64) for x in (L, I, T))
    c = L.shape[0]
    if c <= corner_limit:
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=c)))
        lefts = L[None, :] + corners * I[None, :]
        return float(np.min(weighted_gini(lefts, T[None, :] - lefts)))
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


def reference_numeric_split(values, labels, n_classes, base_left=None, node_counts=None):
    """One attribute's exact threshold: sort, cumulate, sweep the last
    occurrence of each distinct value."""
    values = np.asarray(values)
    labels = np.asarray(labels)
    n = len(values)
    if n == 0:
        return None
    order = np.argsort(values, kind="stable")
    v = values[order]
    lab = labels[order]
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    onehot[np.arange(n), lab] = 1.0
    cum = np.cumsum(onehot, axis=0)
    if base_left is not None:
        cum = cum + np.asarray(base_left, dtype=np.float64)[None, :]
    if node_counts is None:
        node_counts = cum[-1]
    node_counts = np.asarray(node_counts, dtype=np.float64)
    node_n = node_counts.sum()
    distinct_end = np.append(np.flatnonzero(v[:-1] != v[1:]), n - 1)
    distinct_end = distinct_end[cum[distinct_end].sum(axis=1) < node_n]
    if distinct_end.size == 0:
        return None
    ginis = boundary_sweep(cum[distinct_end], node_counts)
    k = int(np.argmin(ginis))
    return float(ginis[k]), float(v[distinct_end[k]])


def bits(x):
    """Exact bit pattern of a float, a result tuple or None."""
    if x is None:
        return None
    return np.asarray(x, dtype=np.float64).tobytes()


# -- the SSE bound ---------------------------------------------------------------


@st.composite
def interval_rows(draw, classes=st.integers(2, 5)):
    """k consecutive intervals of one attribute, as a node's statistics
    hold them: class counts per interval (often pure, so every corner
    gets to be the minimum), the counts left of each, the node's total."""
    c = draw(classes)
    k = draw(st.integers(0, 12))
    counts = st.sampled_from([0, 0, 1, 2, 7, 30])
    hist = np.array(draw(st.lists(st.lists(counts, min_size=c, max_size=c),
                                  min_size=k, max_size=k)), dtype=np.int64)
    hist = hist.reshape(k, c)
    left = np.cumsum(hist, axis=0) - hist
    right = np.array(draw(st.lists(counts, min_size=c, max_size=c)), dtype=np.int64)
    return left, hist, hist.sum(axis=0) + right


@given(interval_rows())
@settings(max_examples=150, deadline=None)
def test_lower_bounds_equal_the_per_interval_loop(rows):
    left, inside, total = rows
    got = gini_lower_bounds(left, inside, total)
    assert got.shape == (len(left),)
    ref = [reference_lower_bound(left[i], inside[i], total) for i in range(len(left))]
    assert bits(got) == bits(np.array(ref, dtype=np.float64))


@given(interval_rows(classes=st.integers(3, 5)), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_lower_bounds_above_corner_limit_run_the_local_search(rows, limit):
    left, inside, total = rows
    got = gini_lower_bounds(left, inside, total, corner_limit=limit)
    ref = [
        reference_lower_bound(left[i], inside[i], total, corner_limit=limit)
        for i in range(len(left))
    ]
    assert bits(got) == bits(np.array(ref, dtype=np.float64))


@pytest.mark.parametrize("c", [2, 5])
def test_lower_bounds_of_no_interval(c):
    got = gini_lower_bounds(np.zeros((0, c)), np.zeros((0, c)), np.ones(c))
    assert got.shape == (0,)


def test_lower_bounds_chunk_many_classes(monkeypatch):
    """Many classes fill a chunk with few intervals; the chunked result
    is the loop's."""
    import repro.clouds.gini as gini

    rng = np.random.default_rng(0)
    c = 9
    left = rng.integers(0, 20, (7, c))
    inside = rng.integers(0, 20, (7, c))
    total = left.max(axis=0) + inside.max(axis=0) + rng.integers(0, 5, c)
    monkeypatch.setattr(gini, "CORNER_ELEMENTS", 3 * 2**c * c)
    got = gini_lower_bounds(left, inside, total)
    ref = [reference_lower_bound(left[i], inside[i], total) for i in range(7)]
    assert bits(got) == bits(np.array(ref, dtype=np.float64))


def test_lower_bounds_reject_mismatched_shapes():
    with pytest.raises(ValueError):
        gini_lower_bounds(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        gini_lower_bounds(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))


# -- the exact numeric sweep ---------------------------------------------------


@st.composite
def numeric_rows(draw):
    c = draw(st.integers(2, 4))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 40)))
    f = draw(st.integers(1, 5))
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    rows = []
    for _ in range(f):
        kind = draw(st.sampled_from(["dups", "floats", "constant"]))
        if kind == "constant":
            rows.append(np.full(n, draw(st.floats(-5, 5, width=32))))
        elif kind == "dups":
            rows.append(np.array(draw(st.lists(st.integers(-3, 3), min_size=n,
                                               max_size=n)), dtype=np.float64))
        else:
            rows.append(draw(hnp.arrays(np.float64, n,
                                        elements=st.floats(-100, 100, width=32))))
    values = np.stack(rows)
    # an alive interval of a larger node: the counts to its left, and
    # the whole node's counts (its records plus more on either side)
    counts = st.lists(st.integers(0, 30), min_size=c, max_size=c)
    base_left = node_counts = None
    if draw(st.booleans()):
        base_left = np.array(draw(counts), dtype=np.float64)
    if draw(st.booleans()):
        left = base_left if base_left is not None else 0.0
        right = np.array(draw(counts), dtype=np.float64)
        node_counts = left + np.bincount(labels, minlength=c) + right
    return values, labels, c, base_left, node_counts


@given(numeric_rows())
@settings(max_examples=200, deadline=None)
def test_numeric_splits_equal_the_per_attribute_loop(case):
    values, labels, c, base_left, node_counts = case
    got = best_numeric_splits(values, labels, c, base_left, node_counts)
    ref = [
        reference_numeric_split(row, labels, c, base_left, node_counts)
        for row in values
    ]
    assert [bits(g) for g in got] == [bits(r) for r in ref]


def test_numeric_splits_reject_a_length_mismatch():
    with pytest.raises(ValueError):
        best_numeric_splits(np.zeros((2, 3)), np.zeros(2, dtype=int), 2)


# -- the direct method's attribute blocks ----------------------------------------


def test_direct_split_ignores_the_block_size(monkeypatch):
    """64 numeric attributes in blocks of one attribute or all at once:
    the split (attribute, gini and threshold) is the same."""
    schema = blob_schema(n_numeric=64, n_categorical=0, n_classes=2)
    _, cols, labels = make_blobs(300, schema, noise=0.05, seed=4)
    found = []
    for budget in (1, 2**20):
        monkeypatch.setattr(direct, "BLOCK_ELEMENTS", budget)
        found.append(find_split_direct(schema, cols, labels))
    one, whole = found
    assert one is not None
    assert (one.attribute, bits(one.gini), bits(one.threshold)) == (
        whole.attribute, bits(whole.gini), bits(whole.threshold)
    )
