"""Property test: every statistics-exchange method must elect the same
splitter and the same alive set as the sequential computation, for any
random data, any fragmentation, any machine size and any batch of nodes
exchanged together."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clouds import CloudsConfig
from repro.clouds.builder import node_boundaries
from repro.clouds.intervals import class_counts
from repro.clouds.nodestats import stats_from_arrays
from repro.clouds.ss import find_split_ss
from repro.clouds.sse import determine_alive_intervals
from repro.core.config import EXCHANGE_STRATEGIES, PCloudsConfig
from repro.core.stats_exchange import exchange_level_stats, exchange_node_stats
from repro.data import make_schema

from conftest import make_cluster

SCHEMA = make_schema(["x", "y"], {"c": 3}, n_classes=2)


def _random_fragments(rng, n, p):
    cols = {
        "x": rng.normal(size=n),
        "y": np.round(rng.random(n) * 10) / 2.0,  # heavy duplicates
        "c": rng.integers(0, 3, n).astype(np.int32),
    }
    labels = ((cols["x"] + rng.normal(0, 0.7, n)) > 0).astype(np.int32)
    owner = rng.integers(0, p, n)
    frags = [
        ({k: v[owner == r] for k, v in cols.items()}, labels[owner == r])
        for r in range(p)
    ]
    return cols, labels, frags


@given(
    st.integers(1, 4),
    st.integers(40, 300),
    st.integers(3, 20),
    st.integers(0, 10_000),
    st.sampled_from(["attribute", "distributed", "allreduce"]),
)
@settings(max_examples=15, deadline=None)
def test_exchange_equals_sequential(p, n, q, seed, exchange):
    rng = np.random.default_rng(seed)
    cols, labels, frags = _random_fragments(rng, n, p)
    bounds = node_boundaries(SCHEMA, cols, q)
    total = class_counts(labels, 2)

    seq_stats = stats_from_arrays(SCHEMA, cols, labels, bounds)
    seq_split = find_split_ss(seq_stats, SCHEMA)
    config = PCloudsConfig(
        clouds=CloudsConfig(method="sse", q_root=max(q, 2)), exchange=exchange
    )

    def prog(ctx):
        fcols, flabels = frags[ctx.rank]
        local = stats_from_arrays(SCHEMA, fcols, flabels, bounds)
        split, alive = exchange_node_stats(ctx, SCHEMA, local, total, config)
        key = None
        if split is not None:
            key = (split.attribute, split.kind, round(split.gini, 12))
        return key, [(iv.attribute, iv.index, iv.count) for iv in alive]

    results = make_cluster(p).run(prog).results
    if seq_split is None:
        assert all(r[0] is None for r in results)
        return
    seq_alive = determine_alive_intervals(seq_stats, SCHEMA, seq_split.gini)
    expect_key = (
        seq_split.attribute, seq_split.kind, round(seq_split.gini, 12)
    )
    expect_alive = sorted(
        (iv.attribute, iv.index, iv.count) for iv in seq_alive
    )
    for key, alive in results:
        assert key == expect_key
        assert alive == expect_alive


def _split_key(split):
    if split is None:
        return None
    return (
        split.attribute, split.kind, split.threshold,
        tuple(sorted(split.left_codes or ())), round(split.gini, 12),
    )


@given(
    st.integers(1, 4),
    st.lists(
        st.tuples(st.integers(40, 300), st.integers(3, 20)),
        min_size=1, max_size=4,
    ),
    st.integers(0, 10_000),
    st.sampled_from(EXCHANGE_STRATEGIES),
    st.sampled_from(["ss", "sse"]),
)
@settings(max_examples=20, deadline=None)
def test_batch_exchange_equals_sequential_per_node(p, nodes, seed, exchange, method):
    """A batch of 1-4 nodes through :func:`exchange_level_stats` returns,
    for each node, what the sequential sweep gives on that node alone
    (voting at k >= f, where it is exact)."""
    rng = np.random.default_rng(seed)
    batch = []
    for n, q in nodes:
        cols, labels, frags = _random_fragments(rng, n, p)
        bounds = node_boundaries(SCHEMA, cols, q)
        seq = stats_from_arrays(SCHEMA, cols, labels, bounds)
        split = find_split_ss(seq, SCHEMA)
        alive = []
        if split is not None and method == "sse":
            alive = sorted(
                (iv.attribute, iv.index, iv.count)
                for iv in determine_alive_intervals(seq, SCHEMA, split.gini)
            )
        batch.append((frags, bounds, class_counts(labels, 2), (_split_key(split), alive)))
    config = PCloudsConfig(
        clouds=CloudsConfig(method=method),
        exchange=exchange,
        vote_top_k=len(SCHEMA.attributes),
    )

    def prog(ctx):
        locals_list = [
            stats_from_arrays(SCHEMA, *frags[ctx.rank], bounds)
            for frags, bounds, _, _ in batch
        ]
        out = exchange_level_stats(
            ctx, SCHEMA, locals_list, [total for _, _, total, _ in batch], config
        )
        return [
            (_split_key(split), sorted((iv.attribute, iv.index, iv.count) for iv in alive))
            for split, alive in out
        ]

    expected = [want for _, _, _, want in batch]
    for got in make_cluster(p).run(prog).results:
        assert got == expected


TIE_SCHEMA = make_schema(["y", "x"], {}, n_classes=2)


@pytest.mark.parametrize("exchange", EXCHANGE_STRATEGIES)
@pytest.mark.parametrize("p", [1, 2])
def test_exact_gini_tie_breaks_like_sequential(p, exchange):
    """Two identical columns tie exactly at every boundary; every
    strategy must pick the split :func:`find_split_ss` picks (the
    smaller order key, ``x``), whichever attribute the schema lists
    first and whichever rank owns it."""
    rng = np.random.default_rng(5)
    v = rng.normal(size=240)
    cols = {"y": v, "x": v.copy()}
    labels = ((v + rng.normal(0, 0.5, v.size)) > 0).astype(np.int32)
    owner = np.arange(v.size) % p
    frags = [
        ({k: a[owner == r] for k, a in cols.items()}, labels[owner == r])
        for r in range(p)
    ]
    bounds = node_boundaries(TIE_SCHEMA, cols, 8)
    expected = find_split_ss(
        stats_from_arrays(TIE_SCHEMA, cols, labels, bounds), TIE_SCHEMA
    )
    assert expected.attribute == "x"
    config = PCloudsConfig(
        clouds=CloudsConfig(method="ss"), exchange=exchange, vote_top_k=2
    )

    def prog(ctx):
        local = stats_from_arrays(TIE_SCHEMA, *frags[ctx.rank], bounds)
        split, _ = exchange_node_stats(
            ctx, TIE_SCHEMA, local, class_counts(labels, 2), config
        )
        return _split_key(split)

    for got in make_cluster(p).run(prog).results:
        assert got == _split_key(expected)
