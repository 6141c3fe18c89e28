"""SS and SSE split derivation: boundary sweeps, alive intervals,
survival ratios, and the SSE-refines-SS relationship."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clouds.builder import find_split_from_arrays, node_boundaries, CloudsConfig
from repro.clouds.direct import find_split_direct
from repro.clouds.intervals import boundaries_from_sample
from repro.clouds.nodestats import NodeStats, NumericStats, stats_from_arrays
from repro.clouds.splits import NUMERIC_SPLIT
from repro.clouds.ss import best_boundary_split, find_split_ss
from repro.clouds.sse import (
    determine_alive_intervals,
    evaluate_alive_interval,
    member_mask,
    refine_with_alive,
    survival_ratio,
)
from repro.data import generate_quest, make_schema, quest_schema


@pytest.fixture(scope="module")
def node():
    schema = quest_schema()
    cols, labels = generate_quest(3000, function=2, seed=21, noise=0.02)
    bounds = {
        a.name: boundaries_from_sample(cols[a.name][:600], 40)
        for a in schema.numeric
    }
    stats = stats_from_arrays(schema, cols, labels, bounds)
    return schema, cols, labels, bounds, stats


class TestSS:
    def test_boundary_split_is_best_boundary(self, node):
        schema, cols, labels, bounds, stats = node
        split = best_boundary_split("salary", stats)
        # function 2 makes salary highly informative: a real split exists
        assert split is not None and split.kind == NUMERIC_SPLIT
        assert split.threshold in bounds["salary"]
        # its gini can never beat the exact (all points, all attributes) optimum
        exact = find_split_direct(schema, cols, labels)
        assert split.gini >= exact.gini - 1e-12

    def test_find_split_ss_covers_all_attributes(self, node):
        schema, cols, labels, bounds, stats = node
        split = find_split_ss(stats, schema)
        assert split is not None
        per_attr = [best_boundary_split(a.name, stats) for a in schema.numeric]
        best_num = min(s.gini for s in per_attr if s is not None)
        assert split.gini <= best_num + 1e-12

    def test_no_boundaries_no_numeric_split(self, node):
        schema, cols, labels, _, _ = node
        empty_bounds = {a.name: np.empty(0) for a in schema.numeric}
        stats = stats_from_arrays(schema, cols, labels, empty_bounds)
        assert best_boundary_split("salary", stats) is None
        # categorical splits still exist
        assert find_split_ss(stats, schema) is not None


class TestAliveIntervals:
    def test_alive_bounds_hold(self, node):
        schema, cols, labels, bounds, stats = node
        gini_min = find_split_ss(stats, schema).gini
        alive = determine_alive_intervals(stats, schema, gini_min)
        assert alive, "function-2 data must produce alive intervals at q=40"
        for iv in alive:
            assert iv.gini_est < gini_min
            assert iv.count >= 2
            assert iv.lo < iv.hi

    def test_member_mask_matches_interval_population(self, node):
        schema, cols, labels, bounds, stats = node
        gini_min = find_split_ss(stats, schema).gini
        for iv in determine_alive_intervals(stats, schema, gini_min):
            mask = member_mask(cols[iv.attribute], iv)
            assert int(mask.sum()) == iv.count

    def test_left_cum_matches_data(self, node):
        schema, cols, labels, bounds, stats = node
        gini_min = find_split_ss(stats, schema).gini
        for iv in determine_alive_intervals(stats, schema, gini_min)[:5]:
            left_mask = cols[iv.attribute] <= iv.lo
            expect = np.bincount(labels[left_mask], minlength=2)
            np.testing.assert_array_equal(iv.left_cum, expect)

    def test_survival_ratio_definition(self, node):
        schema, cols, labels, bounds, stats = node
        gini_min = find_split_ss(stats, schema).gini
        alive = determine_alive_intervals(stats, schema, gini_min)
        r = survival_ratio(alive, stats.n)
        assert 0.0 < r <= 1.0
        assert r == pytest.approx(sum(iv.count for iv in alive) / stats.n)

    def test_survival_shrinks_with_finer_intervals(self):
        schema = quest_schema()
        cols, labels = generate_quest(4000, function=2, seed=33, noise=0.02)
        ratios = []
        for q in (10, 40, 160):
            bounds = {
                a.name: boundaries_from_sample(cols[a.name][:1000], q)
                for a in schema.numeric
            }
            stats = stats_from_arrays(schema, cols, labels, bounds)
            gini_min = find_split_ss(stats, schema).gini
            alive = determine_alive_intervals(stats, schema, gini_min)
            ratios.append(survival_ratio(alive, stats.n))
        assert ratios[0] > ratios[-1]

    def test_empty_when_boundary_is_optimal(self, node):
        schema, cols, labels, bounds, stats = node
        # threshold 0: nothing estimates below it
        assert determine_alive_intervals(stats, schema, 0.0) == []

    def test_evaluate_alive_interval_scopes_to_node(self, node):
        schema, cols, labels, bounds, stats = node
        gini_min = find_split_ss(stats, schema).gini
        alive = determine_alive_intervals(stats, schema, gini_min)
        iv = max(alive, key=lambda v: v.count)
        mask = member_mask(cols[iv.attribute], iv)
        split = evaluate_alive_interval(
            iv, cols[iv.attribute][mask], labels[mask], stats.total, 2
        )
        assert split is not None
        assert iv.lo < split.threshold <= iv.hi
        # interior evaluation can only respect the lower bound
        assert split.gini >= iv.gini_est - 1e-9


class TestSseRefinement:
    def test_sse_never_worse_than_ss(self):
        schema = quest_schema()
        cols, labels = generate_quest(2500, function=2, seed=44, noise=0.05)
        cfg_ss = CloudsConfig(method="ss", q_root=50, sample_size=800)
        cfg_sse = CloudsConfig(method="sse", q_root=50, sample_size=800)
        bounds = node_boundaries(schema, {k: v[:800] for k, v in cols.items()}, 50)
        s_ss, _, r_ss = find_split_from_arrays(schema, cols, labels, bounds, cfg_ss)
        s_sse, _, r_sse = find_split_from_arrays(schema, cols, labels, bounds, cfg_sse)
        assert s_sse.gini <= s_ss.gini + 1e-12
        assert r_ss == 0.0 and r_sse >= 0.0

    def test_sse_finds_exact_best_numeric(self):
        # the exact optimum lies strictly inside an interval; SSE must
        # recover it because gini_est is a true lower bound
        schema = quest_schema()
        cols, labels = generate_quest(2000, function=2, seed=55, noise=0.0)
        cfg = CloudsConfig(method="sse", q_root=20, sample_size=300)
        bounds = node_boundaries(
            schema, {k: v[:300] for k, v in cols.items()}, 20
        )
        split, _, _ = find_split_from_arrays(schema, cols, labels, bounds, cfg)
        exact = find_split_direct(schema, cols, labels)
        assert split.gini == pytest.approx(exact.gini, abs=1e-10)

    def test_refine_with_alive_picks_minimum(self):
        from repro.clouds.splits import Split

        a = Split("x", NUMERIC_SPLIT, gini=0.3, threshold=1.0)
        b = Split("y", NUMERIC_SPLIT, gini=0.2, threshold=2.0)
        assert refine_with_alive(a, [None, b]) is b
        assert refine_with_alive(a, []) is a
        assert refine_with_alive(None, [b]) is b


@given(st.integers(1, 24), st.integers(2, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_alive_over_any_block_cut_equals_whole_attribute(q, c, data):
    """An owner in the distributed exchange holds one contiguous block
    of an attribute's intervals, numbered from ``lo`` and carrying the
    class counts to its left in ``base``. However the attribute is cut,
    the blocks' alive intervals together are the whole attribute's, bit
    for bit (another attribute of the schema, held by nobody here, is
    skipped)."""
    schema = make_schema(["x", "y"], {}, n_classes=c)
    hist = np.array(
        data.draw(st.lists(
            st.lists(st.integers(0, 30), min_size=c, max_size=c),
            min_size=q, max_size=q,
        )),
        dtype=np.int64,
    )
    spread = np.array(
        data.draw(st.lists(st.booleans(), min_size=q, max_size=q))
    )
    bounds = np.arange(1.0, q)
    vmin = np.arange(q) + 0.25
    vmax = vmin + np.where(spread, 0.5, 0.0)
    total = hist.sum(axis=0)
    gini_min = data.draw(st.floats(0.0, 1.0))
    cuts = sorted(data.draw(st.sets(st.integers(1, q - 1)))) if q > 1 else []

    def alive(ns):
        found = determine_alive_intervals(
            NodeStats(total=total, numeric={"x": ns}), schema, gini_min
        )
        return [
            (iv.attribute, iv.index, iv.lo, iv.hi, tuple(iv.left_cum),
             iv.count, iv.gini_est)
            for iv in found
        ]

    whole = alive(NumericStats(bounds, hist, vmin, vmax))
    blocks = []
    for lo, hi in zip([0] + cuts, cuts + [q]):
        blocks += alive(NumericStats(
            bounds, hist[lo:hi], vmin[lo:hi], vmax[lo:hi],
            lo=lo, base=hist[:lo].sum(axis=0),
        ))
    assert blocks == whole
