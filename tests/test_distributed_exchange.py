"""The distributed (interval-granular) statistics exchange: block
ownership, prefix-sum bases, and agreement with the replication method
under adversarial machine shapes."""

import numpy as np
import pytest

from repro.clouds import CloudsConfig
from repro.clouds.builder import node_boundaries
from repro.clouds.intervals import class_counts
from repro.clouds.nodestats import stats_from_arrays
from repro.core.config import PCloudsConfig
from repro.core.stats_exchange import _interval_block, exchange_node_stats
from repro.data import generate_quest, shuffle_split

from conftest import make_cluster


class TestIntervalBlocks:
    def test_blocks_partition_range(self):
        for q in (1, 7, 16, 100):
            for p in (1, 3, 8):
                covered = []
                for r in range(p):
                    lo, hi = _interval_block(q, p, r)
                    covered.extend(range(lo, hi))
                assert covered == list(range(q))

    def test_blocks_balanced(self):
        for q, p in ((100, 8), (17, 4)):
            sizes = [
                _interval_block(q, p, r)[1] - _interval_block(q, p, r)[0]
                for r in range(p)
            ]
            assert max(sizes) - min(sizes) <= 1

    def test_more_ranks_than_intervals(self):
        # some ranks own nothing; nothing is lost
        sizes = [
            _interval_block(3, 8, r)[1] - _interval_block(3, 8, r)[0]
            for r in range(8)
        ]
        assert sum(sizes) == 3
        assert max(sizes) == 1


class TestDistributedAgreement:
    @pytest.fixture(scope="class")
    def setup(self, schema):
        cols, labels = generate_quest(2500, function=2, seed=61, noise=0.03)
        sample = {k: v[:400] for k, v in cols.items()}
        bounds = node_boundaries(schema, sample, 24)
        total = class_counts(labels, 2)
        return schema, cols, labels, bounds, total

    def _run(self, setup, p, exchange):
        schema, cols, labels, bounds, total = setup
        frags = shuffle_split(cols, labels, p, seed=7)
        config = PCloudsConfig(
            clouds=CloudsConfig(method="sse", q_root=24), exchange=exchange
        )

        def prog(ctx):
            fcols, flabels = frags[ctx.rank]
            local = stats_from_arrays(schema, fcols, flabels, bounds)
            split, alive = exchange_node_stats(ctx, schema, local, total, config)
            return (
                split.attribute,
                split.gini,
                [(iv.attribute, iv.index, iv.count, tuple(iv.left_cum))
                 for iv in alive],
            )

        return make_cluster(p).run(prog).results

    @pytest.mark.parametrize("p", [1, 2, 5, 13])
    def test_agrees_with_attribute_method_any_p(self, setup, p):
        """p=13 > q/p boundaries per rank, p=1 trivial, p=5 uneven blocks —
        the distributed method must match exactly everywhere, including
        the alive intervals' left-cumulative vectors (the prefix sum)."""
        ref = self._run(setup, p, "attribute")[0]
        got = self._run(setup, p, "distributed")
        for r in got:
            assert r[0] == ref[0]
            assert r[1] == pytest.approx(ref[1])
            assert r[2] == ref[2]

    def test_left_cums_match_data(self, setup):
        schema, cols, labels, bounds, total = setup
        out = self._run(setup, 4, "distributed")[0]
        for attr, idx, count, left_cum in out[2]:
            b = bounds[attr]
            lo = b[idx - 1] if idx > 0 else -np.inf
            left_mask = cols[attr] <= lo
            expect = np.bincount(labels[left_mask], minlength=2)
            np.testing.assert_array_equal(np.asarray(left_cum), expect)

    @pytest.mark.parametrize("method", ["ss", "sse"])
    def test_one_rank_charges_what_the_attribute_method_charges(
        self, setup, method
    ):
        """At p = 1 the one owner holds every block and every attribute
        whole, so both methods charge the same combine, sweep,
        categorical search and alive work (blocks wait for the prefix
        sum, so the charges add up in another order)."""
        schema, cols, labels, bounds, total = setup
        assert schema.categorical

        def prog(ctx, exchange):
            local = stats_from_arrays(schema, cols, labels, bounds)
            before = ctx.stats.compute_time
            exchange_node_stats(
                ctx, schema, local, total,
                PCloudsConfig(clouds=CloudsConfig(method=method, q_root=24),
                              exchange=exchange),
            )
            return ctx.stats.compute_time - before

        dist = make_cluster(1).run(prog, "distributed").results
        attr = make_cluster(1).run(prog, "attribute").results
        assert dist == pytest.approx(attr, rel=1e-12)

    def test_compute_spread_over_all_ranks(self, setup):
        """The distributed method's selling point: with p > #attributes
        the sweep work lands on every rank, not just the attribute
        owners."""
        schema, cols, labels, bounds, total = setup
        p = 12  # > 9 attributes
        frags = shuffle_split(cols, labels, p, seed=8)

        def prog(ctx, exchange):
            fcols, flabels = frags[ctx.rank]
            local = stats_from_arrays(schema, fcols, flabels, bounds)
            before = ctx.stats.compute_time
            exchange_node_stats(
                ctx, schema, local, total,
                PCloudsConfig(clouds=CloudsConfig(method="ss", q_root=24),
                              exchange=exchange),
            )
            return ctx.stats.compute_time - before

        dist = make_cluster(p).run(prog, "distributed").results
        attr = make_cluster(p).run(prog, "attribute").results
        # attribute-based: 3 of 12 ranks idle through the sweep entirely
        assert sum(1 for t in attr if t == 0.0) >= 3
        # distributed: every rank does some combining/sweeping
        assert all(t > 0.0 for t in dist)
