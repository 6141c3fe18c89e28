"""Unit tests of the pCLOUDS building blocks: statistics exchange,
alive-interval evaluation, LPT assignment, small-task processing, and
the access modes."""

import numpy as np
import pytest

from repro.clouds.builder import node_boundaries
from repro.clouds.direct import StoppingRule, fit_direct
from repro.clouds.intervals import class_counts
from repro.clouds.nodestats import stats_from_arrays
from repro.clouds.splits import Split
from repro.clouds.ss import find_split_ss
from repro.clouds.sse import determine_alive_intervals
from repro.clouds.tree import decode_node
from repro.core.access import InCoreAccess, StreamingAccess, open_node
from repro.core.alive import assign_by_cost, evaluate_alive_parallel
from repro.core.config import PCloudsConfig
from repro.core.small_tasks import SmallTask, process_small_tasks
from repro.core.stats_exchange import attribute_owner, exchange_node_stats
from repro.clouds import CloudsConfig
from repro.data import quest_schema, shuffle_split
from repro.data.distribute import load_fragment
from repro.ooc import ColumnSet

from conftest import make_cluster


class TestAttributeOwner:
    def test_round_robin(self):
        assert [attribute_owner(i, 4) for i in range(9)] == [0, 1, 2, 3, 0, 1, 2, 3, 0]

    def test_single_rank_owns_all(self):
        assert all(attribute_owner(i, 1) == 0 for i in range(9))


class TestAssignByCost:
    def test_lpt_balances(self):
        costs = [10.0, 9.0, 8.0, 1.0, 1.0, 1.0]
        owners = assign_by_cost(costs, 3)
        loads = [0.0] * 3
        for c, o in zip(costs, owners):
            loads[o] += c
        assert max(loads) <= 11.0  # LPT: no rank hoards the big items

    def test_deterministic(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert assign_by_cost(costs, 2) == assign_by_cost(costs, 2)

    def test_empty(self):
        assert assign_by_cost([], 4) == []

    def test_more_ranks_than_items(self):
        owners = assign_by_cost([5.0, 3.0], 8)
        assert len(set(owners)) == 2  # spread, not stacked

    def test_single_rank(self):
        assert assign_by_cost([1.0, 2.0], 1) == [0, 0]


class TestExchange:
    @pytest.fixture
    def setup(self, schema, quest_small):
        cols, labels = quest_small
        sample = {k: v[:400] for k, v in cols.items()}
        bounds = node_boundaries(schema, sample, 30)
        total = class_counts(labels, 2)
        frags = shuffle_split(cols, labels, 4, seed=3)
        return schema, bounds, total, frags, cols, labels

    @pytest.mark.parametrize("exchange", ["attribute", "distributed", "allreduce"])
    def test_matches_sequential_ss(self, setup, exchange):
        schema, bounds, total, frags, cols, labels = setup
        config = PCloudsConfig(
            clouds=CloudsConfig(method="sse", q_root=30), exchange=exchange
        )
        seq_stats = stats_from_arrays(schema, cols, labels, bounds)
        seq_split = find_split_ss(seq_stats, schema)
        seq_alive = determine_alive_intervals(seq_stats, schema, seq_split.gini)

        def prog(ctx):
            fcols, flabels = frags[ctx.rank]
            local = stats_from_arrays(schema, fcols, flabels, bounds)
            split, alive = exchange_node_stats(ctx, schema, local, total, config)
            return split, [(iv.attribute, iv.index) for iv in alive]

        run = make_cluster(4).run(prog)
        for split, alive_keys in run.results:
            assert split.gini == pytest.approx(seq_split.gini)
            assert split.attribute == seq_split.attribute
            assert alive_keys == sorted(
                (iv.attribute, iv.index) for iv in seq_alive
            )

    def test_ss_method_returns_no_alive(self, setup):
        schema, bounds, total, frags, _, _ = setup
        config = PCloudsConfig(clouds=CloudsConfig(method="ss", q_root=30))

        def prog(ctx):
            fcols, flabels = frags[ctx.rank]
            local = stats_from_arrays(schema, fcols, flabels, bounds)
            return exchange_node_stats(ctx, schema, local, total, config)[1]

        assert make_cluster(4).run(prog).results == [[]] * 4


class TestParallelAlive:
    def test_matches_sequential_refinement(self, schema, quest_small):
        cols, labels = quest_small
        sample = {k: v[:400] for k, v in cols.items()}
        bounds = node_boundaries(schema, sample, 30)
        stats = stats_from_arrays(schema, cols, labels, bounds)
        boundary = find_split_ss(stats, schema)
        alive = determine_alive_intervals(stats, schema, boundary.gini)
        assert alive
        from repro.clouds.builder import find_split_from_arrays, CloudsConfig as CC

        seq_split, _, _ = find_split_from_arrays(
            schema, cols, labels, bounds, CC(method="sse", q_root=30)
        )
        frags = shuffle_split(cols, labels, 3, seed=5)

        def prog(ctx):
            cs = load_fragment(ctx, schema, frags, batch_rows=300)
            access = open_node(ctx, cs, schema)
            return evaluate_alive_parallel(
                ctx, access, alive, stats.total, schema, boundary
            )

        run = make_cluster(3).run(prog)
        for split in run.results:
            assert split.gini == pytest.approx(seq_split.gini)

    def test_no_alive_returns_boundary(self, schema, quest_small):
        cols, labels = quest_small
        boundary = Split("age", "numeric", gini=0.2, threshold=40.0)
        frags = shuffle_split(cols, labels, 2, seed=5)

        def prog(ctx):
            cs = load_fragment(ctx, schema, frags)
            access = open_node(ctx, cs, schema)
            return evaluate_alive_parallel(
                ctx, access, [], class_counts(labels, 2), schema, boundary
            )

        assert all(s is boundary for s in make_cluster(2).run(prog).results)


class TestAccessModes:
    @pytest.fixture
    def fragments(self, schema, quest_small):
        return shuffle_split(*quest_small, 1, seed=0)

    def test_mode_selected_by_memory(self, schema, fragments):
        def prog(ctx):
            cs = load_fragment(ctx, schema, fragments)
            return type(open_node(ctx, cs, schema)).__name__

        assert make_cluster(1).run(prog).results == ["InCoreAccess"]
        assert make_cluster(1, memory_limit=1024).run(prog).results == [
            "StreamingAccess"
        ]

    def test_open_in_core_fragments_count_against_the_limit(
        self, schema, fragments, quest_small
    ):
        """An in-core access holds its fragment's bytes on the memory
        budget until released: with a limit L, a second node of 0.6 L
        streams while the first is open, and opens in core after."""
        node_bytes = len(quest_small[1]) * schema.row_nbytes()

        def prog(ctx):
            first = load_fragment(ctx, schema, fragments, name="a")
            second = load_fragment(ctx, schema, fragments, name="b")
            assert first.nbytes == second.nbytes == node_bytes
            held = open_node(ctx, first, schema)
            beside = open_node(ctx, second, schema)
            modes = [type(held).__name__, type(beside).__name__]
            reserved = ctx.memory.reserved
            beside.release()
            held.release()
            after = open_node(ctx, second, schema)
            modes.append(type(after).__name__)
            after.release()
            return modes, reserved, ctx.memory.reserved, ctx.memory.high_water

        limit = int(node_bytes / 0.6)
        modes, reserved, left, high = make_cluster(1, memory_limit=limit).run(
            prog
        ).results[0]
        assert modes == ["InCoreAccess", "StreamingAccess", "InCoreAccess"]
        assert reserved == node_bytes
        assert left == 0
        assert high <= limit

    def test_modes_produce_identical_stats(self, schema, fragments, quest_small):
        cols, labels = quest_small
        bounds = node_boundaries(schema, {k: v[:300] for k, v in cols.items()}, 20)

        def prog(ctx, mode):
            cs = load_fragment(ctx, schema, fragments, batch_rows=256)
            access = (InCoreAccess if mode == "core" else StreamingAccess)(
                ctx, cs, schema
            )
            stats = access.stats_pass(bounds)
            return stats.total, {k: v.hist for k, v in stats.numeric.items()}

        core = make_cluster(1).run(prog, "core").results[0]
        stream = make_cluster(1).run(prog, "stream").results[0]
        np.testing.assert_array_equal(core[0], stream[0])
        for k in core[1]:
            np.testing.assert_array_equal(core[1][k], stream[1][k])

    def test_streaming_reads_more_bytes(self, schema, fragments):
        bounds_q = 10

        def prog(ctx, mode):
            cs = load_fragment(ctx, schema, fragments, batch_rows=256)
            sample_cols, _ = cs.read_all()
            bounds = node_boundaries(schema, sample_cols, bounds_q)
            before = ctx.stats.bytes_read
            access = (InCoreAccess if mode == "core" else StreamingAccess)(
                ctx, cs, schema
            )
            access.stats_pass(bounds)
            access.partition(Split("age", "numeric", gini=0.1, threshold=50.0))
            return ctx.stats.bytes_read - before

        core = make_cluster(1).run(prog, "core").results[0]
        stream = make_cluster(1).run(prog, "stream").results[0]
        assert stream > core  # streaming re-reads for the partition pass

    def test_partition_modes_agree(self, schema, fragments, quest_small):
        cols, labels = quest_small
        split = Split("age", "numeric", gini=0.1, threshold=50.0)

        def prog(ctx, mode):
            cs = load_fragment(ctx, schema, fragments, batch_rows=256)
            access = (InCoreAccess if mode == "core" else StreamingAccess)(
                ctx, cs, schema
            )
            left, right, counts = access.partition(split)
            return left.nrows, right.nrows, counts

        core = make_cluster(1).run(prog, "core").results[0]
        stream = make_cluster(1).run(prog, "stream").results[0]
        assert core[0] == stream[0] and core[1] == stream[1]
        np.testing.assert_array_equal(core[2], stream[2])
        expect_left = int((cols["age"] <= 50.0).sum())
        assert core[0] == expect_left


class TestSmallTasks:
    def test_parallel_small_tasks_match_sequential_direct(self, schema, quest_small):
        cols, labels = quest_small
        config = PCloudsConfig(clouds=CloudsConfig(q_root=50, min_node=8))
        frags = shuffle_split(cols, labels, 3, seed=9)
        total = class_counts(labels, 2)

        def prog(ctx):
            cs = load_fragment(ctx, schema, frags)
            task = SmallTask(
                node_id=7, depth=2, n_global=len(labels),
                class_counts=total, columnset=cs,
            )
            return process_small_tasks(ctx, [task], schema, config)

        run = make_cluster(3).run(prog)
        built = {}
        for r in run.results:
            built.update(r)
        assert set(built) == {7}
        root = decode_node(built[7])
        assert root.depth == 2
        np.testing.assert_array_equal(root.class_counts, total)
        # same records => same accuracy as a sequential direct build
        seq = fit_direct(schema, cols, labels, StoppingRule(min_node=8))
        from repro.clouds.metrics import accuracy
        from repro.clouds.tree import DecisionTree

        par_tree = DecisionTree(root=root, schema=schema)
        assert accuracy(labels, par_tree.predict(cols)) == pytest.approx(
            accuracy(labels, seq.predict(cols)), abs=0.01
        )

    def test_tasks_spread_across_owners(self, schema, quest_small):
        cols, labels = quest_small
        config = PCloudsConfig(clouds=CloudsConfig(q_root=50, min_node=8))
        frags = shuffle_split(cols, labels, 4, seed=10)

        def prog(ctx):
            tasks = []
            fcols, flabels = frags[ctx.rank]
            step = len(flabels) // 4
            for t in range(4):
                lo, hi = t * step, (t + 1) * step
                cs = ColumnSet.from_arrays(
                    ctx.disk,
                    schema,
                    {k: v[lo:hi] for k, v in fcols.items()},
                    flabels[lo:hi],
                    name=f"t{t}",
                )
                tasks.append(
                    SmallTask(
                        node_id=t, depth=1, n_global=step * 4,
                        class_counts=class_counts(labels, 2), columnset=cs,
                    )
                )
            out = process_small_tasks(ctx, tasks, schema, config)
            return sorted(out)

        run = make_cluster(4).run(prog)
        owned = [r for r in run.results if r]
        assert sum(len(o) for o in owned) == 4  # every task built exactly once
        assert len(owned) >= 2  # spread over at least two ranks
