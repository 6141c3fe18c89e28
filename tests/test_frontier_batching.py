"""Pool-sized frontier batches: the driver cuts each breadth-first level's
large nodes into batches that fit the rank's buffer pool together, and
pays one set of collectives per batch. A pool smaller than any large
node makes every node a batch of one (the paper's per-node cycle); no
pool, or a large one, makes every level one batch. Trees must be
bit-identical either way, under every exchange strategy, method,
residency mode and fault plan."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.comm import CommMismatchError
from repro.cluster.errors import SpmdProgramError
from repro.cluster.faults import CrashAtCollective, CrashAtPhase, FaultPlan
from repro.clouds import CloudsConfig, validate_tree
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.core.pclouds import _pool_batches
from repro.data import generate_quest, quest_schema

from conftest import make_cluster

#: smaller than any large node's per-rank fragment: batches of one
SMALL_POOL = 1024
#: holds every level of these fits: one batch per level
LARGE_POOL = 64 * 2**20


def fit(p, cols, labels, *, pool=None, exchange="attribute", method="sse",
        memory_limit=None, seed=0, q_root=80, q_switch=10, trace=False,
        faults=None, recover=False):
    """``pool`` is the buffer-pool capacity in bytes (None: no pool)."""
    schema = quest_schema()
    cluster = make_cluster(
        p, memory_limit=memory_limit, seed=seed,
        buffer_pool="off" if pool is None else "lru+prefetch", pool_bytes=pool,
    )
    ds = DistributedDataset.create(cluster, schema, cols, labels, seed=seed + 1)
    cfg = PCloudsConfig(
        clouds=CloudsConfig(
            method=method, q_root=q_root, sample_size=600, min_node=8
        ),
        q_switch=q_switch,
        exchange=exchange,
    )
    return PClouds(cfg).fit(
        ds, seed=seed + 2, trace=trace, faults=faults, recover=recover
    )


def n_cycles(res):
    """Stats → alive → partition cycles the driver opened (rank 0)."""
    return sum(
        1 for e in res.tracers[0].events if e.kind == "phase" and e.op == "stats"
    )


@pytest.fixture(scope="module")
def data():
    return generate_quest(3000, function=2, seed=13, noise=0.03)


class TestPoolBatches:
    """The batch cut itself: consecutive slices, closed greedily at the
    pool capacity."""

    @staticmethod
    def cut(sizes, capacity, p=2):
        pool = None if capacity is None else SimpleNamespace(capacity=capacity)
        ctx = SimpleNamespace(size=p, disk=SimpleNamespace(pool=pool))
        large = [SimpleNamespace(counts=np.array([n, 0])) for n in sizes]
        return _pool_batches(ctx, large, quest_schema())

    def test_no_pool_is_one_batch_per_level(self):
        assert self.cut([400, 300, 9000], None) == [(0, 3)]
        assert self.cut([], None) == []

    def test_greedy_cut_at_capacity(self):
        # per-rank estimates at p=2: ceil(n/2) rows of 64 bytes
        row = quest_schema().row_nbytes()
        cap = 300 * row
        # 100 + 150 rows fit (250); + 100 would be 350 > 300: new batch
        assert self.cut([200, 300, 200, 199], cap) == [(0, 2), (2, 4)]
        # exactly at capacity still shares the batch
        assert self.cut([200, 400], cap) == [(0, 2)]

    def test_oversized_node_is_a_batch_of_one(self):
        row = quest_schema().row_nbytes()
        assert self.cut([100, 5000, 100, 100], 200 * row) == [
            (0, 1), (1, 2), (2, 4)
        ]
        assert self.cut([5000], 200 * row) == [(0, 1)]

    def test_estimate_rounds_up_per_rank(self):
        row = quest_schema().row_nbytes()
        # ceil(3/2) = 2 rows per node: two nodes need 4 rows
        assert self.cut([3, 3], 3 * row) == [(0, 1), (1, 2)]
        assert self.cut([3, 3], 4 * row) == [(0, 2)]


class TestMinlocMany:
    """The vectorized k-way min election behind the batched pipeline."""

    def test_matches_k_single_elections(self):
        cluster = make_cluster(4)

        def prog(ctx):
            values = [float((ctx.rank * 7 + s * 3) % 5) for s in range(6)]
            payloads = [f"r{ctx.rank}s{s}" for s in range(6)]
            singles = [
                ctx.comm.allreduce_minloc(values[s], payloads[s])
                for s in range(6)
            ]
            batched = ctx.comm.allreduce_minloc_many(values, payloads)
            return singles, batched

        for singles, batched in cluster.run(prog).results:
            assert batched == singles

    def test_tiebreaks_pick_smallest_key(self):
        cluster = make_cluster(4)

        def prog(ctx):
            # equal values everywhere: the tiebreak key must decide,
            # with None keys losing to present keys
            tb = None if ctx.rank == 0 else ("k", -ctx.rank)
            return ctx.comm.allreduce_minloc_many(
                [1.0, 1.0], [f"p{ctx.rank}", f"q{ctx.rank}"],
                tiebreaks=[tb, tb],
            )

        for out in cluster.run(prog).results:
            # smallest tuple key is ("k", -3) at rank 3
            assert out == [(1.0, "p3", 3), (1.0, "q3", 3)]

    def test_slot_count_mismatch_aborts(self):
        cluster = make_cluster(2)

        def prog(ctx):
            k = 2 if ctx.rank == 0 else 3
            with pytest.raises(CommMismatchError):
                ctx.comm.allreduce_minloc_many([0.0] * k, list(range(k)))
            raise SpmdProgramError("stop")  # the world is already aborted

        with pytest.raises(SpmdProgramError):
            cluster.run(prog)

    def test_misaligned_payloads_rejected(self):
        cluster = make_cluster(2)

        def prog(ctx):
            with pytest.raises(ValueError):
                ctx.comm.allreduce_minloc_many([0.0, 1.0], [None])
            return True

        assert all(cluster.run(prog).results)


class TestBitIdentity:
    """Whole-level batches (large pool) against batches of one (small
    pool): same tree, same decomposition, same survival trace."""

    @pytest.mark.parametrize("exchange", ["attribute", "distributed", "allreduce"])
    @pytest.mark.parametrize("method", ["sse", "ss"])
    def test_level_equals_per_node(self, data, exchange, method):
        cols, labels = data
        a = fit(4, cols, labels, pool=LARGE_POOL, exchange=exchange,
                method=method)
        b = fit(4, cols, labels, pool=SMALL_POOL, exchange=exchange,
                method=method)
        assert a.tree.to_dict() == b.tree.to_dict()
        validate_tree(a.tree)
        assert a.n_large_nodes == b.n_large_nodes
        assert a.n_small_tasks == b.n_small_tasks
        assert a.survival_ratios == b.survival_ratios

    @pytest.mark.parametrize("seed", [1, 2])
    def test_level_equals_per_node_across_seeds(self, data, seed):
        cols, labels = data
        a = fit(4, cols, labels, pool=LARGE_POOL, seed=seed)
        b = fit(4, cols, labels, pool=SMALL_POOL, seed=seed)
        assert a.tree.to_dict() == b.tree.to_dict()

    def test_streaming_residency_identical(self, data):
        """A batch holds every node of it open at once; that must not
        change trees when fragments stream from disk."""
        cols, labels = data
        tight = fit(4, cols, labels, memory_limit=16 * 1024)
        loose = fit(4, cols, labels, pool=SMALL_POOL, memory_limit=None)
        assert tight.tree.to_dict() == loose.tree.to_dict()

    def test_single_rank(self, data):
        cols, labels = data
        a = fit(1, cols, labels, pool=LARGE_POOL)
        b = fit(1, cols, labels, pool=SMALL_POOL)
        assert a.tree.to_dict() == b.tree.to_dict()


class TestFaultRecovery:
    """PR 2's level-boundary checkpoint protocol: batches never straddle
    a level, so checkpoints stay per level."""

    def test_crash_at_collective_recovers_identical_tree(self, data):
        cols, labels = data
        clean = fit(4, cols, labels)
        plan = FaultPlan.of("crash", CrashAtCollective(rank=1, nth=20))
        crashed = fit(4, cols, labels, faults=plan, recover=True)
        assert crashed.n_restarts >= 1
        assert crashed.tree.to_dict() == clean.tree.to_dict()
        assert crashed.elapsed > clean.elapsed  # lost attempt is charged

    def test_crash_at_partition_phase_recovers(self, data):
        cols, labels = data
        clean = fit(4, cols, labels, pool=SMALL_POOL)
        plan = FaultPlan.of("crash", CrashAtPhase(rank=3, phase="partition"))
        crashed = fit(4, cols, labels, pool=SMALL_POOL, faults=plan,
                      recover=True)
        assert crashed.n_restarts >= 1
        assert crashed.tree.to_dict() == clean.tree.to_dict()

    def test_crash_mid_batch_releases_in_core_fragments(self, data):
        """A crash between a batch's stats pass and its partition must
        not leave the batch's in-core bytes reserved for the next
        attempt."""
        cols, labels = data
        schema = quest_schema()
        cluster = make_cluster(4, memory_limit=64 * 1024)
        ds = DistributedDataset.create(cluster, schema, cols, labels, seed=1)
        plan = FaultPlan.of("crash", CrashAtPhase(rank=3, phase="alive"))
        cfg = PCloudsConfig(
            clouds=CloudsConfig(q_root=80, sample_size=600, min_node=8)
        )
        with pytest.raises(SpmdProgramError):
            PClouds(cfg).fit(ds, seed=2, faults=plan)
        assert [c.memory.reserved for c in ds.contexts] == [0] * 4


class TestCollectiveCounts:
    def _per_level_counts(self, tracer):
        """Collective counts per frontier level, from rank-0's trace:
        each level opens with a "stats" phase, the large-node loop ends
        where "small_nodes" begins."""
        from repro.cluster.trace import _P2P_OPS

        phases = [e for e in tracer.events if e.kind == "phase"]
        starts = [e.t_start for e in phases if e.op == "stats"]
        tail = [e.t_start for e in phases if e.op == "small_nodes"]
        end = tail[0] if tail else max(e.t_end for e in tracer.events)
        windows = list(zip(starts, starts[1:] + [end]))
        return [
            sum(
                1
                for e in tracer.events
                if e.kind == "comm" and e.op not in _P2P_OPS
                and w0 <= e.t_start < w1
            )
            for w0, w1 in windows
        ]

    def test_per_level_count_constant_in_frontier_width(self, data):
        cols, labels = data
        res = fit(4, cols, labels, trace=True)
        counts = self._per_level_counts(res.tracers[0])
        assert len(counts) >= 3
        # more large nodes than levels: some level carried several nodes,
        # yet every level paid the identical number of collectives
        assert res.n_large_nodes > len(counts)
        assert len(set(counts)) == 1
        # the full batched cycle: stats alltoall + boundary election +
        # alive allgather + member alltoall + interior election + one
        # left-count allreduce
        assert counts[0] == 6

    def test_per_node_pays_one_cycle_per_node(self, data):
        """A pool smaller than any large node opens a stats → alive →
        partition cycle per *node*; without a pool the driver opens one
        per *level*. Same tree either way."""
        cols, labels = data
        per_node = fit(4, cols, labels, pool=SMALL_POOL, trace=True)
        level = fit(4, cols, labels, trace=True)
        assert n_cycles(per_node) == per_node.n_large_nodes
        assert n_cycles(level) == len(self._per_level_counts(level.tracers[0]))
        assert n_cycles(level) < level.n_large_nodes
        assert per_node.n_large_nodes == level.n_large_nodes
        assert per_node.tree.to_dict() == level.tree.to_dict()

    def test_pool_sized_batches_between_the_extremes(self, data):
        """A pool that holds some but not all of a level's nodes cuts
        levels into several batches: more cycles than levels, fewer than
        nodes, and the same tree."""
        cols, labels = data
        level = fit(4, cols, labels, trace=True)
        mid = fit(4, cols, labels, pool=24 * 1024, trace=True)
        n_levels = n_cycles(level)
        assert n_levels < n_cycles(mid) < mid.n_large_nodes
        assert mid.tree.to_dict() == level.tree.to_dict()

    def test_batched_issues_fewer_collectives(self, data):
        cols, labels = data
        for exchange in ("attribute", "distributed", "allreduce"):
            a = fit(4, cols, labels, pool=LARGE_POOL, exchange=exchange)
            b = fit(4, cols, labels, pool=SMALL_POOL, exchange=exchange)
            ca = a.run.stats.per_rank[0].collectives
            cb = b.run.stats.per_rank[0].collectives
            assert ca < cb, (exchange, ca, cb)
            assert a.elapsed < b.elapsed, exchange

    def test_schedules_match_across_ranks(self, data):
        from repro.cluster.trace import assert_schedules_match

        cols, labels = data
        for pool in (None, 24 * 1024):
            res = fit(4, cols, labels, pool=pool, trace=True)
            assert_schedules_match(res.tracers)


class TestConfig:
    def test_validation(self):
        assert PCloudsConfig().frontier_batching == "level"
        assert PCloudsConfig(frontier_batching="level").frontier_batching == (
            "level"
        )
        for retired in ("node", "per_node"):
            with pytest.raises(ValueError):
                PCloudsConfig(frontier_batching=retired)


class TestVectorizedSatellites:
    """The loop-to-vector rewrites that rode along must keep exact
    semantics (ties included)."""

    def test_greedy_subset_matches_scalar_scan(self):
        from repro.clouds.gini import _greedy_subset, weighted_gini

        def scalar(counts):
            present = list(np.flatnonzero(counts.sum(axis=1) > 0))
            all_counts = counts.sum(axis=0, dtype=np.float64)
            left, left_counts = set(), np.zeros_like(all_counts)
            best = (float("inf"), frozenset())
            while len(left) < len(present) - 1:
                move = None
                for v in present:
                    if v in left:
                        continue
                    cand = left_counts + counts[v]
                    g = float(weighted_gini(cand, all_counts - cand))
                    if move is None or g < move[0]:
                        move = (g, v)
                if move is None:
                    break
                g, v = move
                left.add(v)
                left_counts = left_counts + counts[v]
                if g < best[0]:
                    best = (g, frozenset(left))
                else:
                    break
            return best

        rng = np.random.default_rng(3)
        for _ in range(300):
            counts = rng.integers(
                0, 8, size=(int(rng.integers(1, 14)), int(rng.integers(2, 5)))
            ).astype(np.float64)
            assert _greedy_subset(counts) == scalar(counts)

    def test_apportion_matches_repeated_max(self):
        from repro.core.pclouds import apportion_sample

        def repeated_max(sample_size, counts):
            total = sum(counts)
            if total <= 0:
                return [0] * len(counts)
            want = min(int(sample_size), total)
            quotas = [want * c / total for c in counts]
            out = [min(int(q), c) for q, c in zip(quotas, counts)]
            while sum(out) < want:
                r = max(
                    (r for r in range(len(counts)) if out[r] < counts[r]),
                    key=lambda r: (quotas[r] - out[r], -r),
                )
                out[r] += 1
            return out

        import random

        rng = random.Random(7)
        for _ in range(500):
            counts = [rng.randint(0, 30) for _ in range(rng.randint(1, 10))]
            want = rng.randint(0, 80)
            assert apportion_sample(want, counts) == repeated_max(want, counts)
