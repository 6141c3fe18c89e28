"""Top-k voting exchange (PV-Tree style): exactness when every attribute
is nominated, bounded approximation when k < f, deterministic elections,
checkpoint/restart election replay, and O(f) → O(k) payload accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import CrashAtCollective, FaultPlan
from repro.clouds import CloudsConfig, accuracy, validate_tree
from repro.clouds.builder import node_boundaries
from repro.clouds.intervals import class_counts
from repro.clouds.nodestats import stats_from_arrays
from repro.core import EXCHANGE_STRATEGIES, DistributedDataset, PClouds, PCloudsConfig
from repro.core.stats_exchange import _elect_candidates, exchange_node_stats
from repro.data import generate_quest, make_schema, quest_schema

from conftest import make_cluster
from test_property_exchange import SCHEMA, _random_fragments


def fit(p, cols, labels, *, exchange, vote_top_k=8, method="sse",
        pool=None, seed=0, trace=False, metrics=False, faults=None,
        recover=False, observers=None):
    """``pool`` is the buffer-pool capacity in bytes (None: no pool)."""
    schema = quest_schema()
    cluster = make_cluster(
        p, seed=seed, buffer_pool="off" if pool is None else "lru",
        pool_bytes=pool,
    )
    ds = DistributedDataset.create(cluster, schema, cols, labels, seed=seed + 1)
    if observers is not None:
        for ctx, obs in zip(ds.contexts, observers):
            ctx.observers.append(obs)
    cfg = PCloudsConfig(
        clouds=CloudsConfig(
            method=method, q_root=80, sample_size=600, min_node=8
        ),
        exchange=exchange,
        vote_top_k=vote_top_k,
    )
    return PClouds(cfg).fit(
        ds, seed=seed + 2, trace=trace, metrics=metrics, faults=faults,
        recover=recover,
    )


@pytest.fixture(scope="module")
def data():
    return generate_quest(3000, function=2, seed=13, noise=0.03)


class TestExactWhenKCoversSchema:
    """k >= f means every rank nominates every attribute, all are
    elected, and the restricted exchange degenerates to the exact
    attribute-partitioned one — same splits, same alive sets, bit for
    bit."""

    @given(
        st.integers(1, 4),
        st.integers(40, 300),
        st.integers(3, 20),
        st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_node_exchange_matches_attribute(self, p, n, q, seed):
        rng = np.random.default_rng(seed)
        cols, labels, frags = _random_fragments(rng, n, p)
        bounds = node_boundaries(SCHEMA, cols, q)
        total = class_counts(labels, 2)

        def prog_for(exchange, top_k):
            config = PCloudsConfig(
                clouds=CloudsConfig(method="sse", q_root=max(q, 2)),
                exchange=exchange,
                vote_top_k=top_k,
            )

            def prog(ctx):
                fcols, flabels = frags[ctx.rank]
                local = stats_from_arrays(SCHEMA, fcols, flabels, bounds)
                split, alive = exchange_node_stats(
                    ctx, SCHEMA, local, total, config
                )
                key = None
                if split is not None:
                    key = (split.attribute, split.kind, round(split.gini, 12))
                return key, sorted(
                    (iv.attribute, iv.index, iv.count) for iv in alive
                )

            return prog

        # k = f = 3 attributes in SCHEMA: voting must be exact
        exact = make_cluster(p).run(prog_for("attribute", 3)).results
        voted = make_cluster(p).run(
            prog_for("voting", len(SCHEMA.attributes))
        ).results
        assert voted == exact

    @pytest.mark.parametrize("method", ["ss", "sse"])
    @pytest.mark.parametrize("p", [2, 4])
    def test_full_fit_bit_identical(self, data, method, p):
        cols, labels = data
        f = len(quest_schema().attributes)
        exact = fit(p, cols, labels, exchange="attribute", method=method,
                    trace=True)
        voted = fit(p, cols, labels, exchange="voting", vote_top_k=f,
                    method=method, trace=True)
        assert voted.tree.to_dict() == exact.tree.to_dict()
        validate_tree(voted.tree)
        # no vote is held: the attribute method to the simulated second,
        # with the same world collectives carrying the same bytes
        assert voted.elapsed == exact.elapsed

        def world_schedule(res):
            return [
                [(e.op, e.sent, e.received) for e in t.comm_events()
                 if e.comm == "world"]
                for t in res.tracers
            ]

        assert world_schedule(voted) == world_schedule(exact)
        assert all(
            op != "vote" for rank in world_schedule(voted) for op, _, _ in rank
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_full_fit_bit_identical_across_seeds(self, data, seed):
        cols, labels = data
        exact = fit(4, cols, labels, exchange="attribute", seed=seed)
        voted = fit(4, cols, labels, exchange="voting", vote_top_k=9,
                    seed=seed)
        assert voted.tree.to_dict() == exact.tree.to_dict()


class TestApproximation:
    def test_level_equals_per_node(self, data):
        """Whole-level batches (large pool) must replay the exact same
        elections as batches of one (a pool smaller than any large node)
        even when k < f."""
        cols, labels = data
        a = fit(4, cols, labels, exchange="voting", vote_top_k=2,
                pool=64 * 2**20, trace=True)
        b = fit(4, cols, labels, exchange="voting", vote_top_k=2,
                pool=1024, trace=True)
        assert a.tree.to_dict() == b.tree.to_dict()
        votes = [
            sum(1 for e in r.tracers[0].events if e.kind == "comm" and e.op == "vote")
            for r in (a, b)
        ]
        assert votes[0] < votes[1] == b.n_large_nodes

    def test_small_k_accuracy_stays_close(self, data):
        """Restricting splits to elected candidates loses little: the
        locally best attributes are usually globally best too."""
        cols, labels = data
        exact = fit(4, cols, labels, exchange="attribute")
        voted = fit(4, cols, labels, exchange="voting", vote_top_k=2)
        acc_exact = accuracy(labels, exact.tree.predict(cols))
        acc_voted = accuracy(labels, voted.tree.predict(cols))
        assert acc_voted >= acc_exact - 0.02
        validate_tree(voted.tree)


class TestElection:
    def test_majority_wins(self):
        ballots = [
            np.array([[0.0, 0.1], [1.0, 0.2]]),
            np.array([[0.0, 0.3], [2.0, 0.2]]),
            np.array([[0.0, 0.2], [3.0, 0.2]]),
        ]
        # 2k = 2 winners: attribute 0 has 3 votes, the rest tie at one
        # vote each — best gini 0.2 is shared, index breaks the tie
        assert _elect_candidates(ballots, n_attrs=5, top_k=1) == [0, 1]

    def test_tie_broken_by_best_gini_then_index(self):
        ballots = [
            np.array([[4.0, 0.5], [2.0, 0.1]]),
            np.array([[3.0, 0.1], [1.0, 0.5]]),
        ]
        # all four get one vote; gini ranks 2 and 3 first, then 1 vs 4
        # tie at 0.5 and index 1 wins the third seat
        assert _elect_candidates(ballots, n_attrs=6, top_k=1) == [2, 3]
        assert _elect_candidates(ballots, n_attrs=6, top_k=2) == [1, 2, 3, 4]

    def test_winner_count_capped_by_schema(self):
        ballots = [np.array([[float(i), 0.1 * i] for i in range(4)])]
        assert _elect_candidates(ballots, n_attrs=4, top_k=8) == [0, 1, 2, 3]

    def test_deterministic_under_ballot_order(self):
        rng = np.random.default_rng(5)
        ballots = [
            np.array([[float(a), float(g)] for a, g in
                      zip(rng.choice(12, 4, replace=False),
                          rng.random(4).round(3))])
            for _ in range(6)
        ]
        expect = _elect_candidates(ballots, n_attrs=12, top_k=4)
        for _ in range(10):
            rng.shuffle(ballots)
            assert _elect_candidates(ballots, n_attrs=12, top_k=4) == expect


class _ElectionLog:
    """Observer recording every elected candidate set, reset on restart
    so the log holds only the successful attempt's elections."""

    def __init__(self):
        self.elections = []

    def begin_attempt(self, _attempt):
        self.elections = []

    def on_vote_election(self, elected_sets):
        self.elections.append(elected_sets)


class TestFaultRecovery:
    def test_crash_recovers_identical_tree_and_elections(self, data):
        cols, labels = data
        clean_logs = [_ElectionLog() for _ in range(4)]
        clean = fit(4, cols, labels, exchange="voting", vote_top_k=2,
                    observers=clean_logs)

        crash_logs = [_ElectionLog() for _ in range(4)]
        plan = FaultPlan.of("crash", CrashAtCollective(rank=1, nth=20))
        crashed = fit(4, cols, labels, exchange="voting", vote_top_k=2,
                      faults=plan, recover=True, observers=crash_logs)

        assert crashed.n_restarts >= 1
        assert crashed.tree.to_dict() == clean.tree.to_dict()
        # the restart resumes from the level checkpoint, so the
        # surviving attempt's elections (the log resets per attempt) are
        # the clean run's tail — every replayed level elected the
        # identical candidate sets
        assert clean_logs[0].elections  # the hook fired at all
        for clean_log, crash_log in zip(clean_logs, crash_logs):
            n = len(crash_log.elections)
            assert 0 < n <= len(clean_log.elections)
            assert crash_log.elections == clean_log.elections[-n:]


class TestObservability:
    def test_trace_carries_vote_events_and_rollup(self, data):
        from repro.cluster.trace import assert_schedules_match
        from repro.cluster.tracereport import TraceReport

        cols, labels = data
        res = fit(4, cols, labels, exchange="voting", vote_top_k=2,
                  trace=True)
        assert_schedules_match(res.tracers)
        assert any(
            e.op == "vote" for e in res.tracers[0].comm_events()
        )
        report = TraceReport(res.tracers)
        assert report.exchange_strategy == "voting"
        rollup = report.exchange_rollup()
        assert rollup and all(r.count > 0 for r in rollup)
        assert report.exchange_bytes() == sum(r.sent for r in rollup)
        assert "strategy: voting" in report.render()

    def test_payload_metrics_populate(self, data):
        cols, labels = data
        res = fit(2, cols, labels, exchange="voting", vote_top_k=2,
                  metrics=True)
        families = {
            fam["name"]: fam for fam in res.metrics_snapshot()["metrics"]
        }
        payload = families["repro_exchange_payload_bytes_total"]["samples"]
        assert all(
            s["labels"]["strategy"] == "voting" for s in payload
        )
        assert sum(s["value"] for s in payload) > 0
        elected = families["repro_exchange_elected_attributes_total"]
        assert sum(s["value"] for s in elected["samples"]) > 0

    def test_voting_moves_fewer_stats_bytes(self, data):
        """The point of the strategy, on the real driver: stats-phase
        traffic shrinks vs the exact attribute exchange (quest has only
        f=9 attributes; bench_voting.py measures the f=64 regime)."""
        from repro.cluster.tracereport import TraceReport

        cols, labels = data
        exact = fit(4, cols, labels, exchange="attribute", trace=True)
        voted = fit(4, cols, labels, exchange="voting", vote_top_k=2,
                    trace=True)
        assert (
            TraceReport(voted.tracers).exchange_bytes()
            < TraceReport(exact.tracers).exchange_bytes()
        )


class TestConfigAndCost:
    def test_exchange_validation_enumerates_strategies(self):
        with pytest.raises(ValueError) as err:
            PCloudsConfig(exchange="gossip")
        for s in EXCHANGE_STRATEGIES:
            assert repr(s) in str(err.value)

    def test_vote_top_k_validation(self):
        with pytest.raises(ValueError, match="vote_top_k"):
            PCloudsConfig(exchange="voting", vote_top_k=0)
        assert PCloudsConfig(exchange="voting").vote_top_k == 8

    def test_stats_bytes_model(self):
        from repro.dnc.cost import exchange_stats_bytes

        kw = dict(q=100, c=2, f=64, p=8)
        voting = exchange_stats_bytes("voting", top_k=8, **kw)
        attribute = exchange_stats_bytes("attribute", **kw)
        allreduce = exchange_stats_bytes("allreduce", **kw)
        assert voting < attribute / 2
        assert attribute < allreduce
        # k >= f holds no vote: exactly the attribute payload
        full = exchange_stats_bytes("voting", top_k=64, **kw)
        assert full == attribute
        with pytest.raises(ValueError, match="top_k"):
            exchange_stats_bytes("voting", **kw)
        with pytest.raises(ValueError, match="unknown"):
            exchange_stats_bytes("gossip", **kw)

    def test_exchange_cost_model(self):
        from repro.cluster.network import NetworkModel
        from repro.dnc.cost import exchange_cost

        net = NetworkModel(alpha=40e-6, beta=1.0 / 35e6)
        kw = dict(q=500, c=2, f=64, p=8)
        voting = exchange_cost(net, "voting", top_k=8, **kw)
        attribute = exchange_cost(net, "attribute", **kw)
        assert voting < attribute
        with pytest.raises(ValueError):
            exchange_cost(net, "voting", **kw)
        with pytest.raises(ValueError):
            exchange_cost(net, "bad", **kw)


class TestVoteCollective:
    def test_vote_is_an_allgather_on_the_wire(self):
        """Same data movement as allgather, its own opname for
        attribution."""
        cluster = make_cluster(3)

        def prog(ctx):
            out = ctx.comm.vote(np.array([[float(ctx.rank), 0.5]]))
            return [np.asarray(x).tolist() for x in out]

        for got in cluster.run(prog).results:
            assert got == [[[0.0, 0.5]], [[1.0, 0.5]], [[2.0, 0.5]]]

    def test_vote_charges_bytes(self):
        cluster = make_cluster(2)

        def prog(ctx):
            before = ctx.stats.bytes_sent
            ctx.comm.vote(np.zeros((4, 2)))
            return ctx.stats.bytes_sent - before

        assert all(n > 0 for n in cluster.run(prog).results)


def test_make_schema_mixed_voting_exact(data):
    """Categorical attributes ride the same vote: k >= f exactness is
    schema-shape independent."""
    schema = make_schema(["x", "y"], {"c": 3}, n_classes=2)
    rng = np.random.default_rng(0)
    cols, labels, _ = _random_fragments(rng, 400, 1)

    def one(exchange, top_k):
        cluster = make_cluster(3, seed=4)
        ds = DistributedDataset.create(cluster, schema, cols, labels, seed=5)
        cfg = PCloudsConfig(
            clouds=CloudsConfig(method="ss", q_root=40, min_node=8),
            exchange=exchange,
            vote_top_k=top_k,
        )
        return PClouds(cfg).fit(ds, seed=6).tree.to_dict()

    assert one("voting", 3) == one("attribute", 3)
