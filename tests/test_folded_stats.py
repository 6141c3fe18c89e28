"""Child statistics folded by the streaming partition pass.

A streaming partition pass tallies both children's statistics over the
distinct values of their samples while it writes their rows; once a
child's interval count is known, :meth:`FoldedStats.reduce` must give
exactly what the child's own statistics pass would have, so every
exchange, election and tree stays the same while out-of-core nodes below
the root skip that pass.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clouds import CloudsConfig
from repro.clouds.builder import node_boundaries
from repro.clouds.intervals import boundaries_from_sample
from repro.clouds.nodestats import FoldedStats, stats_from_arrays
from repro.cluster import CorruptChunk, CrashAtPhase, FaultPlan
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.core import pclouds as pclouds_mod
from repro.core.access import StreamingAccess
from repro.data import generate_quest, quest_schema
from repro.data.schema import make_schema

from conftest import make_cluster

EXCHANGES = ("attribute", "distributed", "voting", "allreduce")
POOLS = ("off", "lru", "lru+prefetch")


# -- the fold and its reduction ----------------------------------------------


@st.composite
def folded_case(draw):
    """A schema, a parent batch, a split mask and the child's sample."""
    c = draw(st.integers(2, 4))
    schema = make_schema(["dup", "wide", "flat"], {"cat": 3}, n_classes=c)
    n = draw(st.integers(0, 60))
    values = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    cols = {
        # duplicate-heavy, spread out, constant
        "dup": np.array(draw(values), dtype=np.float64),
        "wide": np.array(
            draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)),
            dtype=np.float64,
        ) / 8.0,
        "flat": np.full(n, 2.5),
        "cat": np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                        dtype=np.int64),
    }
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)),
                      dtype=np.int64)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    child = np.flatnonzero(mask)
    # the child's sample: a non-empty subset of its rows, or one row
    if len(child):
        size = draw(st.integers(1, len(child)))
        pick = np.array(draw(st.permutations(list(child))))[:size]
    else:
        pick = np.empty(0, dtype=np.int64)
    sample = {k: v[pick] for k, v in cols.items()}
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    return schema, cols, labels, mask, sample, cuts


@settings(max_examples=120, deadline=None)
@given(folded_case())
def test_reduce_equals_a_stats_pass_for_every_q(case):
    schema, cols, labels, mask, sample, cuts = case
    fold = FoldedStats(schema, sample)
    # the child's rows arrive in batches of the parent, split by the mask
    for lo, hi in zip([0, *cuts], [*cuts, len(labels)]):
        m = mask[lo:hi]
        fold.fold({k: v[lo:hi][m] for k, v in cols.items()}, labels[lo:hi][m])
    child_cols = {k: v[mask] for k, v in cols.items()}
    for q in range(1, max(len(sample["dup"]), 1) + 1):
        bounds = node_boundaries(schema, sample, q)
        want = stats_from_arrays(schema, child_cols, labels[mask], bounds)
        got = fold.reduce(bounds)
        np.testing.assert_array_equal(got.total, want.total)
        assert got.total.dtype == want.total.dtype
        for name, ns in want.numeric.items():
            g = got.numeric[name]
            np.testing.assert_array_equal(g.boundaries, ns.boundaries)
            np.testing.assert_array_equal(g.hist, ns.hist)
            np.testing.assert_array_equal(g.vmin, ns.vmin)
            np.testing.assert_array_equal(g.vmax, ns.vmax)
            assert g.hist.dtype == ns.hist.dtype and g.vmin.dtype == ns.vmin.dtype
        for name, m in want.categorical.items():
            np.testing.assert_array_equal(got.categorical[name], m)


def test_reduce_of_an_unfolded_child_is_empty():
    """A rank whose parent fragment held no rows folds nothing."""
    schema = quest_schema()
    cols, _ = generate_quest(50, function=2, seed=0)
    fold = FoldedStats(schema, cols)
    bounds = node_boundaries(schema, cols, 7)
    got = fold.reduce(bounds)
    assert got.n == 0
    for name, ns in got.numeric.items():
        assert ns.hist.shape == (len(bounds[name]) + 1, schema.n_classes)
        assert not ns.splittable().any()


def test_reduce_rejects_boundaries_off_the_grid():
    schema = make_schema(["x"], {}, n_classes=2)
    fold = FoldedStats(schema, {"x": np.array([1.0, 2.0, 3.0])})
    fold.fold({"x": np.array([1.0, 2.5, 3.0])}, np.array([0, 1, 0]))
    assert fold.reduce({"x": boundaries_from_sample(np.array([1.0, 2.0, 3.0]), 3)})
    for bad in ([2.5], [4.0]):
        with pytest.raises(ValueError, match="not sample values"):
            fold.reduce({"x": np.array(bad)})


# -- end to end ----------------------------------------------------------------


@pytest.fixture(scope="module")
def quest():
    return generate_quest(1200, function=2, seed=3, noise=0.05)


def dataset(quest, p, pool="off", *, streaming=True, backend_factory=None):
    """A memory limit of one row streams every large node; the whole data
    set keeps every node in core (no fold, a stats pass each)."""
    cols, labels = quest
    schema = quest_schema()
    cluster = make_cluster(
        p,
        memory_limit=schema.row_nbytes() if streaming else len(labels) * schema.row_nbytes(),
        buffer_pool=pool,
        backend_factory=backend_factory,
    )
    return DistributedDataset.create(cluster, schema, cols, labels, seed=1)


def config(method="sse", exchange="attribute"):
    return PCloudsConfig(
        clouds=CloudsConfig(method=method, q_root=60, sample_size=400, min_node=8),
        q_switch=8,
        exchange=exchange,
        vote_top_k=2,
    )


@pytest.fixture(scope="module")
def reference(quest):
    """In-core pool-off trees: every node makes its own stats pass."""
    cache = {}

    def get(p, method, exchange):
        key = (p, method, exchange)
        if key not in cache:
            ds = dataset(quest, p, streaming=False)
            cache[key] = PClouds(config(method, exchange)).fit(ds, seed=2).tree.to_dict()
        return cache[key]

    return get


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("exchange", EXCHANGES)
@pytest.mark.parametrize("method", ["ss", "sse"])
@pytest.mark.parametrize("p", [1, 2, 4])
def test_streaming_fit_gives_the_stats_pass_tree(quest, reference, p, method, exchange, pool):
    seen = []
    open_node = pclouds_mod.open_node

    def spy(ctx, cs, schema, folded=None):
        seen.append(folded is not None)
        return open_node(ctx, cs, schema, folded)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pclouds_mod, "open_node", spy)
        res = PClouds(config(method, exchange)).fit(dataset(quest, p, pool), seed=2)
    assert res.tree.to_dict() == reference(p, method, exchange)
    assert any(seen)  # nodes below the root used folded statistics
    assert seen.count(False) == p  # only the root scanned, once per rank


def stats_reads(res):
    """Per rank: traced read bytes in the stats phase."""
    out = []
    for tracer in res.tracers:
        out.append(sum(e.nbytes for e in tracer.disk_events()
                       if e.op == "read" and e.phase == "stats"))
    return out


def test_only_the_root_scans_for_statistics(quest):
    """Pool off, every large node streams: each rank's stats phase reads
    its root fragment once and nothing else."""
    ds = dataset(quest, 2)
    root_bytes = [cs.nbytes for cs in ds.columnsets]
    res = PClouds(config()).fit(ds, seed=2, trace=True)
    assert res.n_large_nodes > 3 * ds.n_ranks
    assert stats_reads(res) == root_bytes


def test_fold_moves_the_stats_compute_into_the_partition_phase(quest):
    """The fold charges the stats pass's compute to the partition phase
    and no I/O: the stats phase of every level below the root is free
    of disk time, and the fit is faster than with a stats pass."""
    ds, ds_scan = dataset(quest, 2), dataset(quest, 2)
    res = PClouds(config()).fit(ds, seed=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreamingAccess, "folds", False)
        scan = PClouds(config()).fit(ds_scan, seed=2)
    assert res.tree.to_dict() == scan.tree.to_dict()
    assert res.phase_time("stats") < scan.phase_time("stats")
    assert res.phase_time("partition") > scan.phase_time("partition")
    assert res.elapsed < scan.elapsed
    for c, c_scan in zip(ds.contexts, ds_scan.contexts):
        assert c.stats.bytes_written == c_scan.stats.bytes_written
        assert c.stats.bytes_read < c_scan.stats.bytes_read


def recover_log(monkeypatch):
    """Per rank, in call order: ``"restore"`` at each checkpoint restore
    and, per opened node, whether it came with folded statistics."""
    log = defaultdict(list)
    restore, open_node = pclouds_mod._restore_checkpoint, pclouds_mod.open_node

    def spy_restore(ctx, store, schema):
        log[ctx.rank].append("restore")
        return restore(ctx, store, schema)

    def spy_open(ctx, cs, schema, folded=None):
        log[ctx.rank].append(folded is not None)
        return open_node(ctx, cs, schema, folded)

    monkeypatch.setattr(pclouds_mod, "_restore_checkpoint", spy_restore)
    monkeypatch.setattr(pclouds_mod, "open_node", spy_open)
    return log


@pytest.mark.parametrize(
    "fault, opened_folded",
    [
        # entering the partitions below the root, which fold while the
        # nodes being partitioned were opened with folded statistics
        (CrashAtPhase(rank=1, phase="partition", visit=1), True),
        (CrashAtPhase(rank=1, phase="partition", visit=2), True),
        # entering the first stats phase whose nodes hold folded statistics
        (CrashAtPhase(rank=1, phase="stats", visit=1), False),
    ],
)
def test_crash_recovers_and_the_restored_frontier_scans(
    quest, monkeypatch, fault, opened_folded
):
    base = PClouds(config()).fit(dataset(quest, 2), seed=2)
    log = recover_log(monkeypatch)
    res = PClouds(config()).fit(
        dataset(quest, 2), seed=2, faults=FaultPlan.of("crash", fault), recover=True
    )
    assert res.n_restarts == 1
    assert res.tree.to_dict() == base.tree.to_dict()
    assert sorted(log) == [0, 1]
    # what the victim opened before it died (its peer runs on until a
    # collective fails, so how far it got depends on host timing)
    assert any(log[1][:log[1].index("restore")]) == opened_folded
    for calls in log.values():
        at = calls.index("restore")
        # the restored frontier has no folded statistics: its nodes scan
        after = calls[at + 1:]
        assert after and after[0] is False
        assert any(after)  # ... and the levels below it fold again


@pytest.mark.parametrize("nth_put", [0, 13, 57])
def test_corrupt_streaming_child_is_caught(quest, nth_put):
    """Rank 1's first puts are the root's streaming children: a bit flip
    in one is folded from good rows, then caught by the CRC on the
    child's next read, and recovery gives the fault-free tree."""
    base = PClouds(config()).fit(dataset(quest, 2), seed=2)
    ds = dataset(quest, 2)
    plan = FaultPlan.of("corrupt", CorruptChunk(rank=1, nth_put=nth_put))
    res = PClouds(config()).fit(ds, seed=2, faults=plan, recover=True)
    assert ds.contexts[1].stats.crc_failures >= 1
    assert res.n_restarts >= 1
    assert res.tree.to_dict() == base.tree.to_dict()
