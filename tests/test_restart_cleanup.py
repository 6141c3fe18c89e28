"""A restart deletes what the dead attempt stored.

The fragments, bags and spools a dead attempt wrote are read by no later
attempt: a restart rewrites its fragments from the latest checkpoint. So
before it restarts, ``run_observed`` deletes every chunk the attempt
stored on every rank, except checkpoint blobs, and never the initial
fragments a from-scratch restart needs.
"""

import os

import pytest

from repro.clouds import CloudsConfig
from repro.cluster import CrashAtPhase, FaultPlan
from repro.cluster.faults import FaultInjector
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.core import checkpoint as checkpoint_mod
from repro.data import generate_quest, quest_schema
from repro.ooc import FileBackend

from conftest import make_cluster

SCHEMA = quest_schema()


@pytest.fixture(scope="module")
def quest():
    return generate_quest(1200, function=2, seed=3, noise=0.05)


def dataset(quest, memory_limit, backend_factory=None):
    cols, labels = quest
    cluster = make_cluster(
        2, memory_limit=memory_limit, buffer_pool="lru+prefetch",
        backend_factory=backend_factory,
    )
    return DistributedDataset.create(cluster, SCHEMA, cols, labels, seed=1)


CONFIG = PCloudsConfig(
    clouds=CloudsConfig(method="sse", q_root=60, sample_size=400, min_node=8),
    q_switch=8,
)


@pytest.fixture
def stores(monkeypatch):
    """Every checkpoint store a fit makes."""
    made = []

    class Recorded(checkpoint_mod.CheckpointStore):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(checkpoint_mod, "CheckpointStore", Recorded)
    return made


def blob_bytes(store, disk):
    return sum(e.nbytes for e in store._entries if e.disk is disk)


@pytest.mark.parametrize("in_core", [True, False])
def test_restart_leaves_only_checkpoint_blobs(quest, stores, in_core):
    limit = len(quest[1]) * SCHEMA.row_nbytes() if in_core else 4096
    base_ds = dataset(quest, limit)
    base = PClouds(CONFIG).fit(base_ds, seed=2)
    assert [c.disk.backend.resident_bytes() for c in base_ds.contexts] == [0, 0]

    ds = dataset(quest, limit)
    plan = FaultPlan.of("crash", CrashAtPhase(rank=1, phase="partition", visit=1))
    res = PClouds(CONFIG).fit(ds, seed=2, faults=plan, recover=True)
    assert res.n_restarts == 1
    assert res.tree.to_dict() == base.tree.to_dict()
    (store,) = stores
    rank0, rank1 = ds.contexts
    assert rank1.disk.backend.resident_bytes() == 0
    assert rank0.disk.backend.resident_bytes() == blob_bytes(store, rank0.disk) > 0
    assert blob_bytes(store, rank1.disk) == 0


def test_restart_deletes_the_dead_attempts_spool_files(quest, stores, tmp_path):
    roots = []

    def factory():
        roots.append(str(tmp_path / f"rank{len(roots)}"))
        return FileBackend(roots[-1])

    ds = dataset(quest, 4096, backend_factory=factory)
    written = []  # per put: (rank, attempt, path)
    put = FileBackend.put

    def logged_put(backend, arr):
        path = put(backend, arr)
        written.append((roots.index(backend.root), injector.attempts, path))
        return path

    injector = FaultInjector(
        FaultPlan.of("crash", CrashAtPhase(rank=1, phase="partition", visit=1)), seed=2
    )
    base = PClouds(CONFIG).fit(dataset(quest, 4096), seed=2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FileBackend, "put", logged_put)
        res = PClouds(CONFIG).fit(ds, seed=2, faults=injector, recover=True)
    assert res.n_restarts == 1
    assert res.tree.to_dict() == base.tree.to_dict()
    (store,) = stores
    blobs = {e.handle for e in store._entries}
    dead = [path for _, attempt, path in written if attempt == 1 and path not in blobs]
    assert {rank for rank, attempt, _ in written if attempt == 1} == {0, 1}
    assert dead and not any(os.path.exists(p) for p in dead)
    left = [sorted(os.listdir(r)) for r in roots]
    assert left[1] == []
    assert {os.path.join(roots[0], f) for f in left[0]} == blobs


def test_from_scratch_restart_keeps_the_initial_fragments(quest):
    """A crash before the first checkpoint restarts from the initial
    fragments, which the clean-up must leave alone."""
    base = PClouds(CONFIG).fit(dataset(quest, 4096), seed=2)
    plan = FaultPlan.of("crash", CrashAtPhase(rank=1, phase="preprocess", visit=0))
    res = PClouds(CONFIG).fit(dataset(quest, 4096), seed=2, faults=plan, recover=True)
    assert res.n_restarts == 1
    assert res.tree.to_dict() == base.tree.to_dict()
