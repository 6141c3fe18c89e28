"""Whole-chunk writes: the chunk writer, and the chunk layout of every
fragment a partition pass or a checkpoint restore writes.

The simulated disk charges one seek per access, so a file's chunk count
is what a later scan of it pays. A partition pass gathers each child's
rows into whole chunks of ``default_batch_rows`` rows, so a child file
holds ``ceil(rows / chunk_rows)`` chunks at every depth instead of one
chunk per batch of its parent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig, build_cluster, pclouds_config
from repro.clouds import builder as clouds_builder
from repro.clouds import CloudsBuilder, CloudsConfig
from repro.cluster import CrashAtPhase, FaultPlan
from repro.cluster.clock import SimClock
from repro.cluster.diskmodel import DiskModel
from repro.cluster.stats import RankStats
from repro.core import DistributedDataset, PClouds
from repro.core import pclouds as pclouds_mod
from repro.core.access import StreamingAccess
from repro.data import generate_quest, quest_schema
from repro.ooc import ChunkWriter, ColumnSet, InMemoryBackend, LocalDisk, default_batch_rows

SCHEMA = quest_schema()


def make_disk(**model_kwargs) -> LocalDisk:
    return LocalDisk(
        DiskModel(**model_kwargs), SimClock(), RankStats(), InMemoryBackend()
    )


def layout(cs: ColumnSet) -> tuple[int, int, list[str]]:
    """(rows, chunk rows, files whose chunk count is not
    ceil(rows / chunk rows)) at the default granularity."""
    chunk_rows = default_batch_rows(cs.disk, cs.schema)
    want = -(-cs.nrows // chunk_rows)
    bad = [f"{f.name}: {f.nchunks} chunks, want {want}"
           for f in cs.files() if f.nchunks != want]
    return cs.nrows, chunk_rows, bad


def chunk_lengths(cs: ColumnSet) -> list[int]:
    return [len(labels) for _, labels in cs.iter_batches()]


# -- the writer -----------------------------------------------------------


class TestChunkWriter:
    @settings(max_examples=60, deadline=None)
    @given(
        pieces=st.lists(st.integers(0, 40), max_size=12),
        chunk_rows=st.integers(1, 17),
    )
    def test_whole_chunks_in_order(self, pieces, chunk_rows):
        total = sum(pieces)
        cols, labels = generate_quest(max(total, 1), function=2, seed=3)
        disk = make_disk()
        writer = ChunkWriter(ColumnSet(disk, SCHEMA, name="c"), chunk_rows)
        lo = 0
        for n in pieces:
            writer.write(
                {k: v[lo:lo + n] for k, v in cols.items()}, labels[lo:lo + n]
            )
            lo += n
        cs = writer.close()

        k, r = divmod(total, chunk_rows)
        assert chunk_lengths(cs) == [chunk_rows] * k + ([r] if r else [])
        got_cols, got_labels = cs.read_all()
        np.testing.assert_array_equal(got_labels, labels[:total])
        for a in SCHEMA:
            np.testing.assert_array_equal(got_cols[a.name], cols[a.name][:total])

    @settings(max_examples=30, deadline=None)
    @given(pieces=st.lists(st.integers(0, 30), min_size=1, max_size=10))
    def test_one_charged_write_per_chunk(self, pieces):
        total = sum(pieces)
        cols, labels = generate_quest(max(total, 1), function=2, seed=4)
        disk = make_disk()
        writer = ChunkWriter(ColumnSet(disk, SCHEMA, name="c"), 8)
        lo = 0
        for n in pieces:
            writer.write(
                {k: v[lo:lo + n] for k, v in cols.items()}, labels[lo:lo + n]
            )
            lo += n
        cs = writer.close()
        nchunks = -(-total // 8)
        assert all(f.nchunks == nchunks for f in cs.files())
        assert disk.stats.io_calls == nchunks * (len(SCHEMA) + 1)
        assert disk.stats.bytes_written == total * SCHEMA.row_nbytes()

    def test_empty_writer_writes_nothing(self):
        disk = make_disk()
        writer = ChunkWriter(ColumnSet(disk, SCHEMA, name="c"))
        cols, labels = generate_quest(4, function=2, seed=0)
        writer.write({k: v[:0] for k, v in cols.items()}, labels[:0])
        cs = writer.close()
        assert cs.nrows == 0
        assert all(f.nchunks == 0 for f in cs.files())
        assert disk.stats.io_calls == 0 and disk.stats.bytes_written == 0

    def test_holds_less_than_a_chunk_between_writes(self):
        disk = make_disk()
        writer = ChunkWriter(ColumnSet(disk, SCHEMA, name="c"), 10)
        cols, labels = generate_quest(95, function=2, seed=1)
        for lo in range(0, 95, 7):
            hi = min(lo + 7, 95)
            writer.write({k: v[lo:hi] for k, v in cols.items()}, labels[lo:hi])
            assert writer.cs.nrows == hi - hi % 10
        assert writer.close().nrows == 95

    def test_default_granularity(self):
        disk = make_disk(block=4096)
        writer = ChunkWriter(ColumnSet(disk, SCHEMA, name="c"))
        assert writer.chunk_rows == default_batch_rows(disk, SCHEMA) == 256

    def test_misaligned_piece_rejected(self):
        writer = ChunkWriter(ColumnSet(make_disk(), SCHEMA, name="c"), 4)
        cols, labels = generate_quest(6, function=2, seed=0)
        bad = dict(cols)
        bad["age"] = bad["age"][:5]
        with pytest.raises(ValueError):
            writer.write(bad, labels)


# -- fragments a fit writes -------------------------------------------------


def _record_partitions(monkeypatch, target, attr, seen):
    """Wrap ``target.attr`` (a partition pass) to check both children as
    they are returned, before the fit reads or deletes them."""
    original = getattr(target, attr)

    def wrapped(*args, **kwargs):
        left, right, counts = original(*args, **kwargs)
        seen.extend(layout(child) for child in (left, right))
        return left, right, counts

    monkeypatch.setattr(target, attr, wrapped)


def _assert_whole_chunks(seen):
    assert seen, "no fragment was checked"
    faults = [f for _, _, bad in seen for f in bad]
    assert not faults, f"{len(faults)} misaligned files, e.g. {faults[:3]}"
    # the check binds: some fragments span several chunks
    assert any(rows > chunk_rows for rows, chunk_rows, _ in seen)


class TestPartitionLayout:
    def test_streaming_fit_children_are_whole_chunks(self, monkeypatch):
        seen: list = []
        _record_partitions(monkeypatch, StreamingAccess, "partition", seen)
        cfg = ExperimentConfig(n_records=6000, n_ranks=2, seed=0)
        schema = quest_schema()
        cols, labels = generate_quest(cfg.n_records, cfg.function, seed=0,
                                      noise=cfg.noise)
        ds = DistributedDataset.create(
            build_cluster(cfg, schema.row_nbytes()), schema, cols, labels, seed=1
        )
        PClouds(pclouds_config(cfg)).fit(ds, seed=2)
        _assert_whole_chunks(seen)

    def test_sequential_ooc_fit_children_are_whole_chunks(self, monkeypatch):
        seen: list = []
        _record_partitions(monkeypatch, clouds_builder, "partition_columnset", seen)
        cols, labels = generate_quest(5000, function=2, seed=5, noise=0.05)
        # 256-row default chunks; the root is chunked otherwise, and
        # children must not inherit that
        disk = make_disk(block=4096)
        cs = ColumnSet.from_arrays(disk, SCHEMA, cols, labels, batch_rows=300)
        tree = CloudsBuilder(SCHEMA, CloudsConfig(q_root=100)).fit_columnset(cs)
        reference = CloudsBuilder(SCHEMA, CloudsConfig(q_root=100)).fit_columnset(
            ColumnSet.from_arrays(make_disk(), SCHEMA, cols, labels)
        )
        assert tree.to_dict()["root"] == reference.to_dict()["root"]
        _assert_whole_chunks(seen)


class TestRestoredLayout:
    def test_restored_fragments_are_whole_chunks(self, monkeypatch):
        restored: list = []
        original = pclouds_mod._restore_checkpoint

        def wrapped(ctx, store, schema):
            out = original(ctx, store, schema)
            if out is not None:
                _, frontier, small = out
                restored.extend(layout(t.columnset) for t in (*frontier, *small))
            return out

        monkeypatch.setattr(pclouds_mod, "_restore_checkpoint", wrapped)
        cfg = ExperimentConfig(n_records=6000, n_ranks=2, seed=0)
        schema = quest_schema()
        cols, labels = generate_quest(cfg.n_records, cfg.function, seed=0,
                                      noise=cfg.noise)

        def fit(**kwargs):
            ds = DistributedDataset.create(
                build_cluster(cfg, schema.row_nbytes()), schema, cols, labels,
                seed=1,
            )
            return PClouds(pclouds_config(cfg)).fit(ds, seed=2, **kwargs)

        clean = fit()
        plan = FaultPlan.of("k", CrashAtPhase(rank=1, phase="partition", visit=1))
        res = fit(faults=plan, recover=True)
        assert res.tree.to_dict()["root"] == clean.tree.to_dict()["root"]
        _assert_whole_chunks(restored)
