"""Column-oriented, disk-resident storage of one node's local fragment.

pCLOUDS (like CLOUDS/SPRINT) stores each attribute in its own file so a
splitting pass can stream exactly the columns it needs. A
:class:`ColumnSet` keeps one :class:`~repro.ooc.file.OocArray` per
attribute plus one for the labels, with chunk boundaries aligned so
batched scans see matching rows.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.schema import LABEL_DTYPE, Schema

from .disk import LocalDisk
from .file import OocArray


def default_batch_rows(disk: LocalDisk, schema: Schema) -> int:
    """Chunk granularity when the writer does not pick one.

    A row batch targets four disk blocks, so each per-column chunk
    amortises its seek. With a buffer pool attached the target is cut to
    an eighth of the pool's capacity, but never below one block. So a
    pool under 32 blocks (2 MiB at 64 KiB blocks) shortens chunks, and
    one under 8 blocks (512 KiB) gets one-block chunks: larger than an
    eighth of the pool, and possibly larger than the whole pool (a
    16 KiB pool gets 64 KiB chunks).
    """
    target = 4 * disk.model.block
    pool = disk.pool
    if pool is not None and pool.capacity > 0:
        target = min(target, max(disk.model.block, pool.capacity // 8))
    return max(1, int(target) // max(1, schema.row_nbytes()))


class ColumnSet:
    """Aligned per-attribute files + labels for one node fragment."""

    def __init__(self, disk: LocalDisk, schema: Schema, name: str = "") -> None:
        self.disk = disk
        self.schema = schema
        self.name = name
        self._columns: dict[str, OocArray] = {
            a.name: OocArray(disk, a.dtype, name=f"{name}/{a.name}")
            for a in schema
        }
        self._labels = OocArray(disk, LABEL_DTYPE, name=f"{name}/labels")

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        disk: LocalDisk,
        schema: Schema,
        columns: dict[str, np.ndarray],
        labels: np.ndarray,
        name: str = "",
        batch_rows: int | None = None,
        *,
        write_allocate: bool = False,
        write_back: bool = False,
    ) -> "ColumnSet":
        """Write in-memory columns to disk in chunks of ``batch_rows`` rows
        (default :func:`default_batch_rows`), the granularity of later
        scans. Each chunk is written from a view of the inputs.
        ``write_allocate`` marks a partition child, ``write_back`` the
        child of an in-core node (see :class:`ChunkWriter`)."""
        writer = ChunkWriter(
            cls(disk, schema, name=name),
            batch_rows,
            write_allocate=write_allocate,
            write_back=write_back,
        )
        writer.write(columns, labels)
        return writer.close()

    # -- writing ----------------------------------------------------------
    def append_batch(self, columns: dict[str, np.ndarray], labels: np.ndarray) -> None:
        """Append aligned rows to every column file."""
        n = self.schema.validate_columns(columns, labels)
        if n == 0:
            return
        for a in self.schema:
            self._columns[a.name].append(columns[a.name])
        self._labels.append(labels)

    # -- reading ----------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self._labels)

    @property
    def nbytes(self) -> int:
        return self._labels.nbytes + sum(c.nbytes for c in self._columns.values())

    def column(self, name: str) -> OocArray:
        return self._columns[name]

    def files(self) -> Iterator[OocArray]:
        """Every file of the fragment (all columns, then labels)."""
        yield from self._columns.values()
        yield self._labels

    @property
    def labels_file(self) -> OocArray:
        return self._labels

    def read_column(self, name: str) -> np.ndarray:
        return self._columns[name].read_all()

    def read_labels(self) -> np.ndarray:
        return self._labels.read_all()

    def read_all(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Materialise every column (the in-core path for small nodes)."""
        return (
            {name: f.read_all() for name, f in self._columns.items()},
            self._labels.read_all(),
        )

    def iter_batches(self) -> Iterator[tuple[dict[str, np.ndarray], np.ndarray]]:
        """Stream aligned batches of all columns + labels, one disk chunk
        at a time (the out-of-core scan)."""
        col_iters = {name: f.iter_chunks() for name, f in self._columns.items()}
        for label_chunk in self._labels.iter_chunks():
            batch = {name: next(it) for name, it in col_iters.items()}
            for name, arr in batch.items():
                if len(arr) != len(label_chunk):
                    raise RuntimeError(
                        f"misaligned chunks in ColumnSet {self.name!r}: "
                        f"column {name} has {len(arr)} rows vs {len(label_chunk)} labels"
                    )
            yield batch, label_chunk

    def iter_column_with_labels(
        self, name: str
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream one attribute column alongside labels (the per-attribute
        statistics pass reads only what it needs)."""
        lab_it = self._labels.iter_chunks()
        for values in self._columns[name].iter_chunks():
            yield values, next(lab_it)

    # -- lifecycle ----------------------------------------------------------
    def delete(self) -> None:
        """Free all files (nodes are deleted once both children are written)."""
        for f in self._columns.values():
            f.delete()
        self._labels.delete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnSet(name={self.name!r}, nrows={self.nrows})"


class ChunkWriter:
    """Write rows that arrive in pieces to a :class:`ColumnSet` in whole
    chunks.

    Each time ``chunk_rows`` rows (default :func:`default_batch_rows`)
    have gathered, one chunk is written through
    :meth:`ColumnSet.append_batch`; :meth:`close` writes the remainder.
    A file written this way holds ``ceil(rows / chunk_rows)`` chunks
    however the rows arrived, and every chunk costs one seek each time
    it is read back. Rows keep their order.

    Memory: between writes the writer holds fewer than ``chunk_rows``
    rows, less than one chunk of ``chunk_rows × row_nbytes`` bytes. At
    the default granularity that is at most four disk blocks, and one
    64 KiB block under a pool smaller than 512 KiB, the same order as
    the input batch a streaming scan already holds. Neither is charged
    to the rank's memory budget, whose paper-scale limit can be smaller
    than one disk block. Held pieces are views of the caller's arrays
    until they are written, so the caller must not modify them before
    :meth:`close`.

    A partition child is written with ``write_allocate=True``: when the
    rank's buffer pool can hold one whole chunk of rows, every chunk is
    also admitted into the pool as it is stored, so the next level reads
    it from memory. Its disk write is charged as it is stored
    (write-through), as the out-of-core partition pass pays it. A spool
    the fit writes, reads back and deletes within one attempt is written
    with ``write_back=True``: the child of an in-core node, the owner's
    spool of received small-node fragments and a forest tree's bag. It is
    admitted the same way, but dirty, so its disk write is charged only
    if the chunk leaves the pool other than by deletion, and at once if
    the pool cannot admit it (see :mod:`repro.ooc.bufferpool`).
    """

    def __init__(
        self,
        cs: ColumnSet,
        chunk_rows: int | None = None,
        *,
        write_allocate: bool = False,
        write_back: bool = False,
    ) -> None:
        self.cs = cs
        self.chunk_rows = chunk_rows or default_batch_rows(cs.disk, cs.schema)
        pool = cs.disk.pool
        self._pool = (
            pool
            if (write_allocate or write_back)
            and pool is not None
            and pool.would_cache(self.chunk_rows * cs.schema.row_nbytes())
            else None
        )
        self._write_back = write_back
        self._held: list[tuple[dict[str, np.ndarray], np.ndarray]] = []
        self._held_rows = 0

    def write(self, columns: dict[str, np.ndarray], labels: np.ndarray) -> None:
        """Add aligned rows; writes every chunk they complete."""
        n = self.cs.schema.validate_columns(columns, labels)
        lo = 0
        while lo < n:
            hi = lo + min(n - lo, self.chunk_rows - self._held_rows)
            self._held.append(({k: v[lo:hi] for k, v in columns.items()}, labels[lo:hi]))
            self._held_rows += hi - lo
            if self._held_rows == self.chunk_rows:
                self._flush()
            lo = hi

    def close(self) -> ColumnSet:
        """Write the remainder; returns the column set."""
        self._flush()
        return self.cs

    def _flush(self) -> None:
        if len(self._held) == 1:  # a chunk from one piece is written as a view
            self._append(*self._held[0])
        elif self._held:
            names = self._held[0][0]
            self._append(
                {k: np.concatenate([c[k] for c, _ in self._held]) for k in names},
                np.concatenate([lab for _, lab in self._held]),
            )
        self._held = []
        self._held_rows = 0

    def _append(self, columns: dict[str, np.ndarray], labels: np.ndarray) -> None:
        if self._pool is None:
            self.cs.append_batch(columns, labels)
            return
        with self._pool.admitting_writes(self._write_back):
            self.cs.append_batch(columns, labels)
