"""Append-only chunked array files on a simulated local disk.

An :class:`OocArray` is the unit of disk-resident data: one attribute
column (or the label column) of one tree node's local fragment. Writers
append numpy chunks; readers stream chunks back in order. Every access
charges the owning disk.

Integrity: every appended chunk is checksummed (CRC32) at write time and
verified on every read, so silent corruption of a stored chunk surfaces
as :class:`~repro.ooc.backend.ChunkCorruptionError` instead of silently
changing the tree. Transient backend errors are retried by the disk with
backoff charged to the simulated clock.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .disk import LocalDisk


class OocArray:
    """A 1-D disk-resident array of fixed dtype, stored as ordered chunks."""

    def __init__(self, disk: LocalDisk, dtype: np.dtype | str, name: str = "") -> None:
        self.disk = disk
        self.dtype = np.dtype(dtype)
        self.name = name
        self._handles: list[object] = []
        self._lengths: list[int] = []
        self._crcs: list[int] = []
        self._closed = False

    # -- properties -----------------------------------------------------------
    def __len__(self) -> int:
        return sum(self._lengths)

    @property
    def nbytes(self) -> int:
        return len(self) * self.dtype.itemsize

    @property
    def nchunks(self) -> int:
        return len(self._handles)

    @property
    def chunk_handles(self) -> tuple[object, ...]:
        """Backend handles of the file's chunks (for buffer-pool pinning)."""
        return tuple(self._handles)

    # -- writing ----------------------------------------------------------------
    def append(self, arr: np.ndarray) -> None:
        """Append one chunk (charged as one sequential write, deferred
        for a write-back child: :meth:`LocalDisk.write_chunk`)."""
        self._check_open()
        arr = np.ascontiguousarray(arr, dtype=self.dtype)
        if arr.ndim != 1:
            raise ValueError(f"OocArray holds 1-D data, got shape {arr.shape}")
        if arr.size == 0:
            return
        handle, crc = self.disk.write_chunk(arr)
        self._handles.append(handle)
        self._lengths.append(arr.size)
        self._crcs.append(crc)

    # -- reading ----------------------------------------------------------------
    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Stream the file's chunks in order (one sequential read each,
        checksum-verified at fetch, or at pool admission when a buffer
        pool is attached — cached chunks come back read-only)."""
        self._check_open()
        pool = self.disk.pool
        if pool is None:
            for handle, length, crc in zip(self._handles, self._lengths, self._crcs):
                nbytes = length * self.dtype.itemsize
                self.disk.charge_read(nbytes)
                yield self.disk.fetch_chunk(handle, nbytes, crc)
            return
        yield from self._iter_chunks_pooled(pool)

    def _iter_chunks_pooled(self, pool) -> Iterator[np.ndarray]:
        itemsize = self.dtype.itemsize
        metas = list(zip(self._handles, self._lengths, self._crcs))
        for i, (handle, length, crc) in enumerate(metas):
            arr = pool.read(handle, length * itemsize, crc)
            if i + 1 < len(metas):
                # issue chunk i+1 before the consumer computes on chunk i,
                # so the transfer overlaps that compute
                nxt_handle, nxt_length, _ = metas[i + 1]
                pool.issue_prefetch(nxt_handle, nxt_length * itemsize)
            yield arr

    def read_all(self) -> np.ndarray:
        """Materialise the whole file in memory (one sequential scan,
        checksum-verified). With a buffer pool, cached chunks are served
        from memory and only the missing bytes are charged — still as a
        single sequential transfer. Bulk reads are single-use, so misses
        are not admitted to the pool."""
        self._check_open()
        if not self._handles:
            return np.empty(0, dtype=self.dtype)
        itemsize = self.dtype.itemsize
        pool = self.disk.pool
        if pool is None:
            self.disk.charge_read(self.nbytes)
            return np.concatenate(
                [
                    self.disk.fetch_chunk(h, n * itemsize, c)
                    for h, n, c in zip(self._handles, self._lengths, self._crcs)
                ]
            )
        parts: list[np.ndarray | None] = []
        missing: list[tuple[int, object, int, int | None]] = []
        for h, n, c in zip(self._handles, self._lengths, self._crcs):
            nbytes = n * itemsize
            arr = pool.peek(h, nbytes, c)
            if arr is None:
                pool.note_miss(nbytes)
                missing.append((len(parts), h, nbytes, c))
            parts.append(arr)
        if missing:
            self.disk.queued_read(sum(m[2] for m in missing))
            for idx, h, nbytes, c in missing:
                parts[idx] = self.disk.fetch_chunk(h, nbytes, c)
        return np.concatenate(parts)

    # -- lifecycle ----------------------------------------------------------------
    def delete(self) -> None:
        """Free the file's chunks (deleting a file costs no data transfer)."""
        for h in self._handles:
            self.disk.backend.delete(h)
        self._handles.clear()
        self._lengths.clear()
        self._crcs.clear()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"OocArray {self.name!r} has been deleted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OocArray(name={self.name!r}, dtype={self.dtype}, "
            f"len={len(self)}, chunks={self.nchunks})"
        )
