"""Storage backends for the simulated local disks.

The default :class:`InMemoryBackend` keeps chunk payloads in host RAM —
the *time* of every access is still charged by the disk model, which is
what the paper's results depend on — while :class:`FileBackend` really
spools chunks to ``.npy`` files so integration tests can confirm the
out-of-core code path never assumes residency.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import zlib
from abc import ABC, abstractmethod

import numpy as np


class TransientDiskError(IOError):
    """A chunk access failed transiently (the IBM-SP2's occasional disk
    hiccup). :class:`~repro.ooc.disk.LocalDisk` retries these with
    bounded exponential backoff, charging the wait to the simulated
    clock; only an access that keeps failing propagates."""


class ChunkCorruptionError(IOError):
    """A chunk came back with a CRC32 that does not match what was
    written — silent corruption surfaced as a hard error instead of a
    silently wrong tree. Not retried: the stored payload itself is bad."""


def chunk_crc(arr: np.ndarray) -> int:
    """CRC32 of a chunk's payload bytes (the per-chunk write checksum)."""
    return zlib.crc32(memoryview(np.ascontiguousarray(arr)).cast("B"))


class StorageBackend(ABC):
    """Chunk store: opaque handles in, numpy arrays out."""

    @abstractmethod
    def put(self, arr: np.ndarray) -> object:
        """Persist one chunk; returns a handle."""

    @abstractmethod
    def get(self, handle: object) -> np.ndarray:
        """Load one chunk by handle."""

    @abstractmethod
    def delete(self, handle: object) -> None:
        """Free one chunk."""

    def handles(self) -> list[object]:
        """Handles of every chunk stored now. A fit lists them before
        each attempt so that a restart can delete what a dead attempt
        stored; a backend that a fit uses must implement it."""
        raise NotImplementedError

    def overwrite(self, handle: object, arr: np.ndarray) -> None:
        """Replace the payload under an existing handle in place.

        Testing / fault-injection hook (bit-flip corruption); handles
        stay valid. Optional — backends that cannot rewrite may raise.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release all backend resources (idempotent)."""


class InMemoryBackend(StorageBackend):
    """Holds chunk payloads in RAM; copies on put into an immutable
    buffer and serves that same read-only array on every get, so callers
    can neither corrupt 'disk' contents nor pay a gratuitous copy or view
    on the hot read path (the buffer pool caches the array it admits)."""

    def __init__(self) -> None:
        self._chunks: dict[int, np.ndarray] = {}
        self._next = 0

    def put(self, arr: np.ndarray) -> object:
        handle = self._next
        self._next += 1
        self._chunks[handle] = _frozen_copy(arr)
        return handle

    def get(self, handle: object) -> np.ndarray:
        return self._chunks[handle]

    def delete(self, handle: object) -> None:
        self._chunks.pop(handle, None)

    def handles(self) -> list[object]:
        return list(self._chunks)

    def overwrite(self, handle: object, arr: np.ndarray) -> None:
        if handle not in self._chunks:
            raise KeyError(f"no chunk under handle {handle!r}")
        self._chunks[handle] = _frozen_copy(arr)

    def close(self) -> None:
        self._chunks.clear()

    def resident_bytes(self) -> int:
        """Total payload currently stored (test/diagnostic hook)."""
        return sum(a.nbytes for a in self._chunks.values())


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    """A private copy of ``arr`` over an immutable ``bytes`` buffer: no
    holder can make it writeable again, so every ``get`` can hand out
    the same object."""
    arr = np.asarray(arr)
    out = np.frombuffer(arr.tobytes(), arr.dtype)
    return out if arr.ndim == 1 else out.reshape(arr.shape)


class FileBackend(StorageBackend):
    """Spools each chunk to its own ``.npy`` file under a spool directory."""

    def __init__(self, root: str | None = None) -> None:
        self._owns_root = root is None
        self.root = root or tempfile.mkdtemp(prefix="repro-spool-")
        os.makedirs(self.root, exist_ok=True)
        self._next = 0
        self.chunks_created = 0  # lifetime count (files may be deleted later)

    def put(self, arr: np.ndarray) -> object:
        path = os.path.join(self.root, f"chunk-{self._next:08d}.npy")
        self._next += 1
        self.chunks_created += 1
        np.save(path, arr, allow_pickle=False)
        return path

    def get(self, handle: object) -> np.ndarray:
        return np.load(str(handle), allow_pickle=False)

    def delete(self, handle: object) -> None:
        try:
            os.unlink(str(handle))
        except FileNotFoundError:
            pass

    def handles(self) -> list[object]:
        """The chunk files in the spool directory."""
        return [
            os.path.join(self.root, name)
            for name in sorted(os.listdir(self.root))
            if name.startswith("chunk-") and name.endswith(".npy")
        ]

    def overwrite(self, handle: object, arr: np.ndarray) -> None:
        np.save(str(handle), arr, allow_pickle=False)

    def close(self) -> None:
        if self._owns_root:
            shutil.rmtree(self.root, ignore_errors=True)
