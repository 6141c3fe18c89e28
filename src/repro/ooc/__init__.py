"""Out-of-core storage substrate: per-rank simulated disks holding
chunked, column-oriented files, plus the main-memory budget that decides
when a node must be processed out-of-core."""

from .backend import (
    ChunkCorruptionError,
    FileBackend,
    InMemoryBackend,
    StorageBackend,
    TransientDiskError,
    chunk_crc,
)
from .bufferpool import POOL_MODES, BufferPool, PoolStats
from .columnset import ChunkWriter, ColumnSet, default_batch_rows
from .disk import LocalDisk
from .extsort import external_sort, is_globally_sorted
from .file import OocArray
from .memory import MemoryBudget, MemoryExceededError

__all__ = [
    "BufferPool",
    "ChunkCorruptionError",
    "ChunkWriter",
    "ColumnSet",
    "POOL_MODES",
    "PoolStats",
    "default_batch_rows",
    "FileBackend",
    "InMemoryBackend",
    "LocalDisk",
    "TransientDiskError",
    "chunk_crc",
    "external_sort",
    "is_globally_sorted",
    "MemoryBudget",
    "MemoryExceededError",
    "OocArray",
    "StorageBackend",
]
