"""Per-rank main-memory budget.

The paper processes a node out-of-core when it exceeds a pre-specified
memory limit ("we have used a memory limit of 1 MB for 6.0 million
tuples", scaled linearly with data size). :class:`MemoryBudget` makes that
decision and tracks reservations so concatenated-parallelism style
executors — which share the budget across many simultaneously open tasks —
can observe the resulting pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class MemoryExceededError(MemoryError):
    """A hard reservation was requested beyond the configured budget."""


@dataclass
class MemoryBudget:
    """Byte-accounted memory limit. ``limit=None`` means unlimited."""

    limit: int | None = None
    reserved: int = 0
    high_water: int = 0
    _open: list[int] = field(default_factory=list)

    def fits(self, nbytes: int) -> bool:
        """Would ``nbytes`` more fit in core right now?"""
        if self.limit is None:
            return True
        return self.reserved + nbytes <= self.limit

    def reserve(self, nbytes: int) -> "_Reservation":
        """Context manager that holds ``nbytes`` of budget.

        Raises :class:`MemoryExceededError` if it cannot fit — callers are
        expected to check :meth:`fits` first and fall back to the
        out-of-core path.
        """
        if nbytes < 0:
            raise ValueError(f"negative reservation {nbytes}")
        if not self.fits(nbytes):
            raise MemoryExceededError(
                f"reservation of {nbytes} B exceeds budget "
                f"({self.reserved}/{self.limit} B in use)"
            )
        return _Reservation(self, int(nbytes))

    def acquire(self, nbytes: int) -> None:
        """Take ``nbytes`` without a context manager (the buffer pool's
        entries have open-ended lifetimes). Callers check :meth:`fits`
        first; pair with :meth:`release`."""
        self._acquire(int(nbytes))

    def try_acquire(self, nbytes: int) -> bool:
        """Take ``nbytes`` if they fit; returns whether they did (the
        buffer pool's admission path, one call instead of
        :meth:`fits` then :meth:`acquire`)."""
        reserved = self.reserved + nbytes
        if self.limit is not None and reserved > self.limit:
            return False
        self.reserved = reserved
        if reserved > self.high_water:
            self.high_water = reserved
        return True

    def release(self, nbytes: int) -> None:
        self._release(int(nbytes))

    def _acquire(self, nbytes: int) -> None:
        self.reserved += nbytes
        self.high_water = max(self.high_water, self.reserved)

    def _release(self, nbytes: int) -> None:
        self.reserved -= nbytes
        if self.reserved < 0:
            raise RuntimeError("memory budget released more than reserved")


class _Reservation:
    def __init__(self, budget: MemoryBudget, nbytes: int) -> None:
        self._budget = budget
        self.nbytes = nbytes

    def __enter__(self) -> "_Reservation":
        self._budget._acquire(self.nbytes)
        return self

    def __exit__(self, *exc) -> None:
        self._budget._release(self.nbytes)
