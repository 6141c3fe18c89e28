"""Per-rank simulated clocks.

Each simulated processor owns a :class:`SimClock`. Local work advances the
clock by analytic costs (compute model, disk model); communication calls
synchronise clocks across ranks (the communicator sets every participant's
clock to ``max(participant clocks) + primitive cost``). Wall-clock time of
the host Python process never enters the simulation, which keeps runs
deterministic and independent of thread scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import publish


@dataclass
class SimClock:
    """Monotonic simulated time for one rank, in seconds."""

    now: float = 0.0
    #: local-work time multiplier. 1.0 is nominal speed; the fault
    #: injector raises it to model a straggler node — every locally
    #: charged second then costs ``rate`` simulated seconds, while
    #: synchronisation to absolute times (``advance_to``) is unaffected.
    rate: float = 1.0

    def advance(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self.now += dt * self.rate
        return self.now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time ``t`` (no-op if in the past)."""
        if t > self.now:
            self.now = t
        return self.now


@dataclass
class PhaseTimer:
    """Accumulates simulated time per named phase of an algorithm.

    Used by pCLOUDS to attribute elapsed time to e.g. ``"stats"``,
    ``"alive"``, ``"partition"``, ``"small_nodes"`` the way the paper's
    discussion separates phase costs.

    Phase changes are published to the rank's ``observers``
    (:mod:`repro.cluster.events`): ``before_phase`` as a phase opens
    (the fault injector may crash the rank there) and ``record_phase``
    as it closes. Observers read :attr:`current` to tag comm and disk
    events with the open phase.
    """

    clock: SimClock
    totals: dict[str, float] = field(default_factory=dict)
    _open: str | None = None
    _started_at: float = 0.0
    #: the owning rank's ordered observer list (shared with its
    #: communicator and disk)
    observers: list = field(default_factory=list)

    @property
    def current(self) -> str | None:
        """The open phase name, or None between phases."""
        return self._open

    def start(self, phase: str) -> None:
        """Begin attributing time to ``phase`` (closing any open phase)."""
        if self.observers:
            publish(self.observers, "before_phase", phase)
        if self._open is not None:
            self.stop()
        self._open = phase
        self._started_at = self.clock.now

    def stop(self) -> None:
        """Close the open phase, adding its simulated duration to the total."""
        if self._open is None:
            return
        dt = self.clock.now - self._started_at
        self.totals[self._open] = self.totals.get(self._open, 0.0) + dt
        if self.observers:
            publish(
                self.observers, "record_phase", self._open, self._started_at,
                self.clock.now,
            )
        self._open = None

    def snapshot(self) -> dict[str, float]:
        """Phase totals including any still-open phase, without closing it."""
        out = dict(self.totals)
        if self._open is not None:
            out[self._open] = out.get(self._open, 0.0) + (
                self.clock.now - self._started_at
            )
        return out
