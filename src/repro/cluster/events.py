"""The per-rank event stream the instrumentation subscribes to.

Every rank context owns one ordered ``observers`` list. Its communicator,
local disk and phase timer publish what they charge to that list, and
driver programs add their milestones through ``RankContext.notify``, so
traces, metrics, health drift and the critical path all fold the same
events. An observer implements whichever hooks it needs:

* ``before_collective(op, comm)`` — a collective is about to start on
  communicator ``comm`` (the fault injector may crash the rank here);
* ``record_collective(call)`` / ``record_p2p(call)`` — a primitive
  finished; ``call`` is a :class:`~repro.cluster.comm.CommCall`;
* ``record_disk(op, nbytes, t0, t1)`` and
  ``record_prefetch_wait(nbytes, t0, t1, saved)`` — a charged disk access;
* ``before_phase(name)`` / ``record_phase(name, t0, t1)`` — a phase
  opens / closes;
* ``record_fault(label, t)`` — an injected fault fired;
* driver milestones (``begin_attempt``, ``begin_level``, ...).

Dispatch order is fixed by :func:`subscribe`: the fault injector, then
the tracer, then metrics, then anything else. Publishers test the list
before building an event, so an unobserved run pays only empty-list
tests: no event is built and no payload walked. Observers must not
advance a clock, touch an rng or alter a payload: an observed run is
bit-identical to an unobserved one.
"""

from __future__ import annotations

from typing import Any

__all__ = ["publish", "subscribe"]

#: ``dispatch_slot`` of observers that declare none (driver hooks,
#: ad-hoc test observers): after the built-in ones, in arrival order
_LAST_SLOT = 3


def subscribe(observers: list, observer: Any) -> None:
    """Insert ``observer`` at its ``dispatch_slot`` (0 fault injector,
    1 tracer, 2 metrics), after any earlier subscriber of the same slot."""
    slot = getattr(observer, "dispatch_slot", _LAST_SLOT)
    i = len(observers)
    while i and getattr(observers[i - 1], "dispatch_slot", _LAST_SLOT) > slot:
        i -= 1
    observers.insert(i, observer)


def publish(observers: list, hook: str, *args: Any) -> None:
    """Call ``hook(*args)`` on every observer that implements it, in
    dispatch order."""
    for obs in observers:
        fn = getattr(obs, hook, None)
        if fn is not None:
            fn(*args)
