"""Host-clock span recorder with one stack per thread.

A span covers one call into a layer: its name, start and end (wall,
``perf_counter_ns``), the thread CPU it consumed (``thread_time_ns``),
the span that was open on the same thread when it started (its parent)
and the run or batch id current at the time. Self time is the span
minus the time its direct children cover, so nested layers never count
twice and the self times of one thread add up to the covered time.

Each thread pushes and pops on its own stack, so the two rank threads of
a fit nest independently. Finished spans are appended to an in-memory
list per thread and leave the process only when :meth:`SpanRecorder.dump`
writes them all at once.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

__all__ = ["Span", "SpanRecorder"]


@dataclass(frozen=True)
class Span:
    """One finished span; times in nanoseconds."""

    sid: int
    parent: int | None
    thread: int
    name: str
    run: str
    start_ns: int
    end_ns: int
    cpu_ns: int
    self_wall_ns: int
    self_cpu_ns: int

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns


#: open-span frame fields (a list per open span, cheaper than an object)
_NAME, _SID, _PARENT, _RUN, _T0, _C0, _CHILD_WALL, _CHILD_CPU = range(8)


class SpanRecorder:
    """Collects spans from every thread that enters a wrapped call.

    ``run`` is the id stamped on spans that start while it is set; the
    benchmark sets it between fits (``fit3``) and per served batch.
    """

    def __init__(self) -> None:
        self.run = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list[tuple]] = []  # Span fields, in order
        self._sids = itertools.count(1)  # next() on a count is atomic under the GIL

    # -- per-thread state --------------------------------------------------
    def _state(self) -> tuple[list, list, int]:
        try:
            return self._local.state
        except AttributeError:
            spans: list[tuple] = []
            with self._lock:
                self._per_thread.append(spans)
                tid = len(self._per_thread) - 1
            st = self._local.state = ([], spans, tid)
            return st

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> None:
        stack = self._state()[0]
        stack.append([
            name, next(self._sids), stack[-1][_SID] if stack else None, self.run,
            time.perf_counter_ns(), time.thread_time_ns(), 0, 0,
        ])

    def end(self) -> None:
        c1 = time.thread_time_ns()
        t1 = time.perf_counter_ns()
        stack, spans, tid = self._state()
        f = stack.pop()
        wall = t1 - f[_T0]
        cpu = c1 - f[_C0]
        if stack:
            parent = stack[-1]
            parent[_CHILD_WALL] += wall
            parent[_CHILD_CPU] += cpu
        spans.append((
            f[_SID], f[_PARENT], tid, f[_NAME], f[_RUN], f[_T0], t1, cpu,
            wall - f[_CHILD_WALL], cpu - f[_CHILD_CPU],
        ))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Generator function ``fn`` with every ``next()`` recorded as one
        span: the work a generator does happens while its consumer pulls,
        not when it is created."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._timed_iter(fn(*args, **kwargs), name)

        return traced

    def _timed_iter(self, it: Iterator, name: str) -> Iterator:
        while True:
            self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end()
            yield item

    # -- results -----------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every finished span, all threads, in start order."""
        with self._lock:
            out = [Span(*t) for spans in self._per_thread for t in spans]
        out.sort(key=lambda s: (s.start_ns, s.sid))
        return out

    def open_spans(self) -> int:
        """Spans still open on the calling thread."""
        return len(self._state()[0])

    def dump(self, path: str | Path) -> int:
        """Write every finished span to ``path`` in one JSON document;
        returns the span count."""
        spans = self.spans()
        fields = list(Span.__dataclass_fields__)
        doc = {"fields": fields, "spans": [[getattr(s, f) for f in fields] for s in spans]}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
        return len(spans)
