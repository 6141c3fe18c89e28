"""The program's layers, the entry points the traced run wraps, and the
per-layer roll-up of the spans they record.

Layers are the package modules of ``repro``. Every entry point is
wrapped from outside, by replacing a module or class attribute for the
duration of one :func:`installed` block and restoring it afterwards, so
the program itself carries no tracing code. A function imported by name
into another module (``from .alive import evaluate_alive_level``) is
replaced in the importing modules listed in ``into``: that also scopes
helpers such as the gini split searches to the callers the metric is
about.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from spans import Span, SpanRecorder

__all__ = [
    "ENTRY_POINTS",
    "PROGRAM_BODIES",
    "EntryPoint",
    "busy_wait",
    "installed",
    "layer_rollup",
]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped call: span ``name`` around ``module.attr``.

    ``attr`` is ``func`` or ``Class.method``. ``into`` lists the modules
    whose global of that name is replaced (default: the defining module);
    ``generator`` times each ``next()`` instead of the call.
    """

    name: str
    module: str
    attr: str
    into: tuple[str, ...] = ()
    generator: bool = False


def _methods(name: str, module: str, cls: str, methods: tuple[str, ...],
             generator: bool = False) -> list[EntryPoint]:
    return [EntryPoint(name, module, f"{cls}.{m}", generator=generator) for m in methods]


_COMM = (
    "barrier", "bcast", "scatter", "gather", "allgather", "vote", "reduce",
    "allreduce", "allreduce_minloc", "allreduce_minloc_many", "scan",
    "alltoall", "split", "isend", "irecv", "send", "recv",
)
_RECORDER = (
    "record_collective", "record_p2p", "record_disk", "record_phase",
    "record_fault", "begin_attempt", "begin_level", "end_level",
    "on_survival", "on_small_assignment", "on_stats_exchange",
    "on_exchange_payload", "on_vote_election", "finalize",
)
_PCLOUDS = ("repro.core.pclouds",)

ENTRY_POINTS: list[EntryPoint] = [
    # core: the pCLOUDS driver and its per-level steps
    EntryPoint("core.driver", "repro.core.pclouds", "fit_tree_program",
               into=("repro.core.pclouds", "repro.forest.trainer")),
    EntryPoint("core.preprocess", "repro.core.pclouds", "_root_preprocess"),
    *_methods("core.stats", "repro.core.access", "InCoreAccess", ("stats_pass",)),
    *_methods("core.stats", "repro.core.access", "StreamingAccess", ("stats_pass",)),
    EntryPoint("core.exchange", "repro.core.stats_exchange", "exchange_level_stats", _PCLOUDS),
    EntryPoint("core.exchange", "repro.core.stats_exchange", "exchange_node_stats", _PCLOUDS),
    EntryPoint("core.alive", "repro.core.alive", "evaluate_alive_level", _PCLOUDS),
    EntryPoint("core.alive", "repro.core.alive", "evaluate_alive_parallel", _PCLOUDS),
    *_methods("core.alive", "repro.core.access", "InCoreAccess", ("alive_members",)),
    *_methods("core.alive", "repro.core.access", "StreamingAccess", ("alive_members",)),
    *_methods("core.partition", "repro.core.access", "InCoreAccess", ("partition",)),
    *_methods("core.partition", "repro.core.access", "StreamingAccess", ("partition",)),
    EntryPoint("core.small_tasks", "repro.core.small_tasks", "process_small_tasks", _PCLOUDS),
    # clouds: the sequential kernels the driver calls
    EntryPoint("clouds.boundaries", "repro.clouds.builder", "node_boundaries", _PCLOUDS),
    EntryPoint("clouds.accumulate", "repro.clouds.nodestats", "accumulate_batch",
               into=("repro.core.access",)),
    EntryPoint("clouds.direct", "repro.clouds.direct", "build_subtree_direct",
               into=("repro.core.small_tasks",)),
    EntryPoint("clouds.split_search", "repro.clouds.gini", "boundary_sweep",
               into=("repro.core.stats_exchange",)),
    EntryPoint("clouds.split_search", "repro.clouds.gini", "best_categorical_split",
               into=("repro.core.stats_exchange",)),
    EntryPoint("clouds.split_search", "repro.clouds.sse", "determine_alive_intervals",
               into=("repro.core.stats_exchange",)),
    EntryPoint("clouds.split_search", "repro.clouds.sse", "evaluate_alive_interval",
               into=("repro.core.alive",)),
    # ooc: column-set reads and writes (buffer pool, disk model and CRC inside)
    *_methods("ooc.read", "repro.ooc.columnset", "ColumnSet",
              ("read_all", "read_column", "read_labels")),
    *_methods("ooc.read", "repro.ooc.columnset", "ColumnSet",
              ("iter_batches", "iter_column_with_labels"), generator=True),
    *_methods("ooc.write", "repro.ooc.columnset", "ColumnSet",
              ("from_arrays", "append_batch", "delete")),
    # cluster: every communicator primitive
    *_methods("cluster.comm", "repro.cluster.comm", "Comm", _COMM),
    *_methods("cluster.comm", "repro.cluster.comm", "Request", ("wait", "test")),
    # forest: the per-rank forest program and bag sampling
    EntryPoint("forest.driver", "repro.forest.trainer", "_forest_program"),
    EntryPoint("forest.bagging", "repro.forest.bagging", "bag_multiplicities",
               into=("repro.forest.trainer",)),
    # serve: compile and the compiled batch path
    EntryPoint("serve.compile", "repro.serve.compiler", "compile_tree",
               into=("repro.serve", "repro.serve.forest")),
    EntryPoint("serve.compile", "repro.serve.forest", "compile_forest",
               into=("repro.serve",)),
    *_methods("serve.feature_matrix", "repro.serve.compiler", "CompiledTree", ("feature_matrix",)),
    *_methods("serve.feature_matrix", "repro.serve.forest", "CompiledForest", ("feature_matrix",)),
    *_methods("serve.predict_matrix", "repro.serve.compiler", "CompiledTree", ("predict_matrix",)),
    *_methods("serve.vote", "repro.serve.compiler", "CompiledTree", ("predict_batch",)),
    *_methods("serve.vote", "repro.serve.forest", "CompiledForest",
              ("predict_batch", "vote_counts")),
    # obs: the metrics recorder and its registry shard
    *_methods("obs.record", "repro.obs.instrument", "MetricsRecorder", _RECORDER),
    *_methods("obs.registry", "repro.obs.registry", "RankShard", ("inc", "set", "observe")),
]


#: the per-rank program bodies: their self time is work under no
#: narrower entry point, which trace coverage does not count as attributed
PROGRAM_BODIES = ("core.driver", "forest.driver")


def busy_wait(seconds: float) -> None:
    """Spin on the CPU for ``seconds`` (a fixed per-call cost that
    behaves like slower code: it holds the interpreter lock)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _delayed(fn: Callable, delay: float, generator: bool) -> Callable:
    """``fn`` with a fixed busy delay per call (per ``next()`` for a
    generator)."""
    if generator:
        def slow_gen(*args, **kwargs):
            for item in fn(*args, **kwargs):
                busy_wait(delay)
                yield item
        return slow_gen

    def slow(*args, **kwargs):
        busy_wait(delay)
        return fn(*args, **kwargs)
    return slow


def _wrapper(ep: EntryPoint, fn: Callable, recorder: SpanRecorder | None,
             delay: float) -> Callable:
    """``fn`` delayed first, then recorded, so a recorded span includes
    the delay."""
    if delay:
        fn = _delayed(fn, delay, ep.generator)
    if recorder is None:
        return fn
    if ep.generator:
        return recorder.wrap_generator(fn, ep.name)
    return recorder.wrap(fn, ep.name)


@contextmanager
def installed(
    recorder: SpanRecorder | None = None,
    delays: dict[str, float] | None = None,
    *,
    missing: list[str] | None = None,
) -> Iterator[None]:
    """Wrap the entry points for the duration of the block.

    With a ``recorder`` every entry point records spans; ``delays`` maps
    span names (``"ooc.read"``) to a busy delay in seconds added to each
    call of those entry points. Without a recorder only the delayed entry
    points are wrapped, so an untraced run pays nothing else. Entry
    points the program no longer has are skipped and named in
    ``missing``.
    """
    delays = delays or {}
    undo: list[tuple[object, str, object]] = []
    try:
        for ep in ENTRY_POINTS:
            delay = delays.get(ep.name, 0.0)
            if recorder is None and not delay:
                continue
            try:
                owner = importlib.import_module(ep.module)
                cls_name, _, attr = ep.attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(_wrapper(ep, raw.__func__, recorder, delay))
                    else:
                        new = _wrapper(ep, raw, recorder, delay)
                    undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                fn = getattr(owner, attr)
                targets = [importlib.import_module(m) for m in (ep.into or (ep.module,))]
            except (ImportError, AttributeError, KeyError):
                if missing is not None:
                    missing.append(f"{ep.module}.{ep.attr}")
                continue
            new = _wrapper(ep, fn, recorder, delay)
            for mod in targets:
                if getattr(mod, attr, None) is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, new)
                elif missing is not None:
                    missing.append(f"{mod.__name__}.{attr}")
        yield
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)


@dataclass
class Rollup:
    """Self time and call counts per span name over one window."""

    cpu_s: dict[str, float]
    wall_s: dict[str, float]
    calls: dict[str, int]
    top_calls: dict[str, int]  # calls not nested in a span of the same name

    def cpu(self, name: str) -> float:
        return self.cpu_s.get(name, 0.0)

    def wall(self, name: str) -> float:
        return self.wall_s.get(name, 0.0)

    @property
    def total_cpu_s(self) -> float:
        return sum(self.cpu_s.values())

    @property
    def calls_total(self) -> int:
        return sum(self.calls.values())


def layer_rollup(spans: list[Span]) -> Rollup:
    """Sum self CPU and self wall per span name, summed over threads."""
    name_of = {s.sid: s.name for s in spans}
    cpu: dict[str, float] = {}
    wall: dict[str, float] = {}
    calls: dict[str, int] = {}
    top: dict[str, int] = {}
    for s in spans:
        cpu[s.name] = cpu.get(s.name, 0.0) + s.self_cpu_ns * 1e-9
        wall[s.name] = wall.get(s.name, 0.0) + s.self_wall_ns * 1e-9
        calls[s.name] = calls.get(s.name, 0) + 1
        if name_of.get(s.parent) != s.name:
            top[s.name] = top.get(s.name, 0) + 1
    return Rollup(cpu_s=cpu, wall_s=wall, calls=calls, top_calls=top)
