"""Metrics registry: counters, gauges and fixed-bucket histograms.

Design constraints, in order:

1. **Determinism.** Every recorded value must be a function of the
   simulated execution only, never of host timing. The registry is
   therefore *sharded per rank*: each rank thread writes exclusively to
   its own :class:`RankShard`, so no ordering between threads is ever
   observable. Merging happens after the run (or at a level barrier,
   where happens-before is established by the communicator) by summing
   counters and histograms in rank order.
2. **Low overhead.** Recording is a dict update on a pre-built
   ``(name, label-values)`` tuple key — no locks, no string formatting,
   no timestamping beyond the simulated clock values callers already
   hold. Every series lives in a small list *cell*, so a hot path can
   keep the cell (:meth:`RankShard.counter_cell`,
   :meth:`RankShard.histogram_cell`) and add to it without building or
   hashing the key again. Histograms use exemplar-free fixed bucket
   arrays.
3. **Prometheus compatibility.** Metric and label naming follow the
   Prometheus data model so :func:`repro.obs.prometheus.to_prometheus`
   is a straight serialization.

Label schema used by the pCLOUDS instrumentation (see
``docs/observability.md``): ``rank`` (decimal string), ``level``
(frontier level, ``"-"`` outside the level loop), ``phase`` (one of
``stats_exchange | alive_eval | partition | small_task | io |
collective | preprocess | checkpoint | recover | -``) and ``op`` (the
primitive name).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "RankShard",
    "add_to_histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
]

#: simulated-seconds buckets for primitive latencies (log-spaced; the
#: Table-1 startups sit around 1e-5..1e-4 s, full passes around seconds)
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, math.inf
)

#: payload-size buckets (power-of-16 spacing from one cache line up)
DEFAULT_BYTES_BUCKETS = (
    64.0, 1024.0, 16384.0, 262144.0, 4194304.0, 67108864.0, math.inf
)

_KINDS = ("counter", "gauge", "histogram")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric family."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str = ""
    labelnames: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()  # histograms only; must end with +inf

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "histogram":
            if not self.buckets or self.buckets[-1] != math.inf:
                raise ValueError(
                    f"histogram {self.name!r} needs buckets ending in +inf"
                )
            if list(self.buckets) != sorted(self.buckets):
                raise ValueError(f"histogram {self.name!r} buckets not sorted")


def add_to_histogram(cell: list[float], buckets: tuple[float, ...], value: float) -> None:
    """Count ``value`` into a histogram cell ``[bucket counts..., sum,
    count]`` over ``buckets``."""
    # first edge with value <= edge; the +inf sentinel guarantees a hit
    cell[bisect_left(buckets, value)] += 1.0
    cell[-2] += value
    cell[-1] += 1.0


# convenience aliases so callers can declare intent
def Counter(name: str, help: str = "", labelnames: Iterable[str] = ()) -> MetricSpec:
    """Monotonically increasing value (bytes moved, calls made)."""
    return MetricSpec(name, "counter", help, tuple(labelnames))


def Gauge(name: str, help: str = "", labelnames: Iterable[str] = ()) -> MetricSpec:
    """Point-in-time value (frontier width, live bytes)."""
    return MetricSpec(name, "gauge", help, tuple(labelnames))


def Histogram(
    name: str,
    help: str = "",
    labelnames: Iterable[str] = (),
    buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
) -> MetricSpec:
    """Fixed-bucket distribution (latencies, payload sizes)."""
    return MetricSpec(name, "histogram", help, tuple(labelnames), tuple(buckets))


class RankShard:
    """One rank's private slice of the registry.

    Only the owning rank thread may write; the merge reads after a
    happens-before edge (run join or a collective barrier), so no locks
    are needed anywhere on the hot path.
    """

    __slots__ = ("registry", "rank", "counters", "gauges", "histograms")

    def __init__(self, registry: "MetricsRegistry", rank: int) -> None:
        self.registry = registry
        self.rank = rank
        # counter cell: [value]
        self.counters: dict[tuple[str, tuple[str, ...]], list[float]] = {}
        self.gauges: dict[tuple[str, tuple[str, ...]], float] = {}
        # histogram cell: [bucket counts..., sum, count]
        self.histograms: dict[tuple[str, tuple[str, ...]], list[float]] = {}

    def counter_cell(self, name: str, labels: tuple[str, ...] = ()) -> list[float]:
        """The cell ``[value]`` of one counter series, created at 0."""
        key = (name, labels)
        cell = self.counters.get(key)
        if cell is None:
            cell = self.counters[key] = [0.0]
        return cell

    def histogram_cell(self, name: str, labels: tuple[str, ...] = ()) -> list[float]:
        """The cell of one histogram series (see :func:`add_to_histogram`),
        created empty."""
        key = (name, labels)
        cell = self.histograms.get(key)
        if cell is None:
            n = len(self.registry.spec(name).buckets)
            cell = self.histograms[key] = [0.0] * (n + 2)
        return cell

    def inc(self, name: str, labels: tuple[str, ...] = (), value: float = 1.0) -> None:
        self.counter_cell(name, labels)[0] += value

    def set(self, name: str, labels: tuple[str, ...] = (), value: float = 0.0) -> None:
        self.gauges[(name, labels)] = float(value)

    def observe(self, name: str, labels: tuple[str, ...] = (), value: float = 0.0) -> None:
        add_to_histogram(
            self.histogram_cell(name, labels), self.registry.spec(name).buckets, value
        )


@dataclass
class _Sample:
    """One merged series: label values + value (scalar or histogram cell)."""

    labels: tuple[str, ...]
    value: float | list[float]


class MetricsRegistry:
    """Spec table plus per-rank shards.

    Typical life cycle::

        registry = MetricsRegistry()
        registry.register(Counter("repro_disk_bytes_total", ..., ("rank", "op")))
        shard = registry.shard(rank)      # one per rank thread
        shard.inc("repro_disk_bytes_total", (str(rank), "read"), 4096)
        ...
        snap = registry.snapshot()        # deterministic merged view
    """

    def __init__(self) -> None:
        self._specs: dict[str, MetricSpec] = {}
        self._shards: dict[int, RankShard] = {}

    # -- declaration ---------------------------------------------------------
    def register(self, *specs: MetricSpec) -> None:
        for spec in specs:
            existing = self._specs.get(spec.name)
            if existing is not None and existing != spec:
                raise ValueError(
                    f"metric {spec.name!r} already registered with a "
                    "different spec"
                )
            self._specs[spec.name] = spec

    def spec(self, name: str) -> MetricSpec:
        return self._specs[name]

    @property
    def specs(self) -> list[MetricSpec]:
        return [self._specs[k] for k in sorted(self._specs)]

    # -- shards --------------------------------------------------------------
    def shard(self, rank: int) -> RankShard:
        got = self._shards.get(rank)
        if got is None:
            got = self._shards[rank] = RankShard(self, rank)
        return got

    @property
    def shards(self) -> list[RankShard]:
        return [self._shards[r] for r in sorted(self._shards)]

    # -- merging -------------------------------------------------------------
    def merged(self) -> dict[str, list[_Sample]]:
        """Deterministic merge of all shards: counters and histograms sum
        elementwise per (name, labels); gauges are written in rank order
        (later ranks win — instrumentation always includes a ``rank``
        label or records replicated values on rank 0 only, so this rule
        never loses information). Series are sorted by label values."""
        counters: dict[tuple[str, tuple[str, ...]], float] = {}
        gauges: dict[tuple[str, tuple[str, ...]], float] = {}
        hists: dict[tuple[str, tuple[str, ...]], list[float]] = {}
        for shard in self.shards:  # ascending rank order
            for key, (v,) in shard.counters.items():
                counters[key] = counters.get(key, 0.0) + v
            for key, v in shard.gauges.items():
                gauges[key] = v
            for key, cell in shard.histograms.items():
                acc = hists.get(key)
                if acc is None:
                    hists[key] = list(cell)
                else:
                    for i, v in enumerate(cell):
                        acc[i] += v
        out: dict[str, list[_Sample]] = {name: [] for name in sorted(self._specs)}
        for store in (counters, gauges):
            for (name, labels), v in store.items():
                out.setdefault(name, []).append(_Sample(labels, v))
        for (name, labels), cell in hists.items():
            out.setdefault(name, []).append(_Sample(labels, cell))
        for name in out:
            out[name].sort(key=lambda s: s.labels)
        return out

    # -- snapshots -----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready merged snapshot (the shape embedded in BENCH_*.json
        payloads and written by ``repro health --json-out``)."""
        merged = self.merged()
        families = []
        for spec in self.specs:
            samples = []
            for s in merged.get(spec.name, []):
                entry: dict = {
                    "labels": dict(zip(spec.labelnames, s.labels)),
                }
                if spec.kind == "histogram":
                    cell = s.value
                    entry["buckets"] = {
                        ("+Inf" if edge == math.inf else repr(edge)): cell[i]
                        for i, edge in enumerate(spec.buckets)
                    }
                    entry["sum"] = cell[-2]
                    entry["count"] = cell[-1]
                else:
                    entry["value"] = s.value
                samples.append(entry)
            families.append(
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "help": spec.help,
                    "samples": samples,
                }
            )
        return {"metrics": families}
