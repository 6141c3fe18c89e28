"""The benchmark's workloads and the timed run of one of them.

A workload is a fixed number of training sets. For each, the benchmark
generates the inputs, distributes them onto a simulated 2-rank machine
(set-up), fits (the timed fit), checks the fitted model, scores it on a
held-out set, and serves a stream of batches through the compiled engine
with one closed-loop client, checking every served record. A pass fits
every training set once; a run makes passes while they fit in its time.

Seeds: training set ``k`` of a run draws every input (records, their
placement on the ranks, the fit's sampling, held-out set and stream)
from seeds derived from ``(seed, k)``, so one ``--seed`` fixes every
input and every simulated-clock result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import repro.serve
from repro.bench.harness import (
    ExperimentConfig,
    ForestExperimentConfig,
    build_cluster,
    scaled_models,
)
from repro.clouds import CloudsConfig, accuracy
from repro.clouds.forest import DecisionForest, validate_forest
from repro.clouds.tree import validate_tree
from repro.cluster import Cluster
from repro.core import DistributedDataset, PClouds, PCloudsConfig
from repro.data import generate_quest, quest_schema
from repro.data.schema import Schema
from repro.data.synthetic import blob_schema, make_blobs
from repro.forest import ForestConfig, PForest

from layers import PROGRAM_BODIES, installed, layer_rollup
from spans import SpanRecorder

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "run_workload"]

#: set-ups timed before each fit (the last one is fitted); setup_s is
#: the median of every set-up in the run
SETUP_SAMPLES = 3
#: measured batches served by each training set's model, after a few
#: warm-up batches (checked, not timed); 200 leave 10 beyond its p95
SERVE_MEASURED = 200
SERVE_WARMUP = 4
#: distinct batches in each training set's serving stream
SERVE_DISTINCT = 2
HELD_OUT = 10_000
#: the traced run flags a workload whose layer entry points cover less
#: of the fit CPU
MIN_COVERAGE = 0.90

#: (name, unit) of the end-to-end metrics, measured with tracing off
END_TO_END = [
    ("fit_s", "s"),
    ("sim_elapsed_s", "s"),
    ("test_accuracy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("serve_records_per_s", "records/s"),
    ("serve_p50_ms", "ms"),
    ("serve_p95_ms", "ms"),
]

#: (name, unit) of the per-layer metrics, from the traced run
PER_LAYER = [
    *[(f"core.{p}.cpu_s", "s") for p in
      ("preprocess", "stats", "exchange", "alive", "partition", "small_tasks", "driver")],
    *[(f"core.{p}.sim_s", "s") for p in
      ("preprocess", "stats", "alive", "partition", "small_nodes")],
    ("clouds.boundaries.cpu_s", "s"),
    ("clouds.accumulate.cpu_s", "s"),
    ("clouds.direct.cpu_s", "s"),
    ("clouds.split_search.cpu_s", "s"),
    ("ooc.read.cpu_s", "s"),
    ("ooc.write.cpu_s", "s"),
    ("ooc.read.calls", "count"),
    ("ooc.disk_read_mb", "MiB"),
    ("ooc.disk_write_mb", "MiB"),
    ("ooc.pool_hit_rate", "ratio"),
    ("ooc.pool_evictions", "count"),
    ("ooc.cross_tree_hit_rate", "ratio"),
    ("ooc.mem_high_water_ratio", "ratio"),
    ("ooc.distribute_s", "s"),
    ("cluster.comm.cpu_s", "s"),
    ("cluster.comm.wait_s", "s"),
    ("cluster.comm.calls", "count"),
    ("cluster.comm_sent_mb", "MiB"),
    *[(f"cluster.sim.{k}_s", "s") for k in ("compute", "io", "comm", "idle")],
    ("forest.driver.cpu_s", "s"),
    ("forest.bagging.cpu_s", "s"),
    ("forest.groups", "count"),
    ("forest.waves", "count"),
    ("serve.compile_s", "s"),
    ("serve.feature_matrix.cpu_s", "s"),
    ("serve.predict_matrix.cpu_s", "s"),
    ("serve.vote.cpu_s", "s"),
    ("serve.batches", "count"),
    ("obs.record.cpu_s", "s"),
    ("obs.registry.cpu_s", "s"),
    ("data.generate_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]

_MIB = float(2**20)


def _sub_seed(seed: int, stream: int) -> int:
    """An independent seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


# -- workload definitions ---------------------------------------------------


def _pclouds_config(cfg: ExperimentConfig) -> PCloudsConfig:
    """The single-tree builder exactly as the repo's harness configures it."""
    return PCloudsConfig(
        clouds=CloudsConfig(
            method=cfg.method,
            q_root=cfg.resolved_q_root(),
            sample_size=cfg.resolved_sample(),
            min_node=cfg.min_node,
            purity=cfg.purity,
        ),
        q_switch=cfg.q_switch,
        exchange=cfg.exchange,
        frontier_batching=cfg.frontier_batching,
        vote_top_k=cfg.vote_top_k,
    )


def _quest(n: int, seed: int) -> tuple[dict, np.ndarray]:
    return generate_quest(n, 2, seed=seed, noise=0.05)


_OOC = ExperimentConfig(n_records=20_000, n_ranks=2)
_FOREST = ForestExperimentConfig(n_records=10_000, n_ranks=2, n_trees=4, regime="auto")
_WIDE_SCHEMA = blob_schema(n_numeric=64, n_categorical=0, n_classes=2)
_WIDE_RECORDS = 5_000
_WIDE_SCALE = 200.0


def _wide(n: int, seed: int) -> tuple[dict, np.ndarray]:
    _, cols, labels = make_blobs(n, _WIDE_SCHEMA, separation=2.0, noise=0.05, seed=seed)
    return cols, labels


def _ooc_cluster(seed: int) -> Cluster:
    return build_cluster(replace(_OOC, seed=seed), quest_schema().row_nbytes())


def _wide_cluster(seed: int) -> Cluster:
    net, disk, compute = scaled_models(_WIDE_SCALE)
    return Cluster(
        2, network=net, disk=disk, compute=compute, seed=seed,
        # the whole training set: every rank's fragment is processed in core
        memory_limit=_WIDE_RECORDS * _WIDE_SCHEMA.row_nbytes(),
        buffer_pool="lru+prefetch",
    )


def _forest_cluster(seed: int) -> Cluster:
    return build_cluster(replace(_FOREST, seed=seed), quest_schema().row_nbytes())


def _fit_ooc(dataset: DistributedDataset, seed: int):
    res = PClouds(_pclouds_config(_OOC)).fit(dataset, seed=seed)
    return res.tree, res


def _fit_wide(dataset: DistributedDataset, seed: int):
    cfg = PCloudsConfig(
        clouds=CloudsConfig(method="sse", q_root=60, sample_size=240, min_node=16, purity=0.999),
        exchange="voting",
        vote_top_k=8,
    )
    res = PClouds(cfg).fit(dataset, seed=seed)
    return res.tree, res


def _fit_forest(dataset: DistributedDataset, seed: int):
    cfg = ForestConfig(
        n_trees=_FOREST.n_trees, pclouds=_pclouds_config(_FOREST), regime=_FOREST.regime
    )
    res = PForest(cfg).fit(dataset, seed=seed, metrics=True)
    return res.forest, res


@dataclass(frozen=True)
class Workload:
    name: str
    schema: Schema
    n_train: int
    #: training sets fitted per pass; their mean damps the seed-to-seed
    #: spread of tree size that a single training set shows
    instances: int
    #: records per served batch, sized so one batch takes >= ~10 ms
    serve_batch: int
    generate: Callable[[int, int], tuple[dict, np.ndarray]]
    cluster: Callable[[int], Cluster]
    fit: Callable[[DistributedDataset, int], tuple]


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fit_ooc", quest_schema(), _OOC.n_records, 3, 32_768,
                 _quest, _ooc_cluster, _fit_ooc),
        Workload("fit_wide", _WIDE_SCHEMA, _WIDE_RECORDS, 4, 12_288,
                 _wide, _wide_cluster, _fit_wide),
        Workload("forest", quest_schema(), _FOREST.n_records, 3, 6_144,
                 _quest, _forest_cluster, _fit_forest),
    )
}


# -- one training set -----------------------------------------------------------


@dataclass
class Prepared:
    dataset: DistributedDataset
    test_cols: dict
    test_labels: np.ndarray
    stream: list[dict]


def instance_seed(seed: int, k: int) -> int:
    """Seed of training set ``k`` of a run with workload seed ``seed``."""
    return _sub_seed(seed, 100 + k)


def prepare(wl: Workload, seed: int, recorder: SpanRecorder | None = None) -> Prepared:
    """Everything before one fit: training, held-out and serving inputs,
    and the initial distribution onto the simulated disks."""
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    with span("data.generate"):
        cols, labels = wl.generate(wl.n_train, seed)
        test_cols, test_labels = wl.generate(HELD_OUT, _sub_seed(seed, 3))
        scols, _ = wl.generate(SERVE_DISTINCT * wl.serve_batch, _sub_seed(seed, 4))
    stream = [
        {k: v[i * wl.serve_batch:(i + 1) * wl.serve_batch] for k, v in scols.items()}
        for i in range(SERVE_DISTINCT)
    ]
    with span("ooc.distribute"):
        dataset = DistributedDataset.create(
            wl.cluster(seed), wl.schema, cols, labels, seed=_sub_seed(seed, 1)
        )
    return Prepared(dataset, test_cols, test_labels, stream)


@dataclass
class Rep:
    """Set-up, fit and serving of one training set."""

    instance: int
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    fit_s: float = 0.0
    fit_cpu_s: float = 0.0
    fitted: bool = False
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    sim_elapsed_s: float = 0.0
    test_accuracy: float = 0.0
    counters: dict = field(default_factory=dict)
    latencies_ns: list[int] = field(default_factory=list)
    served_records: int = 0
    batches: int = 0  # served, warm-up included
    failed_batches: int = 0

    @property
    def ok(self) -> bool:
        return self.fitted and not self.problems


def _trees(model) -> list:
    return model.trees if isinstance(model, DecisionForest) else [model]


def tree_digest(model) -> str:
    """SHA-256 over every member's structure, splits and counts."""
    doc = json.dumps([t.to_dict()["root"] for t in _trees(model)], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _budgets(ctx) -> list:
    return [b for b in (ctx.memory, ctx.pool_budget) if b is not None and b.limit is not None]


def check_fit(model, contexts, n_train: int) -> list[str]:
    """Output checks of one fit; returns the problems found."""
    problems = []
    try:
        (validate_forest if isinstance(model, DecisionForest) else validate_tree)(model)
    except AssertionError as exc:
        problems.append(f"invalid tree: {exc}")
    for t, tree in enumerate(_trees(model)):
        leaves = sum(int(n.class_counts.sum()) for n in tree.iter_nodes() if n.is_leaf)
        if leaves != n_train:
            problems.append(f"tree {t}: leaf counts sum to {leaves}, not {n_train}")
    for ctx in contexts:
        for b in _budgets(ctx):
            if b.high_water > b.limit:
                problems.append(
                    f"rank {ctx.rank}: memory high water {b.high_water} B over limit {b.limit} B"
                )
    return problems


def _snapshot(contexts) -> list[dict]:
    return [
        {
            "stats": c.stats.as_dict(),
            "pool": c.disk.pool.stats.as_dict() if c.disk.pool is not None else None,
        }
        for c in contexts
    ]


def _counters(pre: list[dict], contexts, result) -> dict:
    """Deterministic per-layer counters of one fit (deltas over the fit)."""
    post = _snapshot(contexts)

    def delta(section: str, key: str) -> float:
        return sum(
            b[section][key] - a[section][key]
            for a, b in zip(pre, post)
            if a[section] is not None
        )

    hits, misses = delta("pool", "hits"), delta("pool", "misses")
    phases: dict[str, float] = {}
    for key, sec in result.phases.items():  # forest phases are tree-prefixed
        phase = key.rsplit("/", 1)[-1]
        phases[phase] = phases.get(phase, 0.0) + sec
    out = {
        f"core.{p}.sim_s": phases.get(p, 0.0)
        for p in ("preprocess", "stats", "alive", "partition", "small_nodes")
    }
    out.update({
        "ooc.disk_read_mb": delta("stats", "bytes_read") / _MIB,
        "ooc.disk_write_mb": delta("stats", "bytes_written") / _MIB,
        "ooc.pool_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "ooc.pool_evictions": delta("pool", "evictions"),
        "ooc.cross_tree_hit_rate": delta("pool", "cross_tree_hits") / hits if hits else 0.0,
        "ooc.mem_high_water_ratio": max(
            (b.high_water / b.limit for c in contexts for b in _budgets(c)), default=0.0
        ),
        "cluster.comm_sent_mb": delta("stats", "bytes_sent") / _MIB,
        "cluster.sim.compute_s": delta("stats", "compute_time"),
        "cluster.sim.io_s": delta("stats", "io_time"),
        "cluster.sim.comm_s": delta("stats", "comm_time"),
        "cluster.sim.idle_s": delta("stats", "idle_time"),
        "forest.groups": getattr(result, "n_groups", 0),
        "forest.waves": getattr(result, "n_waves", 0),
    })
    return out


def _serve(rep: Rep, wl: Workload, model, stream: list[dict],
           recorder: SpanRecorder | None, run_id: str) -> None:
    """Compile ``model`` and replay ``stream`` round robin with one
    closed-loop client. Every served batch is compared with the model's
    reference ``predict`` outside the timed call."""
    refs = [model.predict(b) for b in stream]
    if recorder is not None:
        recorder.run = f"compile{run_id}"
    if isinstance(model, DecisionForest):
        compiled = repro.serve.compile_forest(model)
    else:
        compiled = repro.serve.compile_tree(model)
    for i in range(SERVE_WARMUP + SERVE_MEASURED):
        j = i % len(stream)
        if recorder is not None:
            recorder.run = f"serve{run_id}/b{i}" if i >= SERVE_WARMUP else "warmup"
        t0 = time.perf_counter_ns()
        out = compiled.predict_batch(stream[j])
        t1 = time.perf_counter_ns()
        rep.batches += 1
        if not np.array_equal(out, refs[j]):
            rep.failed_batches += 1
        if i >= SERVE_WARMUP:
            rep.latencies_ns.append(t1 - t0)
            rep.served_records += len(out)
    if recorder is not None:
        recorder.run = ""


def run_rep(
    wl: Workload,
    seed: int,
    k: int,
    *,
    recorder: SpanRecorder | None = None,
    delays: dict[str, float] | None = None,
) -> Rep:
    """Training set ``k``: set it up ``SETUP_SAMPLES`` times, fit the last
    set-up once, check and score the fit, then serve its stream."""
    iseed = instance_seed(seed, k)
    rep = Rep(instance=k, traced=recorder is not None)
    run_id = f"{k}t" if recorder is not None else str(k)
    with installed(recorder, delays):
        if recorder is not None:
            recorder.run = f"setup{run_id}"
        for _ in range(SETUP_SAMPLES):
            prep = None
            gc.collect()
            t0 = time.perf_counter()
            prep = prepare(wl, iseed, recorder)
            rep.setup_s.append(time.perf_counter() - t0)
        contexts = prep.dataset.contexts
        pre = _snapshot(contexts)
        gc.collect()
        if recorder is not None:
            recorder.run = f"fit{run_id}"
        model = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            model, result = wl.fit(prep.dataset, _sub_seed(iseed, 2))
        except Exception:  # a failed fit is counted, not fatal
            rep.problems.append("fit raised:\n" + traceback.format_exc())
        rep.fit_s = time.perf_counter() - t0
        rep.fit_cpu_s = time.process_time() - c0
        if recorder is not None:
            recorder.run = ""
        if model is None:
            return rep
        rep.fitted = True
        rep.problems += check_fit(model, contexts, wl.n_train)
        rep.digest = tree_digest(model)
        rep.sim_elapsed_s = result.elapsed
        rep.counters = _counters(pre, contexts, result)
        rep.test_accuracy = accuracy(prep.test_labels, model.predict(prep.test_cols))
        prep.dataset = result = None  # serving runs without the fit's machine
        gc.collect()
        _serve(rep, wl, model, prep.stream, recorder, run_id)
    return rep


# -- a whole run ---------------------------------------------------------------


#: seconds ``reference_s`` takes at the machine speed host times are
#: reported at: its median on the 2-core VM the bounds were measured on
REFERENCE_S = 0.2


def reference_s() -> float:
    """Seconds a fixed mix of interpreter work and NumPy calls takes now.

    The machine the bounds were measured on is shared, and its speed
    drifted by up to 40 % within minutes, moving every host time with it.
    A run times this mix between its training sets and scales its host
    times by ``REFERENCE_S`` over the median, which takes much of that
    drift out (README.md gives the spreads with and without). The mix
    does not touch the program, so a change to the program cannot move
    it.
    """
    rng = np.random.default_rng(12345)
    small = rng.random(8192)
    keys = rng.integers(0, 64, 8192)
    X = rng.random((32768, 9))
    col = rng.integers(0, 9, 32768)
    t0 = time.perf_counter()
    for _ in range(16):
        d: dict[int, int] = {}
        for i in range(2000):
            d[i % 97] = d.get(i % 97, 0) + i
        for i in range(40):
            m = small > (i / 40)
            np.bincount(keys[m], minlength=64)
            np.argsort(small[: 1024 + 64 * i], kind="stable")
        for i in range(4):
            rows = np.flatnonzero(X[:, 0] > i / 8)
            np.take(X[rows, col[rows]], rows % 7) <= 0.5
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _passes(wl: Workload, seed: int, seconds: float,
            ref: list[float]) -> list[list[Rep]]:
    """Run every training set once per pass; start another pass only
    while it would end within ``seconds``. Times the reference mix twice
    before each training set and after the last into ``ref``."""
    passes: list[list[Rep]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps = []
        for k in range(wl.instances):
            ref += [reference_s(), reference_s()]
            reps.append(run_rep(wl, seed, k))
        passes.append(reps)
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            ref += [reference_s(), reference_s()]
            return passes


def _traced_pass(wl: Workload, seed: int, recorder: SpanRecorder) -> list[Rep]:
    """Run every training set untraced and traced, alternating which goes
    first."""
    reps = []
    for k in range(wl.instances):
        pair = [run_rep(wl, seed, k), run_rep(wl, seed, k, recorder=recorder)]
        reps += pair if k % 2 == 0 else pair[::-1]
    return reps


def _check_repeats(reps: list[Rep], wl: Workload) -> list[str]:
    """Every fit of one training set must give the same tree and the same
    simulated time, traced or not."""
    first: dict[int, Rep] = {}
    problems = []
    for r in reps:
        if not r.ok:
            continue
        ref = first.setdefault(r.instance, r)
        if r.digest != ref.digest or r.sim_elapsed_s != ref.sim_elapsed_s:
            kind = "traced" if r.traced != ref.traced else "repeated"
            problems.append(
                f"[{wl.name}] {kind} fit of training set {r.instance} differs: digest "
                f"{r.digest[:12]} vs {ref.digest[:12]}, sim_elapsed_s "
                f"{r.sim_elapsed_s!r} vs {ref.sim_elapsed_s!r}"
            )
    return problems


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    spans_out: str | None = None,
) -> dict:
    """One benchmark run; returns the result object the command prints."""
    wl = WORKLOADS[name]
    recorder = SpanRecorder() if trace else None
    ref: list[float] = []
    if trace:
        missing: list[str] = []
        with installed(recorder, missing=missing):
            pass
        for m in missing:
            _log(f"[{wl.name}] FLAG: entry point not found, no spans: {m}")
        passes = [_traced_pass(wl, seed, recorder)]
    else:
        passes = _passes(wl, seed, seconds, ref)
    reps = [r for p in passes for r in p]
    for r in reps:
        for p in r.problems:
            _log(f"[{wl.name}] training set {r.instance}: {p}")
        if r.failed_batches:
            _log(f"[{wl.name}] training set {r.instance}: {r.failed_batches} served "
                 "batches differ from the reference predict")
    problems = _check_repeats(reps, wl)
    for p in problems:
        _log(p)
    attempted = sum(1 + r.batches for r in reps)
    failed = sum((not r.ok) + r.failed_batches for r in reps) + len(problems)
    metrics = {}
    if all(r.ok for r in reps):
        if trace:
            metrics = _per_layer(wl, reps, recorder)
        else:
            metrics = _end_to_end(wl, passes, REFERENCE_S / statistics.median(ref))
    if spans_out:
        _log(f"[{wl.name}] wrote {recorder.dump(spans_out)} spans to {spans_out}")
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _end_to_end(wl: Workload, passes: list[list[Rep]], scale: float) -> dict:
    """The end-to-end metrics; host times are multiplied by ``scale``
    (``REFERENCE_S`` over the run's median reference time)."""
    reps = [r for p in passes for r in p]
    lat = np.array([t for r in reps for t in r.latencies_ns], dtype=np.float64)
    lat_ms = [np.array(r.latencies_ns, dtype=np.float64) * 1e-6 for r in reps]
    raw = {
        "fit_s": statistics.median(_mean(r.fit_s for r in p) for p in passes),
        "setup_s": statistics.median(s for r in reps for s in r.setup_s),
        "serve_records_per_s": sum(r.served_records for r in reps) / (lat.sum() * 1e-9),
        # per model, then the mean: the mixed-model p95 would be the tail
        # of whichever model happens to be slowest
        "serve_p50_ms": _mean(float(np.percentile(x, 50)) for x in lat_ms),
        "serve_p95_ms": _mean(float(np.percentile(x, 95)) for x in lat_ms),
    }
    _log(
        f"[{wl.name}] {len(passes)} pass(es) over {len(passes[0])} training sets, "
        f"{sum(len(r.setup_s) for r in reps)} set-ups, {len(lat)} measured batches "
        f"of {wl.serve_batch} records; machine-speed scale {scale:.4f}, unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    )
    return {
        "fit_s": raw["fit_s"] * scale,
        "sim_elapsed_s": _mean(r.sim_elapsed_s for r in passes[0]),
        "test_accuracy": _mean(r.test_accuracy for r in passes[0]),
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": _peak_rss_mb(),
        "serve_records_per_s": raw["serve_records_per_s"] / scale,
        "serve_p50_ms": raw["serve_p50_ms"] * scale,
        "serve_p95_ms": raw["serve_p95_ms"] * scale,
    }


#: span names whose self thread-CPU is reported as ``<name>.cpu_s``
_CPU_SPANS = (
    "core.preprocess", "core.stats", "core.exchange", "core.alive", "core.partition",
    "core.small_tasks", "core.driver", "clouds.boundaries", "clouds.accumulate",
    "clouds.direct", "clouds.split_search",
    "ooc.read", "ooc.write", "cluster.comm", "forest.driver", "forest.bagging",
    "obs.record", "obs.registry",
)


def _per_layer(wl: Workload, reps: list[Rep], recorder: SpanRecorder) -> dict:
    """Per-layer metrics of the traced fits (per fit: mean over training
    sets), of the traced serving (summed over the run's measured
    batches), and the trace's coverage and overhead."""
    by_run: dict[str, list] = {}
    for s in recorder.spans():
        by_run.setdefault(s.run.split("/")[0], []).append(s)
    traced = [r for r in reps if r.traced]
    plain = {r.instance: r for r in reps if not r.traced}
    fits = [layer_rollup(by_run.get(f"fit{r.instance}t", [])) for r in traced]
    setups = [layer_rollup(by_run.get(f"setup{r.instance}t", [])) for r in traced]
    serving = layer_rollup([s for r in traced for s in by_run.get(f"serve{r.instance}t", [])])
    compiling = layer_rollup([s for r in traced for s in by_run.get(f"compile{r.instance}t", [])])

    out: dict[str, float] = {}
    for name in _CPU_SPANS:
        out[f"{name}.cpu_s"] = _mean(f.cpu(name) for f in fits)
    out["ooc.read.calls"] = _mean(f.calls.get("ooc.read", 0) for f in fits)
    out["cluster.comm.wait_s"] = _mean(f.wall("cluster.comm") - f.cpu("cluster.comm") for f in fits)
    out["cluster.comm.calls"] = _mean(f.top_calls.get("cluster.comm", 0) for f in fits)
    # a set-up span pair covers SETUP_SAMPLES set-ups: report one
    out["data.generate_s"] = _mean(s.wall("data.generate") for s in setups) / SETUP_SAMPLES
    out["ooc.distribute_s"] = _mean(s.wall("ooc.distribute") for s in setups) / SETUP_SAMPLES
    for key in traced[0].counters:
        out[key] = _mean(r.counters[key] for r in traced)
    out["serve.compile_s"] = sum(compiling.wall_s.values())
    for name in ("serve.feature_matrix", "serve.predict_matrix", "serve.vote"):
        out[f"{name}.cpu_s"] = serving.cpu(name)
    out["serve.batches"] = sum(len(r.latencies_ns) for r in traced)
    attributed = sum(f.total_cpu_s - sum(f.cpu(n) for n in PROGRAM_BODIES) for f in fits)
    out["trace.coverage"] = attributed / sum(r.fit_cpu_s for r in traced)
    out["trace.overhead"] = (
        sum(r.fit_s for r in traced) / sum(plain[r.instance].fit_s for r in traced) - 1.0
    )
    if out["trace.coverage"] < MIN_COVERAGE:
        _log(
            f"[{wl.name}] FLAG: trace coverage {out['trace.coverage']:.3f} is below "
            f"{MIN_COVERAGE:.2f} of the fit CPU: a layer is missing spans"
        )
    _log(
        f"[{wl.name}] {len(traced)} traced and {len(plain)} untraced fits, "
        f"{sum(f.calls_total for f in fits) // len(fits)} spans per traced fit"
    )
    return out
