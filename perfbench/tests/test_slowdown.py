"""Known-slowdown check: the benchmark measures what it claims.

A fixed busy delay per call, added by the benchmark's own wrapper around
one layer's entry points, must move the end-to-end metric of the
workload where that layer is busy past its bound, and leave the metric
within its bound on a workload where the layer idles.

Each comparison sets up, fits and serves the same training set eight
times back to back, twice in the order without the delay, with it, with
it, without it. Every run is on one CPU, as the benchmark command does,
and goes through the benchmark's own pipeline (``_end_to_end``), scaled
by reference times taken right before and after it, so that the
comparison depends on the delay and not on the machine's speed drifting
between runs. Takes about eight minutes.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import pytest

from run import pin_to_one_cpu
from workloads import REFERENCE_S, WORKLOADS, _end_to_end, reference_s, run_rep

ROOT = Path(__file__).resolve().parents[2]
SEED = 0
#: per ``ColumnSet`` read call or ``next()``: fit_ooc makes 20k-23k of
#: them per fit, fit_wide about 160
READ_DELAY_S = 300e-6
#: per ``CompiledTree.predict_matrix`` call: once per member per batch
PREDICT_DELAY_S = 3e-3

DECL = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in DECL["end_to_end"]}
SERVE = ("serve_records_per_s", "serve_p50_ms", "serve_p95_ms")


@pytest.fixture(autouse=True, scope="module")
def one_cpu():
    """Fit on one CPU, as the benchmark command does."""
    before = os.sched_getaffinity(0)
    pin_to_one_cpu()
    yield
    os.sched_setaffinity(0, before)


def worse(metric: str, base: float, new: float) -> float:
    """Share by which ``new`` is worse than ``base`` for ``metric``."""
    if METRICS[metric]["better"] == "lower":
        return new / base - 1.0
    return 1.0 - new / base


def bound(metric: str) -> float:
    return METRICS[metric]["bound"]


def end_to_end(name: str, delays: dict[str, float] | None) -> dict[str, float]:
    """The end-to-end metrics of training set 0 of ``name``, scaled by
    reference times taken next to it."""
    ref = [reference_s(), reference_s()]
    rep = run_rep(WORKLOADS[name], SEED, 0, delays=delays)
    ref += [reference_s(), reference_s()]
    assert rep.ok and rep.failed_batches == 0, rep.problems
    return _end_to_end(WORKLOADS[name], [[rep]], REFERENCE_S / statistics.median(ref))


def moved(name: str, delays: dict[str, float]) -> dict[str, float]:
    """Share by which each end-to-end metric of ``name`` gets worse with
    ``delays``: the mean of the four delayed runs against the mean of the
    four runs without, in the order without, with, with, without, twice."""
    base, slow = [], []
    for _ in range(2):
        for runs, d in ((base, None), (slow, delays), (slow, delays), (base, None)):
            runs.append(end_to_end(name, d))
    return {
        m: worse(m, statistics.fmean(r[m] for r in base), statistics.fmean(r[m] for r in slow))
        for m in ("fit_s", *SERVE)
    }


def test_ooc_read_delay_moves_fit_ooc_and_not_fit_wide():
    delays = {"ooc.read": READ_DELAY_S}
    ooc = moved("fit_ooc", delays)["fit_s"]
    wide = moved("fit_wide", delays)["fit_s"]
    assert ooc > bound("fit_s"), f"fit_ooc fit_s moved only {ooc:+.1%}"
    assert wide <= bound("fit_s"), f"fit_wide fit_s moved {wide:+.1%}"


def test_predict_delay_moves_forest_serving_and_not_fits():
    delays = {"serve.predict_matrix": PREDICT_DELAY_S}
    forest = moved("forest", delays)
    for metric in SERVE:
        assert forest[metric] > bound(metric), f"forest {metric} moved only {forest[metric]:+.1%}"
    for name in ("fit_ooc", "fit_wide"):
        fit = moved(name, delays)["fit_s"]
        assert fit <= bound("fit_s"), f"{name} fit_s moved {fit:+.1%}"
