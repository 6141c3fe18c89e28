"""Benchmark trajectory: aggregate every ``BENCH_*.json`` into one
schema-validated ``BENCH_trajectory.json`` with a regression gate.

Each bench already writes a structured payload (see the ``bench_*``
scripts); this tool reduces every payload to a single *headline metric*
(the number the PR that introduced the bench argued from), stamps the
commit and timestamp, and compares each headline against the recorded
baseline in ``benchmarks/baselines.json``. A headline that degrades by
more than the allowed percentage fails the gate — the perf story from
the optimisation PRs becomes a machine-checked time series instead of
prose in CHANGES.md.

Baselines are recorded from ``--quick`` runs (what CI executes); the
gate only fires when the payload's ``quick`` flag matches the recorded
baseline's, so a local full-size run never trips a smoke threshold.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py \
        [--dir .] [--out BENCH_trajectory.json] \
        [--baselines benchmarks/baselines.json] [--max-regression-pct 25]

Exit status 1 when any headline regressed past the threshold. A bench's
own ``ok: false`` travels through as the ``bench_ok`` annotation but is
not re-enforced here — that bench's CI job already reports it.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import subprocess
import sys

SCHEMA_VERSION = 1

#: payload["benchmark"] -> (metric name, direction, extractor).
#: direction "higher" = bigger is better; "lower" = smaller is better.
#: Extractors take the whole payload and reduce to the *worst* point so
#: the gate watches the weakest case, not a lucky average.
HEADLINES = {
    "bufferpool": (
        "min_read_reduction",
        "higher",
        lambda p: min(pt["read_reduction"] for pt in p["points"]),
    ),
    "voting": (
        "min_reduction_vs_attribute",
        "higher",
        lambda p: min(pt["reduction_vs_attribute"] for pt in p["points"]),
    ),
    "serve": (
        "min_speedup_vs_per_record",
        "higher",
        lambda p: min(pt["speedup_vs_per_record"] for pt in p["points"]),
    ),
    "obs_overhead": (
        "max_overhead",
        "lower",
        lambda p: max(pt["overhead"] for pt in p["points"]),
    ),
    "forest": (
        "min_cross_tree_read_reduction",
        "higher",
        lambda p: float(p["min_cross_tree_read_reduction"]),
    ),
}


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:  # pragma: no cover - no git on PATH
        pass
    return "unknown"


def headline_entry(payload: dict) -> dict | None:
    """Reduce one bench payload to its trajectory entry (None when the
    bench has no registered headline)."""
    bench = payload.get("benchmark")
    spec = HEADLINES.get(bench)
    if spec is None or not payload.get("points"):
        return None
    metric, direction, extract = spec
    return {
        "bench": bench,
        "metric": metric,
        "direction": direction,
        "value": float(extract(payload)),
        "quick": bool(payload.get("quick", False)),
        "bench_ok": bool(payload.get("ok", True)),
    }


def change_pct(entry: dict, baseline: float) -> float:
    """Signed degradation percentage vs. the baseline: positive means
    the headline got *worse* in its direction."""
    if baseline == 0:
        return 0.0
    delta = (entry["value"] - baseline) / abs(baseline) * 100.0
    return -delta if entry["direction"] == "higher" else delta


def gate(entries: list[dict], baselines: dict, max_pct: float) -> list[str]:
    """Apply baselines; mutates entries in place with ``baseline``,
    ``change_pct`` and ``regressed``; returns failure messages.

    Only *headline regressions vs. the recorded baseline* fail the
    gate — a bench's internal ``ok: false`` is already enforced by that
    bench's own CI job and travels here as the ``bench_ok`` annotation,
    so the trajectory stays a pure time-series check and does not
    double-report known bench failures."""
    failures = []
    for e in entries:
        base = baselines.get(e["bench"])
        if base is None or bool(base.get("quick", False)) != e["quick"]:
            e["regressed"] = False
            continue  # no comparable baseline recorded
        e["baseline"] = float(base["value"])
        pct = change_pct(e, e["baseline"])
        e["change_pct"] = pct
        e["regressed"] = pct > max_pct
        if e["regressed"]:
            worse = "below" if e["direction"] == "higher" else "above"
            failures.append(
                f"{e['bench']}: {e['metric']} = {e['value']:.4g} is "
                f"{pct:.1f}% {worse} baseline {e['baseline']:.4g} "
                f"(allowed {max_pct:g}%)"
            )
    return failures


def _validate(payload: dict) -> None:
    """Hand-rolled schema check (no jsonschema dependency): the shape CI
    consumers — and the next PR's dashboards — may rely on."""
    assert payload["schema_version"] == SCHEMA_VERSION
    assert isinstance(payload["commit"], str)
    assert isinstance(payload["timestamp"], str)
    assert isinstance(payload["entries"], list)
    for e in payload["entries"]:
        assert isinstance(e["bench"], str)
        assert isinstance(e["metric"], str)
        assert e["direction"] in ("higher", "lower")
        assert isinstance(e["value"], float)
        assert isinstance(e["quick"], bool)
        assert isinstance(e["regressed"], bool)
        if "baseline" in e:
            assert isinstance(e["baseline"], float)
            assert isinstance(e["change_pct"], float)


def build_trajectory(
    bench_dir: str, baselines: dict, max_pct: float
) -> tuple[dict, list[str]]:
    entries = []
    skipped = []
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        if os.path.basename(path) == "BENCH_trajectory.json":
            continue
        try:
            with open(path) as fh:
                bench_payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            # a crashed bench can leave an empty or truncated payload
            # behind; skip it rather than killing the whole aggregation
            skipped.append(os.path.basename(path) + " (unreadable)")
            continue
        if not isinstance(bench_payload, dict):
            skipped.append(os.path.basename(path) + " (unreadable)")
            continue
        entry = headline_entry(bench_payload)
        if entry is None:
            skipped.append(os.path.basename(path))
            continue
        entries.append(entry)
    failures = gate(entries, baselines, max_pct)
    payload = {
        "benchmark": "trajectory",
        "schema_version": SCHEMA_VERSION,
        "commit": _commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "max_regression_pct": max_pct,
        "entries": entries,
        "skipped": skipped,
        "ok": not failures,
        "failures": failures,
    }
    _validate(payload)
    return payload, failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--dir", default=".", help="directory holding the BENCH_*.json files"
    )
    ap.add_argument("--out", default="BENCH_trajectory.json")
    ap.add_argument(
        "--baselines",
        default=os.path.join(os.path.dirname(__file__), "baselines.json"),
        help="recorded headline baselines",
    )
    ap.add_argument(
        "--max-regression-pct", type=float, default=25.0,
        help="fail when a headline degrades more than this vs. baseline",
    )
    args = ap.parse_args(argv)

    baselines = {}
    if os.path.exists(args.baselines):
        with open(args.baselines) as fh:
            baselines = json.load(fh).get("headlines", {})
    payload, failures = build_trajectory(
        args.dir, baselines, args.max_regression_pct
    )

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({len(payload['entries'])} headline(s), "
          f"commit {payload['commit'][:12]})")
    for e in payload["entries"]:
        vs = ""
        if "baseline" in e:
            vs = (f"  vs baseline {e['baseline']:.4g} "
                  f"({e['change_pct']:+.1f}% worse)"
                  if e["change_pct"] >= 0 else
                  f"  vs baseline {e['baseline']:.4g} "
                  f"({-e['change_pct']:.1f}% better)")
        print(f"  {e['bench']:20s} {e['metric']:28s} {e['value']:.4g}{vs}")
    if payload["skipped"]:
        print(f"  (no headline registered for: "
              f"{', '.join(payload['skipped'])})")
    if failures:
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
