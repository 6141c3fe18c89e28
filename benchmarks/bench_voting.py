"""Voting-exchange payload ablation: O(attributes) vs O(top-k).

The three exact exchange strategies ship every attribute's interval
statistics through the per-level collectives, so their payloads grow
linearly with attribute count f. The PV-Tree-style ``exchange="voting"``
strategy first all-to-all broadcasts one (attribute, gini) ballot of
``vote_top_k`` rows per rank, elects at most ``2*top_k`` candidates, and
restricts the attribute-partitioned exchange to those — O(k) payloads
regardless of f. This bench fits wide synthetic blob datasets
(f ∈ {16, 64} numeric attributes) under all four strategies with tracing
on, measures the **actual stats-phase collective bytes** from the trace
byte accounting (not model estimates), and writes ``BENCH_voting.json``.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_voting.py [--quick]

Exits non-zero if voting at k=8 fails to cut the exchanged stats bytes
at least 2x vs ``exchange="attribute"`` at f=64, or if voting with
k >= f is not the attribute strategy: the same tree, the same simulated
elapsed time and the same traced stats bytes (no vote is held).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.harness import scaled_models  # noqa: E402
from repro.bench.reporting import format_table  # noqa: E402
from repro.cluster import Cluster  # noqa: E402
from repro.cluster.trace import assert_schedules_match  # noqa: E402
from repro.clouds import CloudsConfig, accuracy  # noqa: E402
from repro.core import DistributedDataset, PClouds, PCloudsConfig  # noqa: E402
from repro.data.synthetic import blob_schema, make_blobs  # noqa: E402
from repro.dnc.cost import exchange_stats_bytes  # noqa: E402

EXACT = ("attribute", "distributed", "allreduce")

FULL_WIDTHS = (16, 64)
FULL_RANKS = (4, 8)
FULL_RECORDS = 3_000
QUICK_WIDTHS = (64,)
QUICK_RANKS = (2,)
QUICK_RECORDS = 1_200

Q_ROOT = 60
TOP_K = 8  # the acceptance point: k=8 vs f=64


def run_point(
    f: int,
    p: int,
    n: int,
    scale: float,
    *,
    exchange: str,
    top_k: int = TOP_K,
) -> dict:
    """One traced fit; stats bytes come from the trace accounting."""
    schema = blob_schema(n_numeric=f, n_categorical=0, n_classes=2)
    _, cols, labels = make_blobs(n, schema, separation=2.0, noise=0.05, seed=7)
    net, disk, compute = scaled_models(scale)
    cluster = Cluster(p, network=net, disk=disk, compute=compute, seed=0)
    dataset = DistributedDataset.create(cluster, schema, cols, labels, seed=1)
    pc = PClouds(
        PCloudsConfig(
            clouds=CloudsConfig(
                method="sse", q_root=Q_ROOT, sample_size=4 * Q_ROOT,
                min_node=16, purity=0.999,
            ),
            exchange=exchange,
            vote_top_k=top_k,
        )
    )
    res = pc.fit(dataset, seed=2, trace=True)
    assert_schedules_match(res.tracers)
    report = res.trace_report()
    rollup = report.exchange_rollup()
    return {
        "exchange": exchange,
        "top_k": top_k if exchange == "voting" else None,
        "elapsed": res.elapsed,
        "stats_bytes": report.exchange_bytes(),
        "stats_collectives": sum(r.count for r in rollup),
        "stats_bytes_by_level": {r.name: r.sent for r in rollup},
        "accuracy": float(accuracy(labels, res.tree.predict(cols))),
        "n_nodes": res.tree.n_nodes,
        "_tree": res.tree.to_dict(),  # stripped before serialization
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick", action="store_true",
        help="small grid for the CI smoke job",
    )
    ap.add_argument(
        "--out", default="BENCH_voting.json", help="output JSON path"
    )
    ap.add_argument("--scale", type=float, default=200.0)
    args = ap.parse_args(argv)

    widths = QUICK_WIDTHS if args.quick else FULL_WIDTHS
    ranks = QUICK_RANKS if args.quick else FULL_RANKS
    n = QUICK_RECORDS if args.quick else FULL_RECORDS

    points = []
    failures = []
    for f in widths:
        for p in ranks:
            runs = {
                s: run_point(f, p, n, args.scale, exchange=s) for s in EXACT
            }
            runs[f"voting_k{TOP_K}"] = run_point(
                f, p, n, args.scale, exchange="voting", top_k=TOP_K
            )
            runs["voting_exact"] = run_point(
                f, p, n, args.scale, exchange="voting", top_k=f
            )
            trees = {name: r.pop("_tree") for name, r in runs.items()}

            identical = (
                trees["voting_exact"] == trees["attribute"]
                and runs["voting_exact"]["elapsed"] == runs["attribute"]["elapsed"]
                and runs["voting_exact"]["stats_bytes"]
                == runs["attribute"]["stats_bytes"]
            )
            reduction = (
                runs["attribute"]["stats_bytes"]
                / max(runs[f"voting_k{TOP_K}"]["stats_bytes"], 1)
            )
            # cross-check against the closed-form payload model
            predicted = {
                s: exchange_stats_bytes(
                    "voting" if s.startswith("voting") else s,
                    q=Q_ROOT, c=2, f=f, p=p,
                    top_k=f if s == "voting_exact" else TOP_K,
                )
                for s in runs
            }
            point = {
                "f": f,
                "n_ranks": p,
                "n_records": n,
                "top_k": TOP_K,
                "identical_k_ge_f": identical,
                "reduction_vs_attribute": reduction,
                "accuracy_delta_k8": (
                    runs[f"voting_k{TOP_K}"]["accuracy"]
                    - runs["attribute"]["accuracy"]
                ),
                "predicted_root_bytes": predicted,
                "runs": runs,
            }
            points.append(point)
            where = f"f={f} p={p}"
            if not identical:
                failures.append(
                    f"{where}: voting k={f} (k>=f) differs from the "
                    "attribute strategy in tree, elapsed or stats bytes"
                )
            if f == 64 and reduction < 2.0:
                failures.append(
                    f"{where}: voting k={TOP_K} cut stats bytes only "
                    f"{reduction:.2f}x vs attribute (need >= 2x)"
                )

    print("Voting exchange: per-level stats payload, traced bytes")
    rows = [
        [
            str(pt["f"]),
            str(pt["n_ranks"]),
            f"{pt['runs']['attribute']['stats_bytes'] / 1024:.1f}",
            f"{pt['runs']['allreduce']['stats_bytes'] / 1024:.1f}",
            f"{pt['runs'][f'voting_k{TOP_K}']['stats_bytes'] / 1024:.1f}",
            f"{pt['reduction_vs_attribute']:.2f}x",
            f"{pt['accuracy_delta_k8']:+.4f}",
            "yes" if pt["identical_k_ge_f"] else "NO",
        ]
        for pt in points
    ]
    print(
        format_table(
            [
                "f", "p", "KiB attribute", "KiB allreduce",
                f"KiB voting k={TOP_K}", "reduction", "acc delta",
                "k>=f identical",
            ],
            rows,
        )
    )

    payload = {
        "benchmark": "voting",
        "quick": bool(args.quick),
        "scale": args.scale,
        "q_root": Q_ROOT,
        "top_k": TOP_K,
        "widths": list(widths),
        "ranks": list(ranks),
        "n_records": n,
        "points": points,
        "ok": not failures,
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
