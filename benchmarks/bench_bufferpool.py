"""Buffer-pool ablation: cache + overlapped prefetch vs direct I/O.

The per-rank buffer pool (``buffer_pool="lru"``) retains streamed chunks
in an LRU cache drawn from its own memory budget, so the SSE member pass
and the partition pass of a node whose columns fit the pool re-read from
memory instead of disk; ``"lru+prefetch"`` additionally issues the read
of chunk i+1 while chunk i computes, hiding transfer time the consumer
would otherwise wait for. This bench measures simulated elapsed time,
bytes read and pool counters for the three modes over p ∈ {2, 4, 8} at a
streaming-heavy memory ratio, verifies the trees are bit-identical, and
writes ``BENCH_bufferpool.json``.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_bufferpool.py [--quick]

Exits non-zero if any tree differs across modes, if the cache does not
strictly reduce bytes read, if prefetch slows the fit down, or if any
rank's pool overruns its memory budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.harness import (  # noqa: E402
    ExperimentConfig,
    build_cluster,
    pclouds_config,
)
from repro.bench.reporting import format_table  # noqa: E402
from repro.core import DistributedDataset, PClouds  # noqa: E402
from repro.data import generate_quest, quest_schema  # noqa: E402

MODES = ("off", "lru", "lru+prefetch")
FULL_SIZES = {"3.6M": 18_000, "7.2M": 36_000}
FULL_RANKS = [2, 4, 8]
QUICK_SIZES = {"0.6M": 3_000}
QUICK_RANKS = [2]

#: small enough that the frontier streams for several levels, large
#: enough that those nodes fit the 4x pool — the regime the pool targets
MEMORY_RATIO = 0.25


def run_point(n_records: int, p: int, mode: str, scale: float) -> dict:
    cfg = ExperimentConfig(
        n_records=n_records, n_ranks=p, scale=scale, seed=0,
        memory_ratio=MEMORY_RATIO, buffer_pool=mode,
    )
    schema = quest_schema()
    cols, labels = generate_quest(
        cfg.n_records, cfg.function, seed=cfg.seed, noise=cfg.noise
    )
    cluster = build_cluster(cfg, schema.row_nbytes())
    dataset = DistributedDataset.create(
        cluster, schema, cols, labels, seed=cfg.seed + 1
    )
    res = PClouds(pclouds_config(cfg)).fit(dataset, seed=cfg.seed + 2)
    ctxs = dataset.contexts
    out = {
        "elapsed": res.elapsed,
        "bytes_read": int(sum(c.stats.bytes_read for c in ctxs)),
        "overlap_saved": float(
            sum(c.stats.io_overlap_saved for c in ctxs)
        ),
        "budget_ok": True,
        "_tree": res.tree.to_dict(),  # stripped before serialization
    }
    if mode != "off":
        pools = [c.disk.pool for c in ctxs]
        out.update(
            hits=int(sum(p_.stats.hits for p_ in pools)),
            misses=int(sum(p_.stats.misses for p_ in pools)),
            evictions=int(sum(p_.stats.evictions for p_ in pools)),
            prefetch_issued=int(
                sum(p_.stats.prefetch_issued for p_ in pools)
            ),
            prefetch_useful=int(
                sum(p_.stats.prefetch_useful for p_ in pools)
            ),
            budget_ok=all(
                c.pool_budget.high_water <= c.pool_budget.limit
                for c in ctxs
            ),
        )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick", action="store_true",
        help="small grid for the CI smoke job",
    )
    ap.add_argument(
        "--out", default="BENCH_bufferpool.json", help="output JSON path"
    )
    ap.add_argument("--scale", type=float, default=200.0)
    args = ap.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    ranks = QUICK_RANKS if args.quick else FULL_RANKS

    points = []
    failures = []
    for label, n in sizes.items():
        for p in ranks:
            results = {m: run_point(n, p, m, args.scale) for m in MODES}
            trees = {m: r.pop("_tree") for m, r in results.items()}
            identical = all(trees[m] == trees["off"] for m in MODES)
            point = {
                "dataset": label,
                "n_records": n,
                "n_ranks": p,
                "identical_trees": identical,
                "read_reduction": (
                    results["off"]["bytes_read"]
                    / results["lru"]["bytes_read"]
                ),
                "elapsed_gain": (
                    results["off"]["elapsed"]
                    / results["lru+prefetch"]["elapsed"]
                ),
                **{m: results[m] for m in MODES},
            }
            points.append(point)
            where = f"{label} p={p}"
            if not identical:
                failures.append(f"{where}: trees differ between modes")
            if results["lru"]["bytes_read"] >= results["off"]["bytes_read"]:
                failures.append(
                    f"{where}: cache did not reduce bytes read "
                    f"({results['lru']['bytes_read']} >= "
                    f"{results['off']['bytes_read']})"
                )
            if (
                results["lru+prefetch"]["elapsed"]
                > results["lru"]["elapsed"]
            ):
                failures.append(
                    f"{where}: prefetch slowed the fit "
                    f"({results['lru+prefetch']['elapsed']:.4f} > "
                    f"{results['lru']['elapsed']:.4f})"
                )
            for m in ("lru", "lru+prefetch"):
                if not results[m]["budget_ok"]:
                    failures.append(
                        f"{where}: pool overran its budget in mode {m}"
                    )

    print("Buffer pool: cache + overlapped prefetch vs direct I/O")
    rows = [
        [
            pt["dataset"],
            str(pt["n_ranks"]),
            f"{pt['off']['bytes_read'] / 2**20:.1f}",
            f"{pt['lru']['bytes_read'] / 2**20:.1f}",
            f"{pt['read_reduction']:.2f}x",
            f"{pt['off']['elapsed']:.2f}",
            f"{pt['lru+prefetch']['elapsed']:.2f}",
            f"{pt['elapsed_gain']:.3f}x",
            f"{pt['lru+prefetch']['overlap_saved']:.3f}",
            "yes" if pt["identical_trees"] else "NO",
        ]
        for pt in points
    ]
    print(
        format_table(
            [
                "data", "p", "MiB read off", "MiB read lru", "reduction",
                "t off", "t lru+pf", "gain", "overlap s", "same tree",
            ],
            rows,
        )
    )

    payload = {
        "benchmark": "bufferpool",
        "quick": bool(args.quick),
        "scale": args.scale,
        "memory_ratio": MEMORY_RATIO,
        "ranks": ranks,
        "sizes": sizes,
        "points": points,
        "ok": not failures,
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
