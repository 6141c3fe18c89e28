"""Command-line interface.

The subcommands cover the workflows the paper's users would run::

    repro generate --records 50000 --function 2 --out data.npz
    repro train data.npz --builder pclouds --ranks 8 --tree-out tree.json
    repro forest --records 6000 --ranks 4 --trees 8 --regime auto
    repro evaluate tree.json data.npz
    repro serve --tree tree.json --records 1000000 --qps 500000
    repro speedup --records 18000 --ranks 1 2 4 8
    repro trace --records 4000 --ranks 4 --out trace.json
    repro chaos --records 4000 --ranks 4 --seeds 0 1 2
    repro health --records 8000 --ranks 8 --prom-out metrics.prom

Datasets travel as ``.npz`` archives (one array per attribute column plus
``labels``); trees as the JSON wire format of
:meth:`repro.clouds.DecisionTree.to_dict`; ``repro trace`` writes
Chrome-trace JSON loadable in Perfetto (https://ui.perfetto.dev).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.bench.harness import ExperimentConfig, run_pclouds, scaled_models
from repro.bench.reporting import format_table
from repro.cluster import Cluster
from repro.clouds import (
    CloudsBuilder,
    CloudsConfig,
    DecisionTree,
    SprintBuilder,
    StoppingRule,
    accuracy,
    fit_direct,
    mdl_prune,
)
from repro.core import (
    EXCHANGE_STRATEGIES,
    DistributedDataset,
    PClouds,
    PCloudsConfig,
    parallel_evaluate,
)
from repro.data import generate_quest, quest_schema
from repro.forest import REGIMES

__all__ = ["main", "build_parser"]


def _load_dataset(path: str) -> tuple[dict[str, np.ndarray], np.ndarray]:
    with np.load(path) as archive:
        labels = archive["labels"]
        columns = {k: archive[k] for k in archive.files if k != "labels"}
    quest_schema().validate_columns(columns, labels)
    return columns, labels


def _save_dataset(path: str, columns: dict[str, np.ndarray], labels: np.ndarray) -> None:
    np.savez_compressed(path, labels=labels, **columns)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The synthetic single-tree fit that ``trace``, ``health`` and
    ``critpath`` run."""
    return ExperimentConfig(
        n_records=args.records, n_ranks=args.ranks, scale=args.scale,
        seed=args.seed, buffer_pool=args.buffer_pool,
        exchange=args.exchange, vote_top_k=args.vote_top_k,
    )


# -- subcommands --------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    columns, labels = generate_quest(
        args.records, function=args.function, seed=args.seed, noise=args.noise
    )
    _save_dataset(args.out, columns, labels)
    frac = float(np.mean(labels == 0)) if len(labels) else 0.0
    print(
        f"wrote {args.records:,} records (function {args.function}, "
        f"noise {args.noise:g}, {frac:.1%} Group A) to {args.out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    columns, labels = _load_dataset(args.data)
    schema = quest_schema()
    stopping = dict(min_node=args.min_node, purity=args.purity)

    if args.builder == "pclouds":
        net, disk, compute = scaled_models(args.scale)
        cluster = Cluster(
            args.ranks,
            network=net,
            disk=disk,
            compute=compute,
            memory_limit=args.memory_limit,
            seed=args.seed,
            buffer_pool=args.buffer_pool,
        )
        dataset = DistributedDataset.create(
            cluster, schema, columns, labels, seed=args.seed + 1
        )
        config = PCloudsConfig(
            clouds=CloudsConfig(
                method=args.method,
                q_root=args.q_root,
                sample_size=args.sample_size,
                **stopping,
            ),
            q_switch="auto" if args.q_switch == "auto" else int(args.q_switch),
            exchange=args.exchange,
            vote_top_k=args.vote_top_k,
        )
        result = PClouds(config).fit(dataset, seed=args.seed + 2)
        tree = result.tree
        print(
            f"pCLOUDS on {args.ranks} ranks: {result.elapsed:.1f} simulated s "
            f"({result.n_large_nodes} large nodes, "
            f"{result.n_small_tasks} small tasks)"
        )
    elif args.builder in ("clouds-ss", "clouds-sse"):
        cfg = CloudsConfig(
            method=args.builder.split("-")[1],
            q_root=args.q_root,
            sample_size=args.sample_size,
            **stopping,
        )
        tree = CloudsBuilder(schema, cfg).fit_arrays(columns, labels, seed=args.seed)
    elif args.builder == "sprint":
        tree = SprintBuilder(schema, StoppingRule(**stopping)).fit(columns, labels)
    elif args.builder == "sliq":
        from repro.clouds import SliqBuilder

        tree = SliqBuilder(schema, StoppingRule(**stopping)).fit(columns, labels)
    elif args.builder == "direct":
        tree = fit_direct(schema, columns, labels, StoppingRule(**stopping))
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(args.builder)

    if args.prune:
        _, removed = mdl_prune(tree)
        print(f"MDL pruning removed {removed} nodes")
    print(
        f"tree: {tree.n_nodes} nodes, {tree.n_leaves} leaves, depth {tree.depth}; "
        f"train accuracy {accuracy(labels, tree.predict(columns)):.4f}"
    )
    if args.tree_out:
        tree.save(args.tree_out)
        print(f"wrote tree to {args.tree_out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tree = DecisionTree.load(args.tree, quest_schema())
    columns, labels = _load_dataset(args.data)
    if args.ranks > 1:
        cluster = Cluster(args.ranks, seed=args.seed)
        dataset = DistributedDataset.create(
            cluster, quest_schema(), columns, labels, seed=args.seed
        )
        ev = parallel_evaluate(dataset, tree)
        print(
            f"accuracy {ev.accuracy:.4f} over {ev.n_records:,} records "
            f"({ev.elapsed:.2f} simulated s on {args.ranks} ranks)"
        )
        print("confusion matrix (rows true, cols predicted):")
        for row in ev.confusion:
            print("  " + " ".join(f"{v:8d}" for v in row))
    else:
        acc = accuracy(labels, tree.predict(columns))
        print(f"accuracy {acc:.4f} over {len(labels):,} records")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Compile a tree and replay a Quest record stream through the
    batched serving engine at a target QPS, reporting exact p50/p99
    latency and records/sec via the ``repro_serve_*`` metric family."""
    import json

    from repro.obs import HealthThresholds, to_prometheus
    from repro.serve import ReplayConfig, ServeEngine, replay

    schema = quest_schema()
    if args.tree:
        tree = DecisionTree.load(args.tree, schema)
        source = args.tree
    else:
        cols, labels = generate_quest(
            args.train_records, function=args.function, seed=args.seed
        )
        from repro.clouds import StoppingRule

        tree = fit_direct(
            schema, cols, labels, StoppingRule(min_node=args.min_node)
        )
        source = f"direct fit on {args.train_records:,} generated records"
    compiled = tree.compile()
    print(
        f"model: {source} — {compiled.n_nodes:,} nodes "
        f"({compiled.n_leaves:,} leaves, depth {compiled.depth}), "
        f"{compiled.nbytes / 1024:.1f} KiB compiled tables"
    )

    engine = ServeEngine(compiled)
    config = ReplayConfig(
        n_records=args.records,
        batch_size=args.batch_size,
        target_qps=args.qps,
        function=args.function,
        seed=args.seed + 1,
        noise=args.noise,
    )
    thresholds = HealthThresholds(
        serve_p99_seconds=args.p99_ms / 1e3,
        serve_min_qps_ratio=args.min_qps_ratio,
    )
    report = replay(engine, config, thresholds)
    print(report.render())

    # parity spot-check: the compiled engine must match the reference
    # tree on served traffic
    from repro.serve import request_batches

    check_cols, _ = request_batches(
        ReplayConfig(
            n_records=min(args.records, 50_000),
            batch_size=min(args.records, 50_000),
            function=args.function,
            seed=args.seed + 1,
            noise=args.noise,
        )
    )
    ok = bool(
        np.array_equal(
            compiled.predict_batch(check_cols[0]), tree.predict(check_cols[0])
        )
    )
    print(
        f"reference parity on {len(next(iter(check_cols[0].values()))):,} "
        f"records: {'OK' if ok else 'MISMATCH'}"
    )

    if args.json_out:
        payload = {
            "model": {
                "source": source,
                "n_nodes": compiled.n_nodes,
                "n_leaves": compiled.n_leaves,
                "depth": compiled.depth,
                "table_bytes": compiled.nbytes,
            },
            "replay": report.to_dict(),
            "reference_parity": ok,
            "metrics": engine.registry.snapshot(),
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)
        print(f"wrote serve report JSON to {args.json_out}")
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(to_prometheus(engine.registry))
        print(f"wrote Prometheus text exposition to {args.prom_out}")
    if not ok:
        return 1
    if args.strict and not report.healthy:
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.timeline import render_comm_phase_bars
    from repro.cluster.trace import assert_schedules_match
    from repro.cluster.tracereport import write_chrome_trace

    cfg = _experiment_config(args)
    res = run_pclouds(cfg, trace=True)
    assert_schedules_match(res.tracers)
    report = res.trace_report()
    n_events = sum(len(t.events) for t in res.tracers)
    print(
        f"traced pCLOUDS fit: {args.records:,} records on {args.ranks} ranks, "
        f"{res.elapsed:.2f} simulated s, {n_events:,} events "
        f"(SPMD schedule contract: OK)"
    )
    print()
    print(report.render())
    print()
    print("== comm bytes by phase (max over ranks) ==")
    print(render_comm_phase_bars(res.tracers))
    if args.out:
        write_chrome_trace(args.out, res.tracers)
        print(f"\nwrote Chrome-trace JSON to {args.out} "
              f"(load at https://ui.perfetto.dev)")
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    rows = []
    base = None
    for p in args.ranks:
        res = run_pclouds(
            ExperimentConfig(
                n_records=args.records, n_ranks=p, scale=args.scale, seed=args.seed
            )
        )
        if base is None:
            base = res.elapsed
        rows.append([p, res.elapsed, base / res.elapsed,
                     res.n_large_nodes, res.n_small_tasks])
    print(
        format_table(
            ["p", "sim time (s)", "speedup", "large", "small"],
            rows,
            title=f"pCLOUDS speedup, {args.records:,} records "
            f"(1:{args.scale:g} of paper scale)",
        )
    )
    return 0


#: buffer-pool modes the chaos sweep runs every plan under: without a
#: pool, and with one, whose dirty chunks a dead attempt must drop
CHAOS_POOLS = ("off", "lru+prefetch")


def cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep the standard fault plans with the buffer pool off and on:
    does every chaos run survive, does the recovered tree match the
    fault-free one bit for bit, and do the three fault views — the
    injector's log, the trace's fault events and ``repro_faults_total``
    — count the same faults?"""
    from repro.cluster import SpmdProgramError, standard_plans
    from repro.data import generate_quest

    def build(seed: int, pool: str, plan=None):
        net, disk, compute = scaled_models(args.scale)
        cluster = Cluster(
            args.ranks, network=net, disk=disk, compute=compute, seed=seed,
            buffer_pool=pool,
        )
        columns, labels = generate_quest(args.records, function=2, seed=seed)
        dataset = DistributedDataset.create(
            cluster, quest_schema(), columns, labels, seed=seed + 1
        )
        observed = plan is not None
        return PClouds().fit(
            dataset, seed=seed + 2, faults=plan, recover=observed,
            trace=observed, metrics=observed,
        )

    rows = []
    all_ok = True
    for seed in args.seeds:
        # the pool never changes the tree: one fault-free baseline per seed
        baseline = build(seed, "off").tree.to_dict()
        for pool in CHAOS_POOLS:
            for plan in standard_plans(args.ranks):
                try:
                    res = build(seed, pool, plan)
                except SpmdProgramError:
                    rows.append([plan.name, seed, pool, "-", "-", "no", "no", "-"])
                    all_ok = False
                    continue
                recovered = res.tree.to_dict() == baseline
                traced = sum(len(t.fault_events()) for t in res.tracers)
                metered = sum(
                    s.value for s in res.metrics.merged()["repro_faults_total"]
                )
                agree = len(res.fault_events) == traced == metered
                all_ok &= recovered and agree
                rows.append(
                    [
                        plan.name,
                        seed,
                        pool,
                        res.n_restarts,
                        len(res.fault_events),
                        "yes",
                        "yes" if recovered else "NO",
                        "yes" if agree
                        else f"NO ({traced} traced, {metered:g} metered)",
                    ]
                )
    print(
        format_table(
            [
                "plan", "seed", "pool", "restarts", "faults", "survived",
                "recovered", "views agree",
            ],
            rows,
            title=f"chaos sweep: {args.records:,} records on {args.ranks} ranks",
        )
    )
    print(
        "all plans recovered bit-identical trees; fault views agree"
        if all_ok
        else "FAILURE: some plans did not recover or their fault views disagree"
    )
    return 0 if all_ok else 1


def cmd_health(args: argparse.Namespace) -> int:
    """Run a metered synthetic fit and render the health report: per-level
    load imbalance, I/O amplification, and collective cost drift against
    the Table-1 model."""
    import json

    from repro.obs.health import HealthThresholds
    from repro.obs.report import render_health_markdown

    thresholds = HealthThresholds(
        imbalance=args.imbalance,
        io_amplification=args.io_amplification,
        drift_low=args.drift_low,
        drift_high=args.drift_high,
    )
    cfg = _experiment_config(args)
    pc_result = run_pclouds(cfg, metrics=True, health=thresholds)
    print(render_health_markdown(
        pc_result.health,
        title=f"Run health: {args.records:,} records on {args.ranks} ranks",
    ))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(pc_result.metrics_snapshot(), fh, indent=2, default=float)
        print(f"wrote metrics JSON to {args.json_out}")
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(pc_result.prometheus())
        print(f"wrote Prometheus text exposition to {args.prom_out}")
    if not pc_result.health.healthy and args.strict:
        return 1
    return 0


def cmd_forest(args: argparse.Namespace) -> int:
    """Train a bagged forest over one shared out-of-core spool and report
    the schedule (regime, groups, waves), the cross-tree cache payoff,
    and training accuracy through the compiled serving engine."""
    import json

    from repro.bench.harness import ForestExperimentConfig, forest_payload, run_forest

    cfg = ForestExperimentConfig(
        n_records=args.records, n_ranks=args.ranks, scale=args.scale,
        seed=args.seed, n_trees=args.trees, regime=args.regime,
        n_groups=args.groups, pool_ratio=args.pool_ratio,
        buffer_pool=args.buffer_pool,
        exchange=args.exchange, vote_top_k=args.vote_top_k,
    )
    result = run_forest(cfg, metrics=True)
    ct = result.cross_tree
    print(
        f"forest: {args.trees} trees on {args.ranks} ranks "
        f"(regime={args.regime} -> {result.n_groups} group(s) x "
        f"{result.n_waves} wave(s)): {result.elapsed:.1f} simulated s"
    )
    if result.regime_costs:
        modeled = ", ".join(
            f"G={g}: {c:.1f}s" for g, c in sorted(result.regime_costs.items())
        )
        print(f"  modelled regime costs: {modeled}")
    print(
        f"  cross-tree cache: {ct['cross_tree_hits']:,} of {ct['hits']:,} "
        f"pool hits crossed a tree boundary "
        f"({ct['cross_tree_hit_rate']:.1%}, "
        f"{ct['cross_tree_hit_bytes'] / 1e6:.2f} MB served from "
        f"other trees' reads)"
    )
    print(f"  disk read: {sum(result.disk_read_bytes) / 1e6:.2f} MB total")
    for rec in result.tree_stats:
        print(
            f"  tree {rec['tree']}: {rec['elapsed']:.1f}s "
            f"({rec['n_large']} large nodes, {rec['n_small']} small tasks)"
        )

    # training accuracy through the compiled engine (pinned bit-identical
    # to the reference majority vote, so this also exercises serving)
    columns, labels = generate_quest(
        args.records, function=cfg.function, seed=args.seed, noise=cfg.noise
    )
    predicted = result.forest.compile().predict_batch(columns)
    print(f"  training accuracy (compiled, majority vote): "
          f"{accuracy(labels, predicted):.4f}")

    if args.forest_out:
        result.forest.save(args.forest_out)
        print(f"wrote forest JSON to {args.forest_out}")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(forest_payload(result), fh, indent=2, default=float)
        print(f"wrote forest report JSON to {args.json_out}")
    if result.health is not None and not result.health.healthy and args.strict:
        return 1
    return 0


def cmd_critpath(args: argparse.Namespace) -> int:
    """Run a traced+metered fit, extract its causal critical path, and
    report the Table-1 blame decomposition with bounded what-if speedups
    (see docs/observability.md)."""
    import json

    from repro.cluster.tracereport import write_chrome_trace
    from repro.obs.critpath import (
        build_critical_path,
        critpath_alerts,
        record_critpath_metrics,
    )
    from repro.obs.health import HealthThresholds
    from repro.obs.report import render_critpath_markdown
    from repro.obs.whatif import (
        evaluate_all,
        standard_scenarios,
        voting_payload_ratio,
    )

    cfg = _experiment_config(args)
    res = run_pclouds(cfg, trace=True, metrics=True)
    network = scaled_models(cfg.scale)[0]
    path = build_critical_path(res.tracers, network, elapsed=res.elapsed)
    if path.length != res.elapsed:
        print(
            f"INVARIANT VIOLATION: path length {path.length!r} != "
            f"simulated elapsed {res.elapsed!r}",
            file=sys.stderr,
        )
        return 1

    estimates = None
    if args.what_if:
        schema = quest_schema()
        ratio = voting_payload_ratio(
            q=cfg.resolved_q_root(), c=schema.n_classes, f=len(schema),
            p=cfg.n_ranks, top_k=cfg.vote_top_k,
        )
        estimates = evaluate_all(path, standard_scenarios(ratio))

    thresholds = HealthThresholds(critpath_dominant_share=args.max_share)
    alerts = critpath_alerts(path, thresholds)
    if res.metrics is not None:
        record_critpath_metrics(res.metrics, path)
    if res.health is not None:
        res.health.alerts.extend(alerts)

    print(render_critpath_markdown(
        path,
        estimates=estimates,
        alerts=alerts,
        title=f"Critical path: {args.records:,} records on {args.ranks} ranks",
        meta={
            "exchange": cfg.exchange,
            "buffer_pool": cfg.buffer_pool,
            "elapsed_s": f"{res.elapsed:.4f}",
        },
    ))
    if args.json_out:
        payload = {
            "critical_path": path.to_dict(),
            "what_if": [e.to_dict() for e in estimates] if estimates else [],
            "alerts": [
                {
                    "indicator": a.indicator,
                    "op": a.op,
                    "value": a.value,
                    "threshold": a.threshold,
                    "message": a.message,
                }
                for a in alerts
            ],
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)
        print(f"wrote critical-path JSON to {args.json_out}")
    if args.out:
        write_chrome_trace(args.out, res.tracers, path)
        print(f"wrote Chrome-trace JSON (flow events + critical-path "
              f"overlay) to {args.out} — load at https://ui.perfetto.dev")
    if args.strict and alerts:
        return 1
    return 0


# -- parser ---------------------------------------------------------------------


def _add_fit_options(parser: argparse.ArgumentParser, scope: str = "") -> None:
    """The options every fitting subcommand shares: the buffer-pool mode
    and the statistics exchange."""
    parser.add_argument(
        "--buffer-pool", default="lru+prefetch",
        choices=list(Cluster.BUFFER_POOL_MODES),
        help="out-of-core chunk cache mode",
    )
    parser.add_argument(
        "--exchange", default="attribute", choices=list(EXCHANGE_STRATEGIES),
        help=f"{scope}statistics-exchange strategy",
    )
    parser.add_argument(
        "--vote-top-k", type=int, default=8,
        help="voting exchange: attributes each rank nominates (k >= the "
        "attribute count holds no vote and runs the attribute method)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="pCLOUDS: parallel out-of-core decision-tree classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a Quest synthetic dataset")
    g.add_argument("--records", type=int, required=True)
    g.add_argument("--function", type=int, default=2, choices=range(1, 11))
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output .npz path")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="fit a classifier")
    t.add_argument("data", help=".npz dataset from `repro generate`")
    t.add_argument(
        "--builder",
        default="pclouds",
        choices=["pclouds", "clouds-ss", "clouds-sse", "sprint", "sliq", "direct"],
    )
    t.add_argument("--ranks", type=int, default=8, help="pclouds: machine size")
    t.add_argument("--method", default="sse", choices=["ss", "sse"])
    t.add_argument("--q-root", type=int, default=500)
    t.add_argument("--q-switch", default="10", help="interval threshold or 'auto'")
    t.add_argument("--sample-size", type=int, default=2000)
    t.add_argument("--min-node", type=int, default=16)
    t.add_argument("--purity", type=float, default=1.0)
    t.add_argument("--memory-limit", type=int, default=None, help="bytes per rank")
    _add_fit_options(t, scope="pclouds: ")
    t.add_argument("--scale", type=float, default=100.0, help="cost-model scale")
    t.add_argument("--prune", action="store_true", help="MDL-prune after fitting")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--tree-out", help="write fitted tree as JSON")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="score a fitted tree on a dataset")
    e.add_argument("tree", help="tree JSON from `repro train --tree-out`")
    e.add_argument("data", help=".npz dataset")
    e.add_argument("--ranks", type=int, default=1, help=">1: distributed evaluation")
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_evaluate)

    sv = sub.add_parser(
        "serve",
        help="compile a tree and replay record batches at a target QPS "
        "(batched inference: p50/p99 latency, records/sec)",
    )
    sv.add_argument("--tree", help="tree JSON from `repro train --tree-out`")
    sv.add_argument(
        "--train-records", type=int, default=20_000,
        help="without --tree: fit a direct tree on this many records",
    )
    sv.add_argument("--min-node", type=int, default=16)
    sv.add_argument("--records", type=int, default=1_000_000)
    sv.add_argument("--batch-size", type=int, default=4096)
    sv.add_argument(
        "--qps", type=float, default=0.0,
        help="target records/sec (0 = unthrottled)",
    )
    sv.add_argument("--function", type=int, default=2, choices=range(1, 11))
    sv.add_argument("--noise", type=float, default=0.0)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument(
        "--p99-ms", type=float, default=50.0,
        help="serve-latency health threshold (p99 batch latency, ms)",
    )
    sv.add_argument(
        "--min-qps-ratio", type=float, default=0.9,
        help="alert when achieved/target throughput falls below this",
    )
    sv.add_argument("--json-out", help="write the serve report JSON")
    sv.add_argument("--prom-out", help="write Prometheus text exposition")
    sv.add_argument(
        "--strict", action="store_true", help="exit nonzero on any alert"
    )
    sv.set_defaults(func=cmd_serve)

    tr = sub.add_parser(
        "trace",
        help="run a traced fit: where do bytes and time go, per phase?",
    )
    tr.add_argument("--records", type=int, default=4000)
    tr.add_argument("--ranks", type=int, default=4)
    tr.add_argument("--scale", type=float, default=200.0, help="cost-model scale")
    tr.add_argument("--seed", type=int, default=0)
    _add_fit_options(tr)
    tr.add_argument("--out", help="write Chrome-trace/Perfetto JSON here")
    tr.set_defaults(func=cmd_trace)

    s = sub.add_parser("speedup", help="run a quick speedup experiment")
    s.add_argument("--records", type=int, default=18_000)
    s.add_argument("--ranks", type=int, nargs="+", default=[1, 2, 4, 8])
    s.add_argument("--scale", type=float, default=200.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_speedup)

    c = sub.add_parser(
        "chaos",
        help="fault-injection sweep, pool off and on: crash/corrupt/slow "
        "ranks, verify recovery",
    )
    c.add_argument("--records", type=int, default=4000)
    c.add_argument("--ranks", type=int, default=4)
    c.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    c.add_argument("--scale", type=float, default=200.0, help="cost-model scale")
    c.set_defaults(func=cmd_chaos)

    h = sub.add_parser(
        "health",
        help="metered fit + online health report: load imbalance, "
        "I/O amplification, cost-model drift vs Table 1",
    )
    h.add_argument("--records", type=int, default=8000)
    h.add_argument("--ranks", type=int, default=8)
    h.add_argument("--scale", type=float, default=200.0, help="cost-model scale")
    h.add_argument("--seed", type=int, default=0)
    _add_fit_options(h)
    h.add_argument(
        "--imbalance", type=float, default=2.0,
        help="alert when a level's max/mean busy ratio exceeds this",
    )
    h.add_argument(
        "--io-amplification", type=float, default=8.0,
        help="alert when level I/O bytes exceed this multiple of live bytes",
    )
    h.add_argument(
        "--drift-low", type=float, default=0.9,
        help="alert when observed/predicted collective cost falls below this",
    )
    h.add_argument(
        "--drift-high", type=float, default=1.1,
        help="alert when observed/predicted collective cost exceeds this",
    )
    h.add_argument("--json-out", help="write the merged metrics snapshot JSON")
    h.add_argument("--prom-out", help="write Prometheus text exposition")
    h.add_argument(
        "--strict", action="store_true", help="exit nonzero on any alert"
    )
    h.set_defaults(func=cmd_health)

    f = sub.add_parser(
        "forest",
        help="train a bagged forest over one shared spool: regime "
        "scheduling, cross-tree chunk-cache payoff, compiled voting",
    )
    f.add_argument("--records", type=int, default=6000)
    f.add_argument("--ranks", type=int, default=4)
    f.add_argument("--trees", type=int, default=8, help="ensemble size B")
    f.add_argument(
        "--regime", default="auto", choices=list(REGIMES),
        help="data-parallel, tree-parallel, hybrid, or cost-model auto",
    )
    f.add_argument(
        "--groups", type=int, default=None,
        help="hybrid: explicit concurrent group count (must divide ranks)",
    )
    f.add_argument(
        "--pool-ratio", type=float, default=None,
        help="buffer-pool capacity as a multiple of the memory limit "
        "(default: auto-size the pool to the shared working set)",
    )
    _add_fit_options(f)
    f.add_argument("--scale", type=float, default=100.0, help="cost-model scale")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--forest-out", help="write the fitted forest as JSON")
    f.add_argument("--json-out", help="write the forest report JSON")
    f.add_argument(
        "--strict", action="store_true", help="exit nonzero on any alert"
    )
    f.set_defaults(func=cmd_forest)

    cp = sub.add_parser(
        "critpath",
        help="traced fit + causal critical path: which events determined "
        "the elapsed time, and what would relieving them pay?",
    )
    cp.add_argument("--records", type=int, default=4000)
    cp.add_argument("--ranks", type=int, default=4)
    cp.add_argument("--scale", type=float, default=200.0, help="cost-model scale")
    cp.add_argument("--seed", type=int, default=0)
    _add_fit_options(cp)
    cp.add_argument(
        "--what-if", action="store_true",
        help="include bounded counterfactual speedups (Table-1 closed forms)",
    )
    cp.add_argument(
        "--max-share", type=float, default=0.9,
        help="alert when one category exceeds this share of the path",
    )
    cp.add_argument("--json-out", help="write path + what-if JSON here")
    cp.add_argument(
        "--out",
        help="write Chrome-trace JSON with flow events and the "
        "critical-path overlay",
    )
    cp.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on a dominant-category alert or invariant "
        "violation",
    )
    cp.set_defaults(func=cmd_critpath)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
