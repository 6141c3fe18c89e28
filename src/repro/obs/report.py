"""Markdown rendering of a :class:`~repro.obs.health.HealthReport`
(the body of ``repro health``) and of a
:class:`~repro.obs.critpath.CriticalPath` (the body of
``repro critpath``)."""

from __future__ import annotations

from .health import OUTSIDE_LEVEL, HealthReport

__all__ = ["render_critpath_markdown", "render_health_markdown"]


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")  # pragma: no cover


def _level_name(level: int) -> str:
    return "outside" if level == OUTSIDE_LEVEL else str(level)


def render_health_markdown(report: HealthReport, title: str = "Run health") -> str:
    """Per-run health report: verdict, per-level indicator table, per-op
    drift vs the Table-1 model, and the alert list (worst first)."""
    lines: list[str] = [f"# {title}", ""]
    verdict = "HEALTHY" if report.healthy else f"{len(report.alerts)} alert(s)"
    summary = (
        f"**{verdict}** — {report.n_ranks} ranks, "
        f"{len(report.levels)} frontier level(s); "
        f"worst imbalance {report.worst_imbalance:.2f}x, "
        f"worst I/O amplification {report.worst_io_amplification:.2f}x, "
        f"overall cost drift {report.overall_drift:.3f}"
    )
    pool_lookups = sum(lh.cache_hits + lh.cache_misses for lh in report.levels)
    if pool_lookups:
        summary += (
            f", cache hit rate {report.cache_hit_rate:.1%}, "
            f"prefetch overlap saved {report.overlap_saved:.3f} s"
        )
    lines.append(summary)
    lines.append("")
    for key in sorted(report.meta):
        lines.append(f"- {key}: {report.meta[key]}")
    if report.meta:
        lines.append("")

    if report.levels:
        lines.append("## Frontier levels")
        lines.append("")
        lines.append(
            "| level | nodes | busy max (s) | busy mean (s) | imbalance "
            "| live bytes | I/O bytes | I/O amp | drift |"
        )
        lines.append("|---|---|---|---|---|---|---|---|---|")
        for lh in report.levels:
            name = _level_name(lh.level)
            if lh.tree is not None:
                name = f"{name} (tree {lh.tree})"
            if lh.attempt:
                name = f"{name} (attempt {lh.attempt})"
            lines.append(
                f"| {name} | {lh.n_frontier} | {lh.busy_max:.4f} "
                f"| {lh.busy_mean:.4f} | {lh.imbalance:.2f}x "
                f"| {_fmt_bytes(lh.live_bytes)} | {_fmt_bytes(lh.io_bytes)} "
                f"| {lh.io_amplification:.2f}x | {lh.drift:.3f} |"
            )
        lines.append("")

    if report.drift_ops:
        lines.append("## Collective cost drift (observed vs Table 1)")
        lines.append("")
        lines.append("| collective | observed (s) | predicted (s) | drift |")
        lines.append("|---|---|---|---|")
        for op, (obs, pred) in sorted(report.drift_ops.items()):
            drift = obs / pred if pred > 0 else 1.0
            lines.append(
                f"| {op} | {obs:.6f} | {pred:.6f} | {drift:.3f} |"
            )
        lines.append("")

    lines.append("## Alerts")
    lines.append("")
    if report.healthy:
        lines.append("No thresholds crossed.")
    else:
        for a in report.top_regressions(len(report.alerts)):
            lines.append(f"- **{a.indicator}**: {a.message}")
    lines.append("")
    return "\n".join(lines)


def render_critpath_markdown(
    path,
    estimates=None,
    alerts=None,
    title: str = "Critical path",
    meta: dict | None = None,
) -> str:
    """Per-run critical-path report: the Table-1 blame decomposition,
    per-level attribution, rank occupancy, and — when what-if estimates
    are passed — the bounded counterfactual speedups."""
    from .critpath import CATEGORIES

    cats = path.by_category()
    dom_cat, dom_share = path.dominant()
    lines: list[str] = [f"# {title}", ""]
    lines.append(
        f"**{dom_cat}-bound** ({dom_share:.1%} of the path) — "
        f"length {path.length:.4f} s (== slowest rank's elapsed), "
        f"{len(path.segments)} segment(s), "
        f"{path.n_cross_rank} rank crossing(s), ends on rank {path.end_rank}"
    )
    lines.append("")
    for key in sorted(meta or {}):
        lines.append(f"- {key}: {meta[key]}")
    if meta:
        lines.append("")

    lines.append("## Where the time went")
    lines.append("")
    lines.append("| category | seconds | share |")
    lines.append("|---|---|---|")
    for cat in CATEGORIES:
        secs = cats.get(cat, 0.0)
        if secs > 0.0:
            lines.append(f"| {cat} | {secs:.4f} | {path.share(cat):.1%} |")
    lines.append("")

    blame = path.by_level_category()
    by_level = path.by_level()
    if any(lv is not None for lv in by_level):
        lines.append("## Per-level blame")
        lines.append("")
        lines.append("| level | path (s) | dominant category | share |")
        lines.append("|---|---|---|---|")
        for lv in sorted(
            by_level, key=lambda x: (x is None, x if x is not None else 0)
        ):
            cell = blame[lv]
            dom = max(cell, key=cell.get)
            share = cell[dom] / by_level[lv] if by_level[lv] else 0.0
            name = "outside" if lv is None else str(lv)
            lines.append(
                f"| {name} | {by_level[lv]:.4f} | {dom} | {share:.0%} |"
            )
        lines.append("")

    shares = path.rank_share()
    if shares:
        lines.append("## Rank occupancy")
        lines.append("")
        lines.append("| rank | path (s) | share |")
        lines.append("|---|---|---|")
        for r, secs in sorted(shares.items()):
            lines.append(
                f"| {r} | {secs:.4f} | {secs / path.length:.1%} |"
            )
        lines.append("")

    if estimates:
        lines.append("## What-if (bounded speedups)")
        lines.append("")
        lines.append(
            "Estimates are lower bounds on the counterfactual elapsed "
            "(the path is re-timed, not re-routed), so each speedup is "
            "an **upper bound** on the payoff."
        )
        lines.append("")
        lines.append("| scenario | estimate (s) | saved (s) | speedup ≤ |")
        lines.append("|---|---|---|---|")
        for est in estimates:
            lines.append(
                f"| {est.scenario.name} | {est.estimate:.4f} "
                f"| {est.saved:.4f} | {est.speedup:.2f}x |"
            )
        lines.append("")

    lines.append("## Alerts")
    lines.append("")
    if not alerts:
        lines.append("No thresholds crossed.")
    else:
        for a in alerts:
            lines.append(f"- **{a.indicator}**: {a.message}")
    lines.append("")
    return "\n".join(lines)
