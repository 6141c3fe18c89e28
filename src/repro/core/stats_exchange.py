"""Evaluation of interval boundaries for numeric attributes, in parallel
(Section 5.1.1).

The paper implements the **replication method** with the
**attribute-based approach**: the global class-frequency vectors of each
attribute are assembled at exactly one owner processor; the owner runs the
(purely local) prefix sum over its boundaries, evaluates the gini at each
boundary, and the global minimum gini is elected with a min-reduction.
Categorical count matrices travel to owners the same way. With SSE, each
owner then determines the alive intervals of its attributes locally and
the statuses are broadcast to everyone (one allgather).

The naive variant (``exchange="allreduce"``) replicates *all* global
vectors on every processor via one global combine — simpler, but it moves
O(q·c·f) bytes through the reduction instead of O(q·c·f/p) per processor
and repeats the sweep p times; the ablation bench quantifies the gap.

The **distributed method** (``exchange="distributed"``) is the paper's
other alternative: instead of whole attributes, individual *intervals*
are assigned to owners (the random-access-write pattern of Bae's runtime
the paper cites), so the per-owner storage is O(q·c·f/p) even when
f < p. The cumulative class counts an owner needs for its boundaries are
no longer local — they are recovered with one parallel prefix sum
(Table 1's primitive) over the per-rank partial sums. The paper chose
replication for its simplicity and lower communication; this
implementation makes that trade-off measurable.

The **top-k voting method** (``exchange="voting"``) is the PV-Tree
communication shrink (Meng & Ke et al. 2016) layered on the
attribute-based machinery: every processor sweeps its *own* local
statistics, nominates its top-k attributes by local best gini in one
small ballot collective (:meth:`~repro.cluster.comm.Comm.vote`), and a
deterministic merge election — replicated on every rank from the
identical gathered ballots — picks at most 2k global candidates. Only
the elected attributes' statistics then travel through the
attribute-owner alltoall, cutting the dominant O(q·c·f) payload of the
exact strategies to O(q·c·k). Voting is an **approximation**: a
globally best attribute that no rank nominated cannot win. With
``vote_top_k >= n_attributes`` every attribute is elected and the
result is bit-identical to ``exchange="attribute"``.

Every strategy exchanges a *batch* of large nodes in one set of
collectives (:func:`exchange_level_stats`); the driver cuts each frontier
level into batches sized to the buffer pool. A batch of one
(:func:`exchange_node_stats`) is the paper's per-node exchange.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.comm import payload_nbytes
from repro.cluster.machine import RankContext
from repro.clouds.gini import best_categorical_split, boundary_sweep
from repro.clouds.nodestats import NodeStats, NumericStats
from repro.clouds.splits import CATEGORICAL_SPLIT, NUMERIC_SPLIT, Split, better
from repro.clouds.sse import AliveInterval, determine_alive_intervals
from repro.data.schema import Attribute, Schema

from .config import PCloudsConfig

__all__ = ["attribute_owner", "exchange_node_stats", "exchange_level_stats"]


def attribute_owner(attr_index: int, n_ranks: int) -> int:
    """Round-robin assignment of attributes to owner processors."""
    return attr_index % n_ranks


def _owned_attributes(attrs: Sequence[Attribute], rank: int, size: int) -> list[str]:
    """Names this rank owns among ``attrs`` — ownership is positional
    within the list, so a restricted candidate list (the voting path)
    round-robins its members over the ranks the same way the full
    schema does."""
    return [
        a.name for i, a in enumerate(attrs) if attribute_owner(i, size) == rank
    ]


def _best_boundary_split_of(
    name: str, boundaries: np.ndarray, hist: np.ndarray, total: np.ndarray
) -> Split | None:
    """Owner-side boundary sweep of one numeric attribute's full
    histogram — the whole-attribute form of the shared block sweep
    (``lo = 0``, cumulative counts from the histogram itself)."""
    if boundaries.size == 0:
        return None
    return _best_block_boundary_split(
        name, boundaries, 0, np.cumsum(hist, axis=0)[:-1], total
    )


def _best_block_boundary_split(
    name: str,
    bounds: np.ndarray,
    lo: int,
    cum: np.ndarray,
    total_counts: np.ndarray,
) -> Split | None:
    """The shared owner-side boundary sweep: gini over one block of
    cumulative counts, where interval row ``i`` closes boundary
    ``lo + i``. All three sweep call sites — whole-attribute owners
    (via :func:`_best_boundary_split_of`), the distributed method's
    interval blocks, and the voting path's local nomination scorer —
    reduce to this form. Ties resolve to the smallest row index, i.e.
    the smallest threshold — exactly what a sequential scan with the
    split order-key tiebreak picks, since the boundaries are sorted
    ascending."""
    if cum.shape[0] == 0:
        return None
    total = np.asarray(total_counts, dtype=np.float64)
    n_total = float(total.sum())
    b = lo + np.arange(cum.shape[0])
    sizes = cum.sum(axis=1)
    valid = (b < len(bounds)) & (sizes > 0) & (sizes < n_total)
    if not valid.any():
        return None
    ginis = np.where(valid, boundary_sweep(cum, total), np.inf)
    k = int(np.argmin(ginis))
    return Split(
        attribute=name,
        kind=NUMERIC_SPLIT,
        gini=float(ginis[k]),
        threshold=float(bounds[lo + k]),
    )


# -- the batched exchange -----------------------------------------------------


def exchange_level_stats(
    ctx: RankContext,
    schema: Schema,
    locals_list: list[NodeStats],
    counts_list: list[np.ndarray],
    config: PCloudsConfig,
) -> list[tuple[Split | None, list[AliveInterval]]]:
    """Turn per-processor statistics of a *batch* of large nodes into each
    node's gini_min splitter and (for SSE) its alive-interval list,
    replicated on every rank. All nodes' statistics travel in **one**
    alltoall, the per-node minima are elected in **one** k-way
    min-reduction, and (for SSE) all nodes' alive statuses replicate in
    **one** allgather — so the collective count is constant in the batch
    size.

    Every rank must call this with the same batch, each node's statistics
    built over the *same* interval boundaries on every rank. Returns one
    ``(split, alive)`` pair per node, in batch order; a node's result does
    not depend on which other nodes share its batch.
    """
    if not locals_list:
        return []
    ctx.notify("on_stats_exchange", config.exchange, len(locals_list))
    if config.exchange == "attribute":
        return _exchange_attribute(ctx, schema, locals_list, counts_list, config)
    if config.exchange == "distributed":
        return _exchange_distributed(ctx, schema, locals_list, counts_list, config)
    if config.exchange == "voting":
        return _exchange_voting(ctx, schema, locals_list, counts_list, config)
    return _exchange_allreduce(ctx, schema, locals_list, counts_list, config)


def exchange_node_stats(
    ctx: RankContext,
    schema: Schema,
    local: NodeStats,
    total_counts: np.ndarray,
    config: PCloudsConfig,
) -> tuple[Split | None, list[AliveInterval]]:
    """:func:`exchange_level_stats` over a batch of one node."""
    return exchange_level_stats(ctx, schema, [local], [total_counts], config)[0]


def _exchange_attribute(
    ctx: RankContext,
    schema: Schema,
    locals_list: list[NodeStats],
    counts_list: list[np.ndarray],
    config: PCloudsConfig,
    attrs_list: list[Sequence[Attribute]] | None = None,
) -> list[tuple[Split | None, list[AliveInterval]]]:
    """``attrs_list`` restricts each node's exchange to its own elected
    candidate subset (the voting path); ``None`` exchanges the full
    schema for every node — the exact attribute-based method."""
    comm = ctx.comm
    size, rank = comm.size, comm.rank
    c = schema.n_classes
    k = len(locals_list)
    if attrs_list is None:
        attrs_list = [list(schema.attributes)] * k

    # one alltoall ships every node's local vectors, keyed (node, attr)
    parts: list[dict[tuple[int, str], object]] = [dict() for _ in range(size)]
    for j, local in enumerate(locals_list):
        for i, a in enumerate(attrs_list[j]):
            dest = attribute_owner(i, size)
            if a.is_numeric:
                ns = local.numeric[a.name]
                parts[dest][(j, a.name)] = (ns.hist, ns.vmin, ns.vmax)
            else:
                parts[dest][(j, a.name)] = local.categorical[a.name]
    if ctx.observers:
        ctx.notify(
            "on_exchange_payload",
            config.exchange,
            sum(payload_nbytes(parts[d]) for d in range(size) if d != rank),
        )
    incoming = comm.alltoall(parts)

    # owner: combine and sweep per (node, owned attribute); exact gini
    # ties go to the smaller order key, as in the sequential sweep
    global_num: list[dict[str, NumericStats]] = [dict() for _ in range(k)]
    best_local: list[Split | None] = [None] * k
    for j in range(k):
        local = locals_list[j]
        for name in _owned_attributes(attrs_list[j], rank, size):
            attr = schema.attribute(name)
            if attr.is_numeric:
                combined = incoming[0][(j, name)][0].copy()
                vmin = incoming[0][(j, name)][1].copy()
                vmax = incoming[0][(j, name)][2].copy()
                for piece in incoming[1:]:
                    combined += piece[(j, name)][0]
                    np.minimum(vmin, piece[(j, name)][1], out=vmin)
                    np.maximum(vmax, piece[(j, name)][2], out=vmax)
                ctx.charge_compute(ops=combined.size * size)
                bounds = local.numeric[name].boundaries
                global_num[j][name] = NumericStats(
                    boundaries=bounds, hist=combined, vmin=vmin, vmax=vmax
                )
                ctx.charge_compute(ops=3 * combined.size)
                cand = _best_boundary_split_of(
                    name, bounds, combined, counts_list[j]
                )
            else:
                combined = incoming[0][(j, name)].copy()
                for piece in incoming[1:]:
                    combined += piece[(j, name)]
                ctx.charge_compute(ops=combined.size * size)
                res = best_categorical_split(
                    combined, config.clouds.enumerate_limit
                )
                ctx.charge_compute(ops=combined.size * attr.cardinality)
                cand = (
                    Split(
                        attribute=name,
                        kind=CATEGORICAL_SPLIT,
                        gini=res[0],
                        left_codes=res[1],
                    )
                    if res is not None
                    else None
                )
            best_local[j] = better(best_local[j], cand)

    # one batched min-election over all k nodes
    elected = comm.allreduce_minloc_many(
        [s.gini if s is not None else float("inf") for s in best_local],
        best_local,
        tiebreaks=[
            s.order_key() if s is not None else None for s in best_local
        ],
    )
    splits = [e[1] for e in elected]
    if config.clouds.method != "sse":
        return [(s, []) for s in splits]

    # owners determine alive intervals for every node whose split exists;
    # one allgather replicates all statuses, tagged by node index
    active = [j for j in range(k) if splits[j] is not None]
    if not active:
        return [(s, []) for s in splits]
    my_alive: list[tuple[int, tuple]] = []
    for j in active:
        gini_min = elected[j][0]
        for name, ns in global_num[j].items():
            stats_one = NodeStats(
                total=np.asarray(counts_list[j], dtype=np.int64),
                numeric={name: ns},
            )
            one_schema = Schema(
                attributes=(schema.attribute(name),), n_classes=c
            )
            found = determine_alive_intervals(stats_one, one_schema, gini_min)
            ctx.charge_compute(ops=ns.hist.shape[0] * c * (2 ** min(c, 16)))
            my_alive.extend((j, enc) for enc in _encode_alive(found))
    gathered = ctx.comm.allgather(my_alive)
    alive_by_node: list[list[AliveInterval]] = [[] for _ in range(k)]
    for chunk in gathered:
        for j, enc in chunk:
            alive_by_node[j].extend(_decode_alive([enc]))
    for lst in alive_by_node:
        lst.sort(key=lambda iv: (iv.attribute, iv.index))
    return [(splits[j], alive_by_node[j]) for j in range(k)]


# -- top-k voting method (PV-Tree-style approximation) --------------------


def _nominate(
    ctx: RankContext,
    schema: Schema,
    local: NodeStats,
    config: PCloudsConfig,
) -> np.ndarray:
    """Rank-local scoring pass: sweep this rank's *own* statistics of
    every attribute and build its ballot — a ``(k, 2)`` float64 array of
    ``[attribute index, local best gini]`` rows, the k smallest local
    ginis first (ties by attribute index). Attributes with no valid
    local split score ``inf`` but may still pad the ballot, so every
    rank's ballot has the same deterministic wire size."""
    scores: list[tuple[float, int]] = []
    for i, a in enumerate(schema.attributes):
        if a.is_numeric:
            ns = local.numeric[a.name]
            cand = _best_block_boundary_split(
                a.name,
                ns.boundaries,
                0,
                np.cumsum(ns.hist, axis=0)[:-1],
                ns.hist.sum(axis=0),
            )
            ctx.charge_compute(ops=3 * ns.hist.size)
            gini = float("inf") if cand is None else cand.gini
        else:
            matrix = local.categorical[a.name]
            res = best_categorical_split(matrix, config.clouds.enumerate_limit)
            ctx.charge_compute(ops=matrix.size * a.cardinality)
            gini = float("inf") if res is None else float(res[0])
        scores.append((gini, i))
    scores.sort()
    k = min(config.vote_top_k, len(scores))
    return np.array(
        [[float(i), g] for g, i in scores[:k]], dtype=np.float64
    ).reshape(k, 2)


def _elect_candidates(
    ballots: Sequence[np.ndarray], n_attrs: int, top_k: int
) -> list[int]:
    """Deterministic merge election over the gathered ballots (the
    PV-Tree majority vote): candidates rank by (vote count descending,
    best nominated gini ascending, attribute index ascending) and the
    top ``min(2k, f)`` win. Every rank elects from the identical
    gathered ballots, so the winner set is replicated by construction —
    no further collective is needed. Returns winning attribute indices
    in schema order."""
    votes: dict[int, int] = {}
    best: dict[int, float] = {}
    for ballot in ballots:
        for row in ballot:
            a = int(row[0])
            g = float(row[1])
            votes[a] = votes.get(a, 0) + 1
            if g < best.get(a, float("inf")):
                best[a] = g
    n_win = min(2 * top_k, n_attrs)
    ranked = sorted(
        votes, key=lambda a: (-votes[a], best.get(a, float("inf")), a)
    )
    return sorted(ranked[:n_win])


def _exchange_voting(
    ctx: RankContext,
    schema: Schema,
    locals_list: list[NodeStats],
    counts_list: list[np.ndarray],
    config: PCloudsConfig,
) -> list[tuple[Split | None, list[AliveInterval]]]:
    """Batched voting: all of the batch's ballots travel in **one** vote
    collective, each node's candidates are elected independently, and one
    restricted attribute exchange follows — the collective count stays
    constant in the batch size."""
    comm = ctx.comm
    my_ballots = [
        _nominate(ctx, schema, local, config) for local in locals_list
    ]
    if ctx.observers:
        ctx.notify(
            "on_exchange_payload",
            config.exchange,
            payload_nbytes(my_ballots) * (comm.size - 1),
        )
    gathered = comm.vote(my_ballots)
    attrs_list: list[Sequence[Attribute]] = []
    names_list: list[tuple[str, ...]] = []
    for j in range(len(locals_list)):
        elected = _elect_candidates(
            [rank_ballots[j] for rank_ballots in gathered],
            len(schema.attributes),
            config.vote_top_k,
        )
        attrs = [schema.attributes[i] for i in elected]
        attrs_list.append(attrs)
        names_list.append(tuple(a.name for a in attrs))
    if ctx.observers:
        ctx.notify("on_vote_election", tuple(names_list))
    return _exchange_attribute(
        ctx, schema, locals_list, counts_list, config, attrs_list=attrs_list
    )


# -- distributed method (interval-granular RAW ownership) -----------------


def _interval_block(q: int, size: int, rank: int) -> tuple[int, int]:
    """Contiguous block of interval indices owned by ``rank`` (contiguity
    is what lets one prefix sum recover the cumulative counts)."""
    return rank * q // size, (rank + 1) * q // size


def _exchange_distributed(
    ctx: RankContext,
    schema: Schema,
    locals_list: list[NodeStats],
    counts_list: list[np.ndarray],
    config: PCloudsConfig,
) -> list[tuple[Split | None, list[AliveInterval]]]:
    comm = ctx.comm
    size, rank = comm.size, comm.rank
    c = schema.n_classes
    k = len(locals_list)
    num_names = [a.name for a in schema.numeric]

    # one alltoall routes every node's interval rows to the block owners
    parts: list[dict] = [{"num": {}, "cat": {}} for _ in range(size)]
    for j, local in enumerate(locals_list):
        for ai, a in enumerate(schema.attributes):
            if a.is_numeric:
                ns = local.numeric[a.name]
                q = ns.n_intervals
                for d in range(size):
                    lo, hi = _interval_block(q, size, d)
                    if lo < hi:
                        parts[d]["num"][(j, a.name)] = (
                            lo, ns.hist[lo:hi], ns.vmin[lo:hi], ns.vmax[lo:hi]
                        )
            else:
                parts[attribute_owner(ai, size)]["cat"][(j, a.name)] = (
                    local.categorical[a.name]
                )
    if ctx.observers:
        ctx.notify(
            "on_exchange_payload",
            config.exchange,
            sum(payload_nbytes(parts[d]) for d in range(size) if d != rank),
        )
    incoming = comm.alltoall(parts)

    # combine this rank's interval block per (node, attribute)
    blocks: dict[tuple[int, str], tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}
    for j in range(k):
        for name in num_names:
            key = (j, name)
            pieces = [src["num"][key] for src in incoming if key in src["num"]]
            if not pieces:
                continue
            lo = pieces[0][0]
            hist = pieces[0][1].copy()
            vmin = pieces[0][2].copy()
            vmax = pieces[0][3].copy()
            for piece in pieces[1:]:
                hist += piece[1]
                np.minimum(vmin, piece[2], out=vmin)
                np.maximum(vmax, piece[3], out=vmax)
            blocks[key] = (lo, hist, vmin, vmax)
            ctx.charge_compute(ops=hist.size * size)

    # one prefix sum over all nodes' stacked per-attribute block totals
    keys = [(j, n) for j in range(k) for n in num_names]
    totals = np.stack(
        [
            blocks[key][1].sum(axis=0) if key in blocks else np.zeros(c, np.int64)
            for key in keys
        ]
    ) if keys else np.zeros((0, c), dtype=np.int64)
    inclusive = comm.scan(totals)
    base = {key: inclusive[i] - totals[i] for i, key in enumerate(keys)}

    # per-node boundary sweeps and categorical candidates
    best_local: list[Split | None] = [None] * k
    for (j, name), (lo, hist, vmin, vmax) in blocks.items():
        bounds = locals_list[j].numeric[name].boundaries
        cum = base[(j, name)][None, :] + np.cumsum(hist, axis=0)
        ctx.charge_compute(ops=3 * hist.size)
        cand = _best_block_boundary_split(name, bounds, lo, cum, counts_list[j])
        best_local[j] = better(best_local[j], cand)
    for j in range(k):
        for name in (a.name for a in schema.categorical):
            key = (j, name)
            matrix_pieces = [
                src["cat"][key] for src in incoming if key in src["cat"]
            ]
            if not matrix_pieces:
                continue
            combined = matrix_pieces[0].copy()
            for piece in matrix_pieces[1:]:
                combined += piece
            ctx.charge_compute(ops=combined.size * size)
            res = best_categorical_split(combined, config.clouds.enumerate_limit)
            if res is not None:
                cand = Split(
                    attribute=name, kind=CATEGORICAL_SPLIT, gini=res[0],
                    left_codes=res[1],
                )
                best_local[j] = better(best_local[j], cand)

    # one batched min-election over all k nodes
    elected = comm.allreduce_minloc_many(
        [s.gini if s is not None else float("inf") for s in best_local],
        best_local,
        tiebreaks=[
            s.order_key() if s is not None else None for s in best_local
        ],
    )
    splits = [e[1] for e in elected]
    if config.clouds.method != "sse":
        return [(s, []) for s in splits]

    # alive determination directly at the interval owners, one allgather
    from repro.clouds.gini import gini_lower_bound

    active = [j for j in range(k) if splits[j] is not None]
    if not active:
        return [(s, []) for s in splits]
    my_alive: list[tuple[int, tuple]] = []
    for j in active:
        gini_min = elected[j][0]
        total = np.asarray(counts_list[j], dtype=np.float64)
        for (jj, name), (lo, hist, vmin, vmax) in blocks.items():
            if jj != j:
                continue
            bounds = locals_list[j].numeric[name].boundaries
            cum = base[(j, name)][None, :] + np.cumsum(hist, axis=0)
            left = cum - hist
            ctx.charge_compute(ops=hist.shape[0] * c * (2 ** min(c, 16)))
            for i in range(hist.shape[0]):
                count = int(hist[i].sum())
                if count < 2 or not vmin[i] < vmax[i]:
                    continue
                est = gini_lower_bound(
                    left[i].astype(np.float64),
                    hist[i].astype(np.float64),
                    total,
                )
                if est < gini_min:
                    idx = lo + i
                    my_alive.append(
                        (
                            j,
                            (
                                name,
                                idx,
                                float(bounds[idx - 1]) if idx > 0 else -np.inf,
                                float(bounds[idx]) if idx < len(bounds) else np.inf,
                                left[i].astype(np.float64),
                                count,
                                float(est),
                            ),
                        )
                    )
    gathered = comm.allgather(my_alive)
    alive_by_node: list[list[AliveInterval]] = [[] for _ in range(k)]
    for chunk in gathered:
        for j, enc in chunk:
            alive_by_node[j].extend(_decode_alive([enc]))
    for lst in alive_by_node:
        lst.sort(key=lambda iv: (iv.attribute, iv.index))
    return [(splits[j], alive_by_node[j]) for j in range(k)]


# -- naive full replication (ablation) ------------------------------------


def _merge_stat_dicts(a: dict, b: dict) -> dict:
    """Elementwise combine: histograms/count matrices add; the numeric
    (hist, vmin, vmax) triples add/min/max."""
    out = {}
    for k in a:
        if isinstance(a[k], tuple):
            out[k] = (
                a[k][0] + b[k][0],
                np.minimum(a[k][1], b[k][1]),
                np.maximum(a[k][2], b[k][2]),
            )
        else:
            out[k] = a[k] + b[k]
    return out


def _exchange_allreduce(
    ctx: RankContext,
    schema: Schema,
    locals_list: list[NodeStats],
    counts_list: list[np.ndarray],
    config: PCloudsConfig,
) -> list[tuple[Split | None, list[AliveInterval]]]:
    from repro.clouds.ss import find_split_ss

    k = len(locals_list)
    payload: dict[tuple[int, str], object] = {}
    for j, local in enumerate(locals_list):
        for a in schema.attributes:
            if a.is_numeric:
                ns = local.numeric[a.name]
                payload[(j, a.name)] = (ns.hist, ns.vmin, ns.vmax)
            else:
                payload[(j, a.name)] = local.categorical[a.name]
    if ctx.observers:
        ctx.notify("on_exchange_payload", config.exchange, payload_nbytes(payload))
    combined = ctx.comm.allreduce(payload, op=_merge_stat_dicts)
    ctx.charge_compute(
        ops=sum(
            (v[0].size if isinstance(v, tuple) else v.size)
            for v in combined.values()
        )
        * np.log2(max(ctx.comm.size, 2))
    )
    out: list[tuple[Split | None, list[AliveInterval]]] = []
    for j in range(k):
        stats = NodeStats(total=np.asarray(counts_list[j], dtype=np.int64))
        for a in schema.attributes:
            if a.is_numeric:
                hist, vmin, vmax = combined[(j, a.name)]
                stats.numeric[a.name] = NumericStats(
                    boundaries=locals_list[j].numeric[a.name].boundaries,
                    hist=hist,
                    vmin=vmin,
                    vmax=vmax,
                )
            else:
                stats.categorical[a.name] = combined[(j, a.name)]
        split = find_split_ss(stats, schema, config.clouds.enumerate_limit)
        q_total = sum(ns.n_intervals for ns in stats.numeric.values())
        ctx.charge_compute(ops=3 * q_total * schema.n_classes)
        if split is None or config.clouds.method != "sse":
            out.append((split, []))
            continue
        alive = determine_alive_intervals(stats, schema, split.gini)
        ctx.charge_compute(
            ops=q_total * schema.n_classes * (2 ** min(schema.n_classes, 16))
        )
        alive.sort(key=lambda iv: (iv.attribute, iv.index))
        out.append((split, alive))
    return out


# -- alive-interval wire format ---------------------------------------------


def _encode_alive(alive: list[AliveInterval]) -> list[tuple]:
    return [
        (iv.attribute, iv.index, iv.lo, iv.hi, iv.left_cum, iv.count, iv.gini_est)
        for iv in alive
    ]


def _decode_alive(chunk: list[tuple]) -> list[AliveInterval]:
    return [
        AliveInterval(
            attribute=t[0],
            index=t[1],
            lo=t[2],
            hi=t[3],
            left_cum=t[4],
            count=t[5],
            gini_est=t[6],
        )
        for t in chunk
    ]
