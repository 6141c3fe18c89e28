"""Evaluation of interval boundaries for numeric attributes, in parallel
(Section 5.1.1).

Three strategies share one **owner-side exchange**. Each rank ships the
statistics it holds to their owners in one alltoall; each owner combines
what it owns, sweeps the boundaries and scores its categorical
attributes; one min-reduction elects every node's split. With SSE each
owner then determines the alive intervals of what it owns, and one
allgather replicates them. The strategies differ only in who owns what:

* **attribute** — the paper's replication method with the
  attribute-based approach: attribute ``i`` of the schema goes whole to
  :func:`attribute_owner` ``(i, p)``.
* **voting** — the PV-Tree communication shrink (Meng & Ke et al. 2016):
  every processor sweeps its *own* statistics and nominates its top-k
  attributes by local best gini in one small ballot collective
  (:meth:`~repro.cluster.comm.Comm.vote`). A deterministic merge
  election, replicated on every rank from the identical gathered
  ballots, picks at most 2k candidates per node, and the attribute
  method runs over them: the i-th elected attribute goes to
  ``attribute_owner(i, p)``. That cuts the dominant O(q·c·f) payload to
  O(q·c·k). Voting is an **approximation**: a globally best attribute
  that no rank nominated cannot win. With ``vote_top_k >= f`` every
  rank would nominate every attribute and all would be elected, so no
  vote is held — the exchange *is* the attribute method, with the same
  tree, time and traffic.
* **distributed** — the paper's other alternative: every numeric
  attribute is cut into one contiguous block of intervals per rank
  (:func:`_interval_block`; the random-access-write pattern of Bae's
  runtime the paper cites), so the per-owner storage is O(q·c·f/p) even
  when f < p. The class counts left of a block are no longer local; one
  parallel prefix sum (Table 1's primitive) over the owners' block
  totals recovers them. Categorical attributes go whole to their
  attribute owners. The paper chose replication for its simplicity and
  lower communication; this implementation makes that trade-off
  measurable.

The naive variant (``exchange="allreduce"``) has no owners: it
replicates *all* global vectors on every processor via one global
combine and runs sequential CLOUDS on them — simpler, but it moves
O(q·c·f) bytes through the reduction instead of O(q·c·f/p) per
processor and repeats the sweep p times; the ablation bench quantifies
the gap.

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


def _interval_block(q: int, size: int, rank: int) -> tuple[int, int]:
    """Contiguous block of interval indices owned by ``rank`` under the
    distributed method (contiguity is what lets one prefix sum recover
    the cumulative counts)."""
    return rank * q // size, (rank + 1) * q // size


def _best_block_boundary_split(
    name: str,
    bounds: np.ndarray,
    lo: int,
    cum: np.ndarray,
    total_counts: np.ndarray,
) -> Split | None:
    """The boundary sweep: gini over one block of cumulative counts,
    where row ``i`` closes boundary ``lo + i`` (the attribute's last
    interval closes none). Owners sweep what they own with it, and the
    voting path scores each rank's local statistics with it. Ties
    resolve to the smallest row index, i.e. the smallest threshold —
    exactly what a sequential scan with the split order-key tiebreak
    picks, since the boundaries are sorted ascending."""
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


def _candidate(
    ctx: RankContext,
    schema: Schema,
    stats: NodeStats,
    name: str,
    total_counts: np.ndarray,
    config: PCloudsConfig,
) -> Split | None:
    """An owner's best split on one attribute it holds: the boundary
    sweep of a numeric block, or the subset search of a categorical
    count matrix. Exact gini ties go to the smaller order key, as in the
    sequential sweep."""
    if name in stats.numeric:
        ns = stats.numeric[name]
        ctx.charge_compute(ops=3 * ns.hist.size)
        return _best_block_boundary_split(
            name, ns.boundaries, ns.lo, ns.left_of_interval() + ns.hist,
            total_counts,
        )
    matrix = stats.categorical[name]
    res = best_categorical_split(matrix, config.clouds.enumerate_limit)
    ctx.charge_compute(ops=matrix.size * schema.attribute(name).cardinality)
    if res is None:
        return None
    return Split(
        attribute=name, kind=CATEGORICAL_SPLIT, gini=res[0], left_codes=res[1]
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
    if config.exchange == "allreduce":
        return _exchange_allreduce(ctx, schema, locals_list, counts_list, config)
    attrs_list: list[Sequence[Attribute]] = [schema.attributes] * len(locals_list)
    # with k >= f every rank would nominate every attribute and all would
    # be elected: no vote, the attribute method
    if config.exchange == "voting" and config.vote_top_k < len(schema.attributes):
        attrs_list = _vote(ctx, schema, locals_list, config)
    return _exchange_owned(
        ctx, schema, locals_list, counts_list, config, attrs_list
    )


def exchange_node_stats(
    ctx: RankContext,
    schema: Schema,
    local: NodeStats,
    total_counts: np.ndarray,
    config: PCloudsConfig,
) -> tuple[Split | None, list[AliveInterval]]:
    """:func:`exchange_level_stats` over a batch of one node."""
    return exchange_level_stats(ctx, schema, [local], [total_counts], config)[0]


def _exchange_owned(
    ctx: RankContext,
    schema: Schema,
    locals_list: list[NodeStats],
    counts_list: list[np.ndarray],
    config: PCloudsConfig,
    attrs_list: list[Sequence[Attribute]],
) -> list[tuple[Split | None, list[AliveInterval]]]:
    """The owner-side exchange over each node's attribute list. The i-th
    attribute of a node's list goes whole to ``attribute_owner(i, p)``,
    except that the distributed method cuts every numeric attribute into
    one interval block per rank."""
    comm = ctx.comm
    size, rank = comm.size, comm.rank
    c = schema.n_classes
    k = len(locals_list)
    by_interval = config.exchange == "distributed"

    # one alltoall ships every owner its share, keyed (node, attribute):
    # a numeric block as (hist, vmin, vmax) rows, a categorical
    # attribute as its count matrix
    parts: list[dict[tuple[int, str], object]] = [dict() for _ in range(size)]
    for j, local in enumerate(locals_list):
        for i, a in enumerate(attrs_list[j]):
            if not a.is_numeric:
                parts[attribute_owner(i, size)][(j, a.name)] = (
                    local.categorical[a.name]
                )
                continue
            ns = local.numeric[a.name]
            q = ns.n_intervals
            shares = (
                [(d, *_interval_block(q, size, d)) for d in range(size)]
                if by_interval else [(attribute_owner(i, size), 0, q)]
            )
            for d, lo, hi in shares:
                if lo < hi:
                    parts[d][(j, a.name)] = (
                        ns.hist[lo:hi], ns.vmin[lo:hi], ns.vmax[lo:hi]
                    )
    sent0 = ctx.stats.bytes_sent
    incoming = comm.alltoall(parts)
    if ctx.observers:
        # the bytes the alltoall charged for the parts this rank sent
        # (sizing them again would walk the payload a second time)
        ctx.notify(
            "on_exchange_payload", config.exchange, ctx.stats.bytes_sent - sent0
        )

    # owners combine their shares (boundaries are replicated, so every
    # source addressed this rank the same keys) and sweep each one as
    # soon as its left counts are known: at once for a whole attribute,
    # after the prefix sum for an interval block
    owned = [
        NodeStats(total=np.asarray(counts, dtype=np.int64))
        for counts in counts_list
    ]
    best_local: list[Split | None] = [None] * k
    blocks: list[tuple[int, str]] = []
    for j, name in incoming[0]:
        pieces = [src[(j, name)] for src in incoming]
        if isinstance(pieces[0], tuple):
            hist, vmin, vmax = (x.copy() for x in pieces[0])
            for h, mn, mx in pieces[1:]:
                hist += h
                np.minimum(vmin, mn, out=vmin)
                np.maximum(vmax, mx, out=vmax)
            ns = locals_list[j].numeric[name]
            owned[j].numeric[name] = NumericStats(
                boundaries=ns.boundaries,
                hist=hist,
                vmin=vmin,
                vmax=vmax,
                lo=_interval_block(ns.n_intervals, size, rank)[0]
                if by_interval else 0,
            )
            ctx.charge_compute(ops=hist.size * size)
            if by_interval:
                blocks.append((j, name))
                continue
        else:
            matrix = pieces[0].copy()
            for piece in pieces[1:]:
                matrix += piece
            owned[j].categorical[name] = matrix
            ctx.charge_compute(ops=matrix.size * size)
        best_local[j] = better(
            best_local[j],
            _candidate(ctx, schema, owned[j], name, counts_list[j], config),
        )
    if by_interval:
        # one prefix sum over all nodes' stacked block totals gives each
        # block the class counts to its left
        num_keys = [(j, a.name) for j in range(k) for a in schema.numeric]
        totals = np.stack([
            owned[j].numeric[n].hist.sum(axis=0)
            if n in owned[j].numeric else np.zeros(c, np.int64)
            for j, n in num_keys
        ]) if num_keys else np.zeros((0, c), dtype=np.int64)
        inclusive = comm.scan(totals)
        for row, (j, n) in enumerate(num_keys):
            if n in owned[j].numeric:
                owned[j].numeric[n].base = inclusive[row] - totals[row]
        for j, name in blocks:
            best_local[j] = better(
                best_local[j],
                _candidate(ctx, schema, owned[j], name, counts_list[j], config),
            )

    # one batched min-election over all k nodes
    elected = comm.allreduce_minloc_many(
        [s.gini if s is not None else float("inf") for s in best_local],
        best_local,
        tiebreaks=[
            s.order_key() if s is not None else None for s in best_local
        ],
    )
    splits = [e[1] for e in elected]
    active = [j for j in range(k) if splits[j] is not None]
    if config.clouds.method != "sse" or not active:
        return [(s, []) for s in splits]

    # owners determine the alive intervals of what they hold for every
    # node whose split exists; one allgather replicates all statuses,
    # tagged by node index
    my_alive: list[tuple[int, tuple]] = []
    for j in active:
        found = determine_alive_intervals(owned[j], schema, elected[j][0])
        for ns in owned[j].numeric.values():
            ctx.charge_compute(ops=ns.n_intervals * c * (2 ** min(c, 16)))
        # on the wire as plain tuples, in AliveInterval's field order
        my_alive.extend(
            (j, (iv.attribute, iv.index, iv.lo, iv.hi, iv.left_cum, iv.count,
                 iv.gini_est))
            for iv in found
        )
    alive_by_node: list[list[AliveInterval]] = [[] for _ in range(k)]
    for chunk in comm.allgather(my_alive):
        for j, fields in chunk:
            alive_by_node[j].append(AliveInterval(*fields))
    for lst in alive_by_node:
        lst.sort(key=lambda iv: (iv.attribute, iv.index))
    return [(splits[j], alive_by_node[j]) for j in range(k)]


# -- top-k voting (PV-Tree-style approximation) -----------------------------


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


def _vote(
    ctx: RankContext,
    schema: Schema,
    locals_list: list[NodeStats],
    config: PCloudsConfig,
) -> list[list[Attribute]]:
    """Each node's elected attributes, in schema order: all of the
    batch's ballots travel in **one** vote collective and each node's
    candidates are elected independently, so the collective count stays
    constant in the batch size."""
    my_ballots = [
        _nominate(ctx, schema, local, config) for local in locals_list
    ]
    if ctx.observers:
        ctx.notify(
            "on_exchange_payload",
            config.exchange,
            payload_nbytes(my_ballots) * (ctx.comm.size - 1),
        )
    gathered = ctx.comm.vote(my_ballots)
    attrs_list = [
        [
            schema.attributes[i]
            for i in _elect_candidates(
                [rank_ballots[j] for rank_ballots in gathered],
                len(schema.attributes),
                config.vote_top_k,
            )
        ]
        for j in range(len(locals_list))
    ]
    if ctx.observers:
        ctx.notify(
            "on_vote_election",
            tuple(tuple(a.name for a in attrs) for attrs in attrs_list),
        )
    return attrs_list


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
