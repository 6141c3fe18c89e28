"""Configuration of the parallel classifier."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clouds.builder import CloudsConfig

#: the statistics-exchange strategies :mod:`repro.core.stats_exchange`
#: implements, in documentation order. The first three are *exact* (they
#: produce the identical classifier); ``"voting"`` is the PV-Tree-style
#: approximation that only exchanges the elected top attributes.
EXCHANGE_STRATEGIES = ("attribute", "distributed", "allreduce", "voting")


@dataclass(frozen=True)
class PCloudsConfig:
    """pCLOUDS knobs (Section 5 / Section 6 of the paper).

    ``clouds`` — the underlying sequential-method parameters (q_root,
    sample size, stopping criteria; the paper used q_root = 10,000 at the
    root for 3.6–7.2M records — scale it with your data).

    ``q_switch`` — the mixed-parallelism threshold: a node whose interval
    count q(node) drops to this value or below becomes a *small node* and
    is deferred to the delayed task-parallelism phase ("we used a value of
    ten (in terms of the number of intervals) for the threshold"). Pass
    the string ``"auto"`` to derive the threshold from the machine's cost
    models (:mod:`repro.core.switching` — the analytic criterion the paper
    leaves as an open question).

    ``exchange`` — how interval statistics become global:
    ``"attribute"`` is the paper's replication method with the
    attribute-based approach (each attribute's global vectors are reduced
    to one owner processor); ``"distributed"`` is the paper's alternative
    distributed method (interval-granular RAW ownership plus a parallel
    prefix sum, which the paper discussed but did not implement);
    ``"allreduce"`` is the naive variant that replicates *all* global
    vectors on every processor. Those three produce the identical
    classifier; the ablation benchmark measures their costs.
    ``"voting"`` is the PV-Tree-style top-k voting strategy (Meng & Ke
    et al. 2016): each rank nominates its ``vote_top_k`` locally best
    attributes, a global vote elects at most ``2·vote_top_k``
    candidates, and only the elected attributes' statistics are
    exchanged — shrinking the per-level stats payload from
    O(attributes) to O(k). Voting is an **approximation**: the elected
    set can miss the true global-best attribute, so it is opt-in. With
    ``vote_top_k >= n_attributes`` every attribute would be elected, so
    no vote is held: the exchange *is* ``"attribute"``, with the same
    tree, simulated time and traffic. The three owner-side strategies
    (attribute, voting, distributed) share one code path and differ
    only in who owns which statistics.

    ``vote_top_k`` — nominations per rank for ``exchange="voting"``
    (ignored by the exact strategies; at or above the attribute count,
    voting runs the attribute method).

    ``frontier_batching`` — accepts only ``"level"``, the one driver:
    each breadth-first frontier level's large nodes run in consecutive
    batches sized to the rank's buffer pool, and every batch fuses its
    nodes' collectives into one stats alltoall, one k-way split election,
    one alive allgather, one member-routing alltoall, one interior
    election and one stacked left-count allreduce (the
    communication-batching idea of Meng et al. 2016). A node the pool
    cannot share is a batch of one — the paper's per-node cycle — and
    without a pool a whole level is one batch. The tree does not depend
    on the batching.
    """

    clouds: CloudsConfig = field(default_factory=CloudsConfig)
    q_switch: int | str = 10
    exchange: str = "attribute"
    frontier_batching: str = "level"
    vote_top_k: int = 8

    def __post_init__(self) -> None:
        if isinstance(self.q_switch, str):
            if self.q_switch != "auto":
                raise ValueError(
                    f"q_switch must be an int or 'auto', got {self.q_switch!r}"
                )
        elif self.q_switch < 1:
            raise ValueError("q_switch must be at least 1")
        if self.exchange not in EXCHANGE_STRATEGIES:
            options = ", ".join(repr(s) for s in EXCHANGE_STRATEGIES)
            raise ValueError(
                f"exchange must be one of {options}, got {self.exchange!r}"
            )
        if self.vote_top_k < 1:
            raise ValueError(
                f"vote_top_k must be at least 1, got {self.vote_top_k!r}"
            )
        if self.frontier_batching != "level":
            raise ValueError(
                "frontier_batching accepts only 'level', got "
                f"{self.frontier_batching!r}"
            )
