"""Runtime algorithm selection (paper sections 4.1 and 7).

"There is no universally optimal solution suited to every occasion ...
most state-of-the-art solutions include a variety of algorithms which
are dynamically chosen from at runtime based on the arguments of a
specific call."  The paper's initial library ships only the binomial
tree; this module supplies the selection layer its future work calls
for, choosing between the implemented algorithms by message size, PE
count and topology.

The default thresholds come from this reproduction's own 8-node
algorithm ablation (A1 in EXPERIMENTS.md; the ``vec`` sweep record,
``BENCH_vec.json``, now scores them at 64–4096 PEs), and they differ
from the classic MPI folklore in an instructive way: with *one-sided,
user-space* puts the root's per-message overhead is tiny, so a
pipelined linear broadcast beats the barrier-synchronised binomial tree
for small payloads; the tree takes over once the payload is large enough that the
root's injection link serialises the linear scheme; and the chunked
pipelined ring wins the bandwidth-bound regime.  (Under the two-sided
MPI transport the small-message crossover moves toward the tree, which
is the regime the MPI literature describes.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CollectiveArgumentError

__all__ = ["SelectionPolicy", "DEFAULT_POLICY", "select_algorithm"]


@dataclass(frozen=True)
class SelectionPolicy:
    """Thresholds for dynamic algorithm choice (bytes / PE counts)."""

    #: Below this payload the pipelined linear scheme wins on a
    #: one-sided transport (the root's sends are fire-and-forget).
    linear_max_bytes: int = 4 * 1024
    #: Linear also wins outright at trivial PE counts.
    linear_max_pes: int = 2
    #: Beyond this PE count the root's O(N) sends always lose.
    linear_pe_limit: int = 32
    #: Above this payload the chunked pipelined ring wins the broadcast
    #: (it keeps every link busy with a different chunk).
    ring_min_bytes: int = 128 * 1024
    ring_min_pes: int = 4
    #: Allreduce: below this payload the latency term dominates and
    #: recursive doubling's ⌈log₂N⌉ stages win; above it the
    #: bandwidth-optimal reduce-scatter schemes (Rabenseifner at
    #: power-of-two PE counts, the ring elsewhere — the ring pays no
    #: fold penalty for the ranks past the largest power of two) take
    #: over.
    allreduce_large_bytes: int = 32 * 1024
    #: Allreduce off power-of-two: inside this PE band the doubly
    #: pipelined dual-root trees beat the ring — the ring's 2·(N-1)
    #: rounds grow linearly while the pipeline's 2·depth+S-1 grow
    #: logarithmically (measured crossover in ``BENCH_pipeline.json``:
    #: ring still wins below ~32 PEs where its round count is small and
    #: it moves the least data per rank).
    allreduce_pipelined_min_pes: int = 32
    #: … and above this PE count the Rabenseifner fold amortises even
    #: off power-of-two (two fold rounds against a deepening tree), so
    #: dual-pipelined yields back to it.
    allreduce_pipelined_max_pes: int = 64
    #: Allgather: the dissemination exchange beats the gather+broadcast
    #: composition once the tree is deep enough that the root hop and
    #: double traversal cost more than the rotated staging copies.
    allgather_dissemination_min_pes: int = 4
    #: Reduce-scatter: the parallel-aggregated-tree schedule (⌈log₂N⌉
    #: rounds) beats the ring (N-1 rounds) from this PE count on —
    #: below it the two move the same bytes over the same round count.
    reduce_scatter_pat_min_pes: int = 4


DEFAULT_POLICY = SelectionPolicy()

_SUPPORTED = {
    "broadcast": ("binomial", "linear", "ring"),
    "reduce": ("binomial", "linear"),
    "allreduce": ("doubling", "rabenseifner", "ring", "dual-pipelined"),
    "allgather": ("tree", "dissemination", "pat"),
    "reduce_scatter": ("ring", "pat"),
}


def select_algorithm(
    op: str,
    nbytes: int,
    n_pes: int,
    topology: str = "fully-connected",
    policy: SelectionPolicy = DEFAULT_POLICY,
) -> str:
    """Pick an algorithm for ``op`` moving ``nbytes`` across ``n_pes``."""
    if op not in _SUPPORTED:
        raise CollectiveArgumentError(
            f"no selection rule for collective {op!r}"
        )
    if nbytes < 0 or n_pes <= 0:
        raise CollectiveArgumentError("nbytes/n_pes must be non-negative")
    if op == "allreduce":
        if n_pes <= 2 or nbytes < policy.allreduce_large_bytes:
            return "doubling"
        if n_pes & (n_pes - 1):  # not a power of two: no cheap fold
            if n_pes < policy.allreduce_pipelined_min_pes:
                return "ring"
            if n_pes < policy.allreduce_pipelined_max_pes:
                return "dual-pipelined"
            return "rabenseifner"
        return "rabenseifner"
    if op == "allgather":
        if n_pes >= policy.allgather_dissemination_min_pes:
            return "pat"
        return "tree"
    if op == "reduce_scatter":
        if n_pes >= policy.reduce_scatter_pat_min_pes:
            return "pat"
        return "ring"
    if n_pes <= policy.linear_max_pes:
        return "linear"
    if (
        op == "broadcast"
        and n_pes >= policy.ring_min_pes
        and nbytes >= policy.ring_min_bytes
    ):
        return "ring"
    if nbytes <= policy.linear_max_bytes and n_pes <= policy.linear_pe_limit:
        return "linear"
    return "binomial"
