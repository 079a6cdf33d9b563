"""Tests for the dynamic algorithm-selection layer (section 4.1)."""

from __future__ import annotations

import pytest

from repro.collectives.tuning import (
    DEFAULT_POLICY,
    SelectionPolicy,
    select_algorithm,
)
from repro.errors import CollectiveArgumentError


class TestSelection:
    def test_tiny_pe_counts_use_linear(self):
        assert select_algorithm("broadcast", 10 ** 6, 2) == "linear"
        assert select_algorithm("reduce", 8, 1) == "linear"

    def test_small_messages_use_linear(self):
        """One-sided fire-and-forget puts favour the pipelined linear
        scheme for small payloads (this repo's measured crossover)."""
        assert select_algorithm("broadcast", 512, 8) == "linear"

    def test_medium_messages_use_binomial(self):
        assert select_algorithm("broadcast", 1 << 16, 8) == "binomial"
        assert select_algorithm("reduce", 1 << 20, 8) == "binomial"

    def test_huge_pe_count_never_linear(self):
        assert select_algorithm("broadcast", 64, 64) == "binomial"

    def test_huge_broadcasts_use_pipelined_ring(self):
        big = 2 << 20
        assert select_algorithm("broadcast", big, 8, "ring") == "ring"
        assert select_algorithm("broadcast", big, 8,
                                "fully-connected") == "ring"
        # ...but not with too few PEs to pipeline across.
        assert select_algorithm("broadcast", big, 3) == "binomial"

    def test_reduce_never_ring(self):
        assert select_algorithm("reduce", 2 << 20, 8, "ring") == "binomial"

    def test_huge_pe_count_medium_payload_binomial(self):
        assert select_algorithm("broadcast", 8 * 1024, 64) == "binomial"

    def test_custom_policy(self):
        policy = SelectionPolicy(linear_max_bytes=0, linear_max_pes=0)
        assert select_algorithm("broadcast", 8, 4, policy=policy) == "binomial"

    def test_unknown_collective(self):
        with pytest.raises(CollectiveArgumentError):
            select_algorithm("alltoallw", 8, 4)

    def test_invalid_sizes(self):
        with pytest.raises(CollectiveArgumentError):
            select_algorithm("broadcast", -1, 4)
        with pytest.raises(CollectiveArgumentError):
            select_algorithm("broadcast", 8, 0)

    def test_default_policy_is_consistent(self):
        assert DEFAULT_POLICY.linear_max_pes < DEFAULT_POLICY.linear_pe_limit

    def test_single_pe(self):
        """Degenerate 1-PE 'collectives' are local copies — linear,
        whatever the payload."""
        assert select_algorithm("broadcast", 0, 1) == "linear"
        assert select_algorithm("broadcast", 1 << 30, 1) == "linear"
        assert select_algorithm("reduce", 1 << 30, 1) == "linear"

    def test_zero_byte_payloads(self):
        """nbytes=0 is legal (empty collectives still synchronise)."""
        assert select_algorithm("broadcast", 0, 2) == "linear"
        assert select_algorithm("broadcast", 0, 8) == "linear"
        assert select_algorithm("reduce", 0, 8) == "linear"
        # The PE-count rules still dominate an empty payload.
        assert select_algorithm("broadcast", 0, 64) == "binomial"

    def test_linear_byte_threshold_boundary(self):
        """linear_max_bytes is inclusive: the crossover payload itself
        still picks linear; one byte more tips to binomial."""
        at = DEFAULT_POLICY.linear_max_bytes
        assert select_algorithm("broadcast", at, 8) == "linear"
        assert select_algorithm("broadcast", at + 1, 8) == "binomial"
        assert select_algorithm("reduce", at, 8) == "linear"
        assert select_algorithm("reduce", at + 1, 8) == "binomial"

    def test_linear_pe_boundaries(self):
        """linear_max_pes and linear_pe_limit are both inclusive."""
        at_pes = DEFAULT_POLICY.linear_max_pes
        big = 1 << 20
        assert select_algorithm("broadcast", big, at_pes) == "linear"
        assert select_algorithm("broadcast", big, at_pes + 1) == "binomial"
        limit = DEFAULT_POLICY.linear_pe_limit
        small = DEFAULT_POLICY.linear_max_bytes
        assert select_algorithm("broadcast", small, limit) == "linear"
        assert select_algorithm("broadcast", small, limit + 1) == "binomial"

    def test_ring_boundaries(self):
        """ring_min_bytes / ring_min_pes are inclusive lower bounds."""
        at = DEFAULT_POLICY.ring_min_bytes
        pes = DEFAULT_POLICY.ring_min_pes
        assert select_algorithm("broadcast", at, pes) == "ring"
        assert select_algorithm("broadcast", at - 1, pes) == "binomial"
        assert select_algorithm("broadcast", at, pes - 1) == "binomial"


class TestAllreduceSelection:
    def test_small_payloads_use_doubling(self):
        at = DEFAULT_POLICY.allreduce_large_bytes
        assert select_algorithm("allreduce", at - 1, 8) == "doubling"
        assert select_algorithm("allreduce", 0, 13) == "doubling"

    def test_tiny_groups_use_doubling(self):
        assert select_algorithm("allreduce", 1 << 24, 2) == "doubling"
        assert select_algorithm("allreduce", 1 << 24, 1) == "doubling"

    def test_large_power_of_two_uses_rabenseifner(self):
        at = DEFAULT_POLICY.allreduce_large_bytes
        assert select_algorithm("allreduce", at, 8) == "rabenseifner"
        assert select_algorithm("allreduce", 1 << 24, 16) == "rabenseifner"

    def test_large_non_power_of_two_uses_ring(self):
        """The ring pays no power-of-two fold penalty (measured in
        ``bench_ablation_algorithms.py``)."""
        at = DEFAULT_POLICY.allreduce_large_bytes
        assert select_algorithm("allreduce", at, 6) == "ring"
        assert select_algorithm("allreduce", 1 << 24, 12) == "ring"

    def test_mid_band_non_pof2_uses_dual_pipelined(self):
        """Off power-of-two in the 32..63 PE band, the pipelined
        dual-root trees beat the ring's 2·(N-1) rounds (measured in
        ``BENCH_pipeline.json``)."""
        at = DEFAULT_POLICY.allreduce_large_bytes
        assert select_algorithm("allreduce", at, 33) == "dual-pipelined"
        assert select_algorithm("allreduce", 1 << 20, 48) == "dual-pipelined"

    def test_huge_non_pof2_returns_to_rabenseifner(self):
        """Past the band the Rabenseifner fold amortises even off
        power-of-two."""
        assert select_algorithm("allreduce", 1 << 20, 96) == "rabenseifner"
        assert select_algorithm("allreduce", 1 << 20, 100) == "rabenseifner"

    def test_pipelined_never_picked_for_small_payloads(self):
        at = DEFAULT_POLICY.allreduce_large_bytes
        assert select_algorithm("allreduce", at - 1, 33) == "doubling"


#: Every crossover in ``SelectionPolicy``, probed exactly at the
#: boundary and one step to either side (bytes and PE counts), for
#: power-of-two and non-power-of-two group sizes.  The table is the
#: spec: a threshold change that silently moves a crossover fails here
#: with the offending row in the test id.
_P = DEFAULT_POLICY
_CROSSOVER_TABLE = [
    # -- broadcast: linear_max_bytes at the 8-PE operating point
    ("broadcast", _P.linear_max_bytes - 1, 8, "linear"),
    ("broadcast", _P.linear_max_bytes, 8, "linear"),
    ("broadcast", _P.linear_max_bytes + 1, 8, "binomial"),
    # -- broadcast: linear_max_pes (trivial groups are always linear)
    ("broadcast", 1 << 20, _P.linear_max_pes, "linear"),
    ("broadcast", 1 << 20, _P.linear_max_pes + 1, "binomial"),
    # -- broadcast: linear_pe_limit at a small payload
    ("broadcast", _P.linear_max_bytes, _P.linear_pe_limit, "linear"),
    ("broadcast", _P.linear_max_bytes, _P.linear_pe_limit + 1, "binomial"),
    # -- broadcast: ring_min_bytes × ring_min_pes corner
    ("broadcast", _P.ring_min_bytes - 1, _P.ring_min_pes, "binomial"),
    ("broadcast", _P.ring_min_bytes, _P.ring_min_pes, "ring"),
    ("broadcast", _P.ring_min_bytes, _P.ring_min_pes - 1, "binomial"),
    ("broadcast", _P.ring_min_bytes, _P.ring_min_pes + 1, "ring"),
    ("broadcast", _P.ring_min_bytes, 33, "ring"),   # ring beats pe_limit
    # -- reduce: same linear boundaries, but never ring
    ("reduce", _P.linear_max_bytes, 8, "linear"),
    ("reduce", _P.linear_max_bytes + 1, 8, "binomial"),
    ("reduce", _P.ring_min_bytes, 8, "binomial"),
    ("reduce", 1 << 20, _P.linear_max_pes, "linear"),
    ("reduce", 1 << 20, _P.linear_max_pes + 1, "binomial"),
    # -- allreduce: small/large payload crossover, pof2 group
    ("allreduce", _P.allreduce_large_bytes - 1, 8, "doubling"),
    ("allreduce", _P.allreduce_large_bytes, 8, "rabenseifner"),
    # -- allreduce: same crossover, non-pof2 group → ring past it
    ("allreduce", _P.allreduce_large_bytes - 1, 6, "doubling"),
    ("allreduce", _P.allreduce_large_bytes, 6, "ring"),
    ("allreduce", _P.allreduce_large_bytes, 7, "ring"),
    # -- allreduce: the n<=2 override beats any payload
    ("allreduce", 1 << 24, 2, "doubling"),
    ("allreduce", 1 << 24, 3, "ring"),
    ("allreduce", 1 << 24, 4, "rabenseifner"),
    # -- allreduce: the dual-pipelined band [min_pes, max_pes) off
    #    power-of-two (31/33/63/65 straddle the 32 and 64 boundaries
    #    with non-pof2 probes; the pof2 values themselves fold to
    #    Rabenseifner regardless)
    ("allreduce", 1 << 20, _P.allreduce_pipelined_min_pes - 1, "ring"),
    ("allreduce", 1 << 20, _P.allreduce_pipelined_min_pes + 1,
     "dual-pipelined"),
    ("allreduce", 1 << 20, _P.allreduce_pipelined_min_pes, "rabenseifner"),
    ("allreduce", 1 << 20, _P.allreduce_pipelined_max_pes - 1,
     "dual-pipelined"),
    ("allreduce", 1 << 20, _P.allreduce_pipelined_max_pes + 1,
     "rabenseifner"),
    ("allreduce", _P.allreduce_large_bytes - 1,
     _P.allreduce_pipelined_min_pes + 1, "doubling"),
    # -- allgather: dissemination_min_pes boundary, payload-independent
    #    (past it the dest-direct PAT schedule wins at every measured
    #    payload, so the compiled choice is "pat")
    ("allgather", 8, _P.allgather_dissemination_min_pes - 1, "tree"),
    ("allgather", 8, _P.allgather_dissemination_min_pes, "pat"),
    ("allgather", 1 << 20, _P.allgather_dissemination_min_pes - 1, "tree"),
    ("allgather", 1 << 20, _P.allgather_dissemination_min_pes, "pat"),
    # -- reduce_scatter: pat_min_pes boundary, pof2 and non-pof2
    ("reduce_scatter", 1 << 20, _P.reduce_scatter_pat_min_pes - 1, "ring"),
    ("reduce_scatter", 1 << 20, _P.reduce_scatter_pat_min_pes, "pat"),
    ("reduce_scatter", 8, _P.reduce_scatter_pat_min_pes, "pat"),
    ("reduce_scatter", 1 << 20, _P.reduce_scatter_pat_min_pes + 9, "pat"),
]


class TestCrossoverTable:
    @pytest.mark.parametrize(
        "op,nbytes,n_pes,expected", _CROSSOVER_TABLE,
        ids=[f"{op}-{nbytes}B-{n}pes" for op, nbytes, n, _
             in _CROSSOVER_TABLE])
    def test_boundary(self, op, nbytes, n_pes, expected):
        assert select_algorithm(op, nbytes, n_pes) == expected

    def test_every_choice_is_a_supported_algorithm(self):
        """The table only ever names algorithms the records compile."""
        from repro.collectives import COLLECTIVES

        for op, _, _, expected in _CROSSOVER_TABLE:
            assert expected in COLLECTIVES[op].compilers, (op, expected)

    def test_table_covers_every_policy_field(self):
        """Adding a threshold to SelectionPolicy without extending the
        table is an error — the crossover would ship unpinned."""
        import dataclasses

        assert {f.name for f in dataclasses.fields(SelectionPolicy)} == {
            "linear_max_bytes", "linear_max_pes", "linear_pe_limit",
            "ring_min_bytes", "ring_min_pes", "allreduce_large_bytes",
            "allreduce_pipelined_min_pes", "allreduce_pipelined_max_pes",
            "allgather_dissemination_min_pes", "reduce_scatter_pat_min_pes",
        }, "new SelectionPolicy field: add its boundary rows to the table"


class TestAllgatherSelection:
    def test_small_groups_use_tree(self):
        pes = DEFAULT_POLICY.allgather_dissemination_min_pes
        assert select_algorithm("allgather", 1 << 20, pes - 1) == "tree"

    def test_larger_groups_use_pat(self):
        """Past the tree cutoff the dest-direct PAT schedule wins at
        every measured payload (it skips the dissemination variant's
        per-rank unrotate copy)."""
        pes = DEFAULT_POLICY.allgather_dissemination_min_pes
        assert select_algorithm("allgather", 8, pes) == "pat"
        assert select_algorithm("allgather", 1 << 20, 16) == "pat"


class TestReduceScatterSelection:
    def test_small_groups_use_ring(self):
        pes = DEFAULT_POLICY.reduce_scatter_pat_min_pes
        assert select_algorithm("reduce_scatter", 1 << 20, pes - 1) == "ring"

    def test_larger_groups_use_pat(self):
        pes = DEFAULT_POLICY.reduce_scatter_pat_min_pes
        assert select_algorithm("reduce_scatter", 8, pes) == "pat"
        assert select_algorithm("reduce_scatter", 1 << 20, 64) == "pat"
