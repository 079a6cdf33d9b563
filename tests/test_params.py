"""Tests for machine/cost-model parameters."""

from __future__ import annotations

import pytest

from repro.params import (
    CacheParams,
    MachineConfig,
    MemoryParams,
    TlbParams,
    mpi_transport,
    paper_machine,
    rdma_transport,
    xbgas_transport,
)


class TestCacheParams:
    def test_paper_l1_geometry(self):
        l1 = MemoryParams().l1
        assert l1.size_bytes == 16 * 1024
        assert l1.ways == 8
        assert l1.n_sets == 32  # 256 lines / 8 ways

    def test_paper_l2_geometry(self):
        l2 = MemoryParams().l2
        assert l2.size_bytes == 8 * 1024 * 1024
        assert l2.ways == 8
        assert l2.n_lines == 131072

    def test_paper_tlb(self):
        assert MemoryParams().tlb.entries == 256

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheParams(size_bytes=0, ways=8)
        with pytest.raises(ValueError):
            CacheParams(size_bytes=1000, ways=4, line_bytes=64)


class TestTlbParams:
    @pytest.mark.parametrize("entries", [0, -1])
    def test_rejects_no_entries(self, entries):
        with pytest.raises(ValueError, match="at least one entry"):
            TlbParams(entries=entries)

    @pytest.mark.parametrize("page_bytes", [0, -4096, 3000])
    def test_rejects_a_page_size_not_a_power_of_two(self, page_bytes):
        with pytest.raises(ValueError, match="power of two"):
            TlbParams(page_bytes=page_bytes)

    def test_rejects_a_negative_walk_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            TlbParams(walk_ns=-1.0)

    def test_accepts_the_smallest_geometry(self):
        assert TlbParams(entries=1, page_bytes=1, walk_ns=0.0).entries == 1


class TestTransportPresets:
    def test_overhead_ordering(self):
        """Section 3.1: xBGAS < RDMA < MPI per-message overhead."""
        xb, rd, mp = xbgas_transport(), rdma_transport(), mpi_transport()
        assert xb.o_send < rd.o_send < mp.o_send

    def test_only_xbgas_avoids_kernel(self):
        assert xbgas_transport().kernel_ns == 0
        assert mpi_transport().kernel_ns > 0

    def test_only_mpi_is_two_sided(self):
        assert not xbgas_transport().two_sided
        assert not rdma_transport().two_sided
        assert mpi_transport().two_sided

    def test_mpi_has_rendezvous(self):
        mp = mpi_transport()
        assert mp.handshake_ns > 0
        assert mp.eager_threshold > 0

    def test_with_replaces(self):
        t = xbgas_transport().with_(o_send=99.0)
        assert t.o_send == 99.0
        assert t.name == "xbgas"


class TestMachineConfig:
    def test_defaults_are_paper_platform(self):
        cfg = MachineConfig()
        assert cfg.cores_per_node == 12  # the 12-core simulation host
        assert cfg.mem.tlb.entries == 256
        assert cfg.transport.name == "xbgas"

    def test_node_mapping_sequential(self):
        cfg = MachineConfig(n_pes=8, cores_per_node=4)
        assert cfg.n_nodes == 2
        assert [cfg.node_of(i) for i in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_node_of_out_of_range(self):
        with pytest.raises(ValueError):
            MachineConfig(n_pes=4).node_of(4)

    def test_with_transport(self):
        cfg = MachineConfig().with_transport("mpi")
        assert cfg.transport.two_sided
        with pytest.raises(ValueError):
            MachineConfig().with_transport("carrier-pigeon")

    def test_heap_must_fit(self):
        with pytest.raises(ValueError):
            MachineConfig(memory_bytes_per_pe=1 << 20,
                          symmetric_heap_bytes=1 << 21)

    def test_scratch_must_fit_heap(self):
        with pytest.raises(ValueError):
            MachineConfig(symmetric_heap_bytes=1 << 20,
                          collective_scratch_bytes=1 << 21)

    def test_cycle_time(self):
        assert MachineConfig(clock_ghz=2.0).cycle_ns == 0.5

    def test_fidelity_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(fidelity="cycle-accurate")

    def test_paper_machine_helper(self):
        cfg = paper_machine(4)
        assert cfg.n_pes == 4
