"""Tests for the per-core memory hierarchy (TLB + L1 + L2 + DRAM)."""

from __future__ import annotations

import pytest

from repro.machine.memsys import MemoryHierarchy
from repro.params import CacheParams, MemoryParams, TlbParams


def make(l1_kb=1, l2_kb=16, dram=90.0, walk=120.0):
    return MemoryHierarchy(MemoryParams(
        l1=CacheParams(size_bytes=l1_kb * 1024, ways=2, hit_ns=1.0),
        l2=CacheParams(size_bytes=l2_kb * 1024, ways=4, hit_ns=10.0),
        tlb=TlbParams(entries=4, page_bytes=4096, walk_ns=walk),
        dram_ns=dram,
    ))


class TestSingleAccess:
    def test_cold_access_pays_everything(self):
        h = make()
        ns = h.access(0, 8, False)
        # TLB walk + L1 lookup + L2 lookup + DRAM.
        assert ns == pytest.approx(120 + 1 + 10 + 90)

    def test_warm_access_is_l1_hit(self):
        h = make()
        h.access(0, 8, False)
        assert h.access(0, 8, False) == pytest.approx(1.0)

    def test_l2_hit_after_l1_eviction(self):
        h = make(l1_kb=1)  # 16 lines, 8 sets x 2 ways
        h.access(0, 8, False)
        # Evict line 0 from L1 by filling its set (lines 0, 8, 16 share
        # set 0 with 8 sets), while staying within L2.
        h.access(8 * 64, 8, False)
        h.access(16 * 64, 8, False)
        ns = h.access(0, 8, False)
        # Same page as a recently-touched one? line 0's page is page 0 —
        # still resident; so cost = L1 lookup + L2 hit.
        assert ns == pytest.approx(1 + 10)

    def test_physical_access_skips_tlb(self):
        h = make()
        ns = h.access(1 << 20, 8, False, use_tlb=False)
        assert ns == pytest.approx(1 + 10 + 90)
        assert h.tlb.misses == 0

    def test_straddling_access_charged_per_line(self):
        h = make()
        ns = h.access(60, 8, False)  # crosses a 64 B boundary
        one = make().access(0, 8, False)
        assert ns > one


class TestRanges:
    def test_range_touches_every_line(self):
        h = make()
        h.access_range(0, 64 * 10, False)
        assert h.l1.misses == 10

    def test_range_zero_bytes(self):
        assert make().access_range(0, 0) == 0.0

    def test_streaming_regime_matches_per_line_cost(self):
        """Above 4x L2 the closed form must equal the per-line sweep."""
        h1 = make(l2_kb=16)
        n = 5 * 16 * 1024  # > 4x L2
        fast = h1.access_range(0, n, False)
        # Reference: per-line model on a fresh hierarchy (same streamed
        # DRAM cost — the closed form only skips the per-line Python).
        h2 = make(l2_kb=16)
        slow = 0.0
        for line in range(n // 64):
            slow += h2.access_line(line, False, stream=True)
        # The closed form assumes every line goes to DRAM; the sweep's
        # first lines also do (cold), so totals agree up to TLB detail.
        assert fast == pytest.approx(slow, rel=0.05)

    def test_streaming_regime_leaves_tail_resident(self):
        h = make(l2_kb=16)
        n = 5 * 16 * 1024
        h.access_range(0, n, False)
        assert h.l2.probe((n - 64) // 64)

    def test_second_sweep_within_l2_hits(self):
        h = make(l2_kb=16)
        h.access_range(0, 8 * 1024, False)
        before = h.l2.hits + h.l1.hits
        h.access_range(0, 8 * 1024, False)
        after = h.l2.hits + h.l1.hits
        assert after - before == 128  # every line hits somewhere


class TestStrided:
    def test_dense_equals_range(self):
        h1, h2 = make(), make()
        a = h1.access_strided(0, 64, 8, 1, False)
        b = h2.access_range(0, 64 * 8, False)
        assert a == pytest.approx(b)

    def test_large_stride_per_element(self):
        h = make()
        ns = h.access_strided(0, 4, 8, 32, False)  # 256 B apart
        assert h.l1.misses == 4  # each element on its own line

    def test_zero_elements(self):
        assert make().access_strided(0, 0, 8, 1) == 0.0


class TestStats:
    def test_stat_tuple(self):
        h = make()
        h.access(0, 8, False)
        h.access(0, 8, False)
        l1h, l1m, l2h, l2m, th, tm = h.stat_tuple()
        assert (l1h, l1m) == (1, 1)
        assert tm == 1 and th == 1

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy(MemoryParams(
                l1=CacheParams(size_bytes=1024, ways=2, line_bytes=32),
                l2=CacheParams(size_bytes=4096, ways=2, line_bytes=64),
            ))
