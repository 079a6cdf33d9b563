"""Tests for the symmetric heap and the allocators (paper Figure 2)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.runtime.symmetric_heap import (
    FreeListAllocator,
    ScratchStack,
    SymmetricHeap,
)


class TestFreeListAllocator:
    def test_alloc_within_bounds(self):
        a = FreeListAllocator(0x1000, 0x1000)
        p = a.alloc(100)
        assert 0x1000 <= p < 0x2000

    def test_alignment(self):
        a = FreeListAllocator(0x1001, 0x1000)
        p = a.alloc(8, align=64)
        assert p % 64 == 0

    def test_power_of_two_alignment_required(self):
        a = FreeListAllocator(0, 256)
        with pytest.raises(AllocationError):
            a.alloc(8, align=24)

    def test_positive_size_required(self):
        a = FreeListAllocator(0, 256)
        with pytest.raises(AllocationError):
            a.alloc(0)

    def test_distinct_blocks_disjoint(self):
        a = FreeListAllocator(0, 4096)
        p1, p2 = a.alloc(100), a.alloc(100)
        assert abs(p1 - p2) >= 100

    def test_free_and_reuse(self):
        a = FreeListAllocator(0, 256)
        p1 = a.alloc(200)
        with pytest.raises(AllocationError):
            a.alloc(200)
        a.free(p1)
        assert a.alloc(200) is not None

    def test_coalescing(self):
        a = FreeListAllocator(0, 300)
        ps = [a.alloc(100, align=1) for _ in range(3)]
        for p in ps:
            a.free(p)
        # After coalescing, one 300-byte block must be available again.
        assert a.alloc(300, align=1) is not None

    def test_double_free_rejected(self):
        a = FreeListAllocator(0, 256)
        p = a.alloc(16)
        a.free(p)
        with pytest.raises(AllocationError):
            a.free(p)

    def test_free_unknown_rejected(self):
        a = FreeListAllocator(0, 256)
        with pytest.raises(AllocationError):
            a.free(0x99)

    def test_out_of_memory_message(self):
        a = FreeListAllocator(0, 128)
        with pytest.raises(AllocationError, match="out of memory"):
            a.alloc(1024)

    def test_accounting(self):
        a = FreeListAllocator(0, 1024)
        p = a.alloc(100)
        assert a.bytes_allocated >= 100
        assert a.owns(p)
        assert a.size_of(p) >= 100
        a.free(p)
        assert a.bytes_allocated == 0
        assert a.bytes_free == 1024

    @given(st.lists(st.tuples(st.integers(1, 200),
                              st.sampled_from([1, 8, 16, 64])),
                    min_size=1, max_size=40))
    def test_alloc_free_invariants(self, sizes):
        """Blocks never overlap; freeing everything restores all bytes."""
        a = FreeListAllocator(0x100, 8192)
        live: dict[int, int] = {}
        for nbytes, align in sizes:
            try:
                p = a.alloc(nbytes, align)
            except AllocationError:
                continue
            assert p % align == 0
            for q, qn in live.items():
                assert p + nbytes <= q or q + qn <= p, "overlap"
            live[p] = nbytes
        for p in list(live):
            a.free(p)
        assert a.bytes_free == 8192
        assert a.n_allocations == 0


class _FirstFit:
    """The first-fit allocator as it was before LIFO reuse: every alloc
    scans the free list, every free bisects and coalesces.  The oracle
    for :class:`FreeListAllocator`'s addresses."""

    def __init__(self, base: int, size: int):
        self.free_runs = [(base, size)]
        self.blocks: dict[int, tuple[int, int]] = {}

    def alloc(self, nbytes: int, align: int) -> int:
        for i, (start, length) in enumerate(self.free_runs):
            addr = (start + align - 1) & ~(align - 1)
            pad = addr - start
            need = pad + nbytes
            if need <= length:
                if pad >= 16:
                    self.free_runs[i] = (start, pad)
                    if length - need > 0:
                        self.free_runs.insert(i + 1, (addr + nbytes,
                                                      length - need))
                    self.blocks[addr] = (addr, nbytes)
                else:
                    if length - need > 0:
                        self.free_runs[i] = (start + need, length - need)
                    else:
                        del self.free_runs[i]
                    self.blocks[addr] = (start, need)
                return addr
        raise AllocationError("out of memory")

    def free(self, addr: int) -> None:
        start, length = self.blocks.pop(addr)
        runs = self.free_runs
        i = next((k for k, run in enumerate(runs) if run[0] > start),
                 len(runs))
        runs.insert(i, (start, length))
        if i + 1 < len(runs) and start + length == runs[i + 1][0]:
            runs[i] = (start, length + runs.pop(i + 1)[1])
        if i > 0 and runs[i - 1][0] + runs[i - 1][1] == start:
            runs[i - 1] = (runs[i - 1][0], runs[i - 1][1] + runs.pop(i)[1])


#: One allocator operation: allocate (size, alignment), free the most
#: recent live block, or free the live block at a drawn position.
_OPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 600),
              st.sampled_from([1, 8, 16, 32, 64, 256])),
    st.tuples(st.just("pop"), st.just(0), st.just(0)),
    st.tuples(st.just("free"), st.integers(0, 1 << 16), st.just(0)),
)


class TestLifoReuse:
    @given(st.lists(_OPS, max_size=120))
    def test_addresses_stay_first_fit(self, ops):
        """LIFO frees and re-allocations, mixed with out-of-order frees
        and out-of-memory refusals, return first fit's addresses and
        leave its free list."""
        a = FreeListAllocator(0x1008, 4096)
        oracle = _FirstFit(0x1008, 4096)
        live: list[int] = []
        for op, x, align in ops:
            if op == "alloc":
                try:
                    want = oracle.alloc(x, align)
                except AllocationError:
                    with pytest.raises(AllocationError):
                        a.alloc(x, align)
                    continue
                assert a.alloc(x, align) == want
                assert a.size_of(want) == oracle.blocks[want][1]
                live.append(want)
            elif live:
                addr = live.pop(-1 if op == "pop" else x % len(live))
                a.free(addr)
                oracle.free(addr)
            assert a._free == oracle.free_runs
        assert a.n_allocations == len(live)

    def test_a_collective_call_pattern_reuses_its_blocks(self):
        """Alloc two private buffers, free them LIFO, again and again:
        the same two addresses every time, and no scan after the first
        pair."""
        a = FreeListAllocator(0x1000, 1 << 20)
        a.alloc(40)  # a long-lived block below
        first = None
        for _ in range(5):
            pair = (a.alloc(96), a.alloc(24, 64))
            a.free(pair[1])
            a.free(pair[0])
            first = first or pair
            assert pair == first

        def no_scan(nbytes, align):
            raise AssertionError("first-fit scan")

        a._first_fit = no_scan
        assert (a.alloc(96), a.alloc(24, 64)) == first


class TestSymmetricHeap:
    def test_collective_calls_agree(self):
        """Every PE's N-th malloc returns the same address."""
        h = SymmetricHeap(0x1000, 4096, n_pes=4)
        addrs = [h.collective_malloc(0, 128) for _ in range(4)]
        assert len(set(addrs)) == 1

    def test_sequence_of_collectives(self):
        h = SymmetricHeap(0x1000, 4096, n_pes=2)
        a0 = h.collective_malloc(0, 64)
        b0 = h.collective_malloc(1, 64)
        a1 = h.collective_malloc(0, 64)
        b1 = h.collective_malloc(1, 64)
        assert (a0, b0) == (a1, b1)
        assert a0 != b0

    def test_divergent_args_detected(self):
        h = SymmetricHeap(0x1000, 4096, n_pes=2)
        h.collective_malloc(0, 64)
        with pytest.raises(AllocationError, match="divergent"):
            h.collective_malloc(0, 128)

    def test_out_of_order_call_detected(self):
        h = SymmetricHeap(0x1000, 4096, n_pes=2)
        with pytest.raises(AllocationError):
            h.collective_malloc(5, 64)

    def test_collective_free(self):
        h = SymmetricHeap(0x1000, 256, n_pes=2)
        p = h.collective_malloc(0, 200)
        h.collective_malloc(0, 200)  # second PE replays
        h.collective_free(1, p)
        h.collective_free(1, p)
        assert h.collective_malloc(2, 200) is not None


class TestScratchStack:
    def test_same_push_order_same_addresses(self):
        s1 = ScratchStack(0x8000, 4096)
        s2 = ScratchStack(0x8000, 4096)
        a1, b1 = s1.alloc(100), s1.alloc(50)
        a2, b2 = s2.alloc(100), s2.alloc(50)
        assert (a1, b1) == (a2, b2)

    def test_lifo_enforced(self):
        s = ScratchStack(0, 4096)
        a = s.alloc(64)
        b = s.alloc(64)
        with pytest.raises(AllocationError, match="LIFO"):
            s.free(a)
        s.free(b)
        s.free(a)
        assert s.bytes_used == 0

    def test_exhaustion_message_names_config(self):
        s = ScratchStack(0, 128)
        with pytest.raises(AllocationError, match="collective_scratch_bytes"):
            s.alloc(1024)

    def test_free_empty_rejected(self):
        s = ScratchStack(0, 128)
        with pytest.raises(AllocationError):
            s.free(0)

    def test_alignment(self):
        s = ScratchStack(0x11, 4096)
        assert s.alloc(8, align=16) % 16 == 0

    def test_depth(self):
        s = ScratchStack(0, 4096)
        a = s.alloc(8)
        assert s.depth == 1
        s.free(a)
        assert s.depth == 0
