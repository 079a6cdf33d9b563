"""Fast-path vs per-line reference equivalence for memory costing.

The batched run classifiers (:meth:`repro.machine.cache.Cache.access_run`,
:meth:`repro.machine.tlb.Tlb.access_run` and the
:meth:`repro.machine.memsys.MemoryHierarchy` bulk entry points) must be
*bit-identical* to the per-line reference loop they replace: identical
returned nanoseconds, identical hit/miss/writeback counters, and an
identical LRU state (:meth:`Cache.lru_state`).  These tests drive
randomized access traces through both implementations and compare
everything.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import Cache
from repro.machine.memsys import MemoryHierarchy
from repro.params import CacheParams, MemoryParams, TlbParams


def make_pair(**kwargs):
    """Two identically-configured hierarchies: fast and reference."""
    params = MemoryParams(**kwargs)
    fast = MemoryHierarchy(params)
    ref = MemoryHierarchy(params)
    ref.fast_path = False
    return fast, ref


def assert_hierarchies_identical(fast: MemoryHierarchy, ref: MemoryHierarchy):
    assert fast.stat_tuple() == ref.stat_tuple()
    assert fast.l1.writebacks == ref.l1.writebacks
    assert fast.l2.writebacks == ref.l2.writebacks
    assert fast.l1.lru_state() == ref.l1.lru_state()
    assert fast.l2.lru_state() == ref.l2.lru_state()
    assert list(fast.tlb._entries) == list(ref.tlb._entries)  # LRU order


access_op = st.tuples(
    st.sampled_from(["range", "scalar", "strided"]),
    st.integers(min_value=0, max_value=1 << 18),  # addr
    st.integers(min_value=1, max_value=6000),     # nbytes / nelems
    st.booleans(),                                 # write
    st.booleans(),                                 # use_tlb
)


class TestRandomizedTraces:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(access_op, min_size=1, max_size=12))
    def test_trace_bit_identical(self, ops):
        # Small geometry so traces actually exercise eviction and
        # conflict paths, not just cold fills.
        fast, ref = make_pair(
            l1=CacheParams(size_bytes=1024, ways=2, hit_ns=1.0),
            l2=CacheParams(size_bytes=16 * 1024, ways=4, hit_ns=8.0),
            tlb=TlbParams(entries=4, page_bytes=4096, walk_ns=128.0),
        )
        for kind, addr, n, write, use_tlb in ops:
            if kind == "range":
                a = fast.access_range(addr, n, write, use_tlb)
                b = ref.access_range(addr, n, write, use_tlb)
            elif kind == "scalar":
                size = 1 + n % 16
                a = fast.access(addr, size, write, use_tlb)
                b = ref.access(addr, size, write, use_tlb)
            else:
                nelems = 1 + n % 64
                stride = 1 + addr % 24
                a = fast.access_strided(addr, nelems, 8, stride, write,
                                        use_tlb)
                b = ref.access_strided(addr, nelems, 8, stride, write,
                                       use_tlb)
            assert a == b  # exact float equality, not approx
            assert_hierarchies_identical(fast, ref)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=1, max_value=20000),
        st.booleans(),
    )
    def test_paper_geometry_ranges(self, addr, nbytes, write):
        fast, ref = make_pair()  # default paper geometry (16 KB / 8 MB)
        a = fast.access_range(addr, nbytes, write)
        b = ref.access_range(addr, nbytes, write)
        assert a == b
        assert_hierarchies_identical(fast, ref)


class TestSmallStridedSpans:
    """A dense ``access_strided`` of one or two lines costs its lines
    itself; it must be ``access_range`` over the same span, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(
            # Near a page boundary (4096) so that two-line spans straddle
            # it, or anywhere in a small window.
            st.one_of(st.integers(4096 - 192, 4096 + 64),
                      st.integers(0, 1 << 14)),
            st.integers(1, 16),       # nelems
            st.sampled_from([1, 2, 4, 8]),  # elem bytes
            st.integers(1, 8),        # stride (elements)
            st.booleans(),            # write
            st.booleans(),            # use_tlb
        ), min_size=1, max_size=16))
    def test_matches_access_range(self, ops):
        kw = dict(
            l1=CacheParams(size_bytes=1024, ways=2, hit_ns=1.0),
            l2=CacheParams(size_bytes=4096, ways=4, hit_ns=8.0),
            tlb=TlbParams(entries=2, page_bytes=4096, walk_ns=128.0),
        )
        strided = MemoryHierarchy(MemoryParams(**kw))
        ranged = MemoryHierarchy(MemoryParams(**kw))
        for addr, nelems, eb, stride, write, use_tlb in ops:
            step = eb * stride
            span = (nelems - 1) * step + eb
            if step > 64 or (addr + span - 1) // 64 - addr // 64 > 1:
                continue  # not dense, or more than two lines
            a = strided.access_strided(addr, nelems, eb, stride, write,
                                       use_tlb)
            b = ranged.access_range(addr, span, write, use_tlb)
            assert a == b  # exact float equality, not approx
            assert_hierarchies_identical(strided, ranged)


class TestBoundaries:
    def test_access_straddling_line_boundary_uses_bulk_path(self):
        """A multi-line scalar access costs the same on both paths."""
        for offset in (60, 62, 63):
            for size in (8, 16, 64, 200):
                fast, ref = make_pair()
                a = fast.access(offset, size, True)
                b = ref.access(offset, size, True)
                assert a == b
                assert_hierarchies_identical(fast, ref)

    def test_access_straddling_page_boundary(self):
        fast, ref = make_pair(
            tlb=TlbParams(entries=4, page_bytes=4096, walk_ns=100.0),
        )
        addr = 4096 - 64
        a = fast.access_range(addr, 256, False)
        b = ref.access_range(addr, 256, False)
        assert a == b
        assert fast.tlb.misses == 2  # both pages walked
        assert_hierarchies_identical(fast, ref)

    def test_streaming_cutoff_crossing(self):
        """Ranges just below / at / above the streaming regime agree."""
        kw = dict(
            l1=CacheParams(size_bytes=1024, ways=2, hit_ns=1.0),
            l2=CacheParams(size_bytes=4096, ways=4, hit_ns=8.0),
        )
        cutoff_lines = 4 * (4096 // 64)
        for n_lines in (cutoff_lines - 1, cutoff_lines, cutoff_lines + 1,
                        2 * cutoff_lines):
            fast, ref = make_pair(**kw)
            a = fast.access_range(0, n_lines * 64, True)
            b = ref.access_range(0, n_lines * 64, True)
            assert a == b
            assert_hierarchies_identical(fast, ref)

    def test_repeated_sweeps_stay_identical(self):
        """Cold fill, warm re-sweep, dirty upgrade, then conflict sweep."""
        fast, ref = make_pair()
        for base, write in ((0, False), (0, False), (0, True),
                            (1 << 21, False), (0, False)):
            a = fast.access_range(base, 8192, write)
            b = ref.access_range(base, 8192, write)
            assert a == b
        assert_hierarchies_identical(fast, ref)


class TestCacheRunOracle:
    """Cache.access_run against a literal per-line Cache.access loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=4096),
        st.integers(min_value=1, max_value=700),
        st.booleans(),
        st.integers(min_value=0, max_value=4),
    )
    def test_run_matches_per_line(self, first, n_lines, write, warm):
        params = CacheParams(size_bytes=4096, ways=2, line_bytes=64)
        fast = Cache(params)
        ref = Cache(params)
        for w in range(warm):  # pre-warm both identically
            for line in range(w * 13, w * 13 + 40):
                fast.access(line, bool(w & 1))
                ref.access(line, bool(w & 1))
        hits, misses, missed = fast.access_run(
            first, n_lines, write, collect_missed=True
        )
        ref_missed = []
        h0, m0 = ref.hits, ref.misses
        for line in range(first, first + n_lines):
            if ref.access(line, write).value == "miss":
                ref_missed.append(line)
        assert hits == ref.hits - h0
        assert misses == ref.misses - m0
        assert fast.writebacks == ref.writebacks
        if missed is None:
            assert len(ref_missed) in (0, n_lines)
        else:
            assert missed.tolist() == ref_missed
        assert fast.lru_state() == ref.lru_state()

    def test_access_lines_matches_per_line(self):
        rng = np.random.default_rng(7)
        params = CacheParams(size_bytes=2048, ways=4, line_bytes=64)
        fast = Cache(params)
        ref = Cache(params)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            lines = np.sort(rng.choice(512, size=n, replace=False))
            write = bool(rng.integers(0, 2))
            h, m = fast.access_lines(lines.astype(np.int64), write)
            h0, m0 = ref.hits, ref.misses
            for line in lines.tolist():
                ref.access(line, write)
            assert h == ref.hits - h0
            assert m == ref.misses - m0
            assert fast.writebacks == ref.writebacks
            assert fast.lru_state() == ref.lru_state()

    def test_invalidate_all_returns_dirty_count(self):
        params = CacheParams(size_bytes=8 * 1024 * 1024, ways=8)
        c = Cache(params)
        c.access_run(0, 100, True)    # 100 dirty lines
        c.access_run(200, 50, False)  # 50 clean ones
        c.access(0, False)
        assert c.occupancy == 150
        assert c.invalidate_all() == 100
        assert c.occupancy == 0
        assert c.probe(0) is False

    def test_occupancy_at_paper_geometry(self):
        params = CacheParams(size_bytes=8 * 1024 * 1024, ways=8)
        c = Cache(params)
        c.access_run(0, 64, False)
        assert c.occupancy == 64
        # A second tag in set 0 adds a line, it does not replace one.
        c.access(params.n_sets, False)
        assert c.occupancy == 65
        assert c.probe(0) and c.probe(params.n_sets)


@pytest.mark.parametrize("write", [False, True])
def test_grouped_ns_formula_is_exact(write):
    """The regrouped count*latency total equals left-to-right addition."""
    fast, ref = make_pair()
    total_fast = sum(
        fast.access_range(i * 8192, 8192, write) for i in range(32)
    )
    total_ref = sum(
        ref.access_range(i * 8192, 8192, write) for i in range(32)
    )
    assert total_fast == total_ref
