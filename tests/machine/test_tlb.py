"""Tests for the 256-entry LRU TLB model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine.tlb import Tlb
from repro.params import TlbParams


def make(entries=4, page=4096):
    return Tlb(TlbParams(entries=entries, page_bytes=page))


class TestTlb:
    def test_miss_then_hit(self):
        t = make()
        assert not t.access(7)
        assert t.access(7)
        assert (t.hits, t.misses) == (1, 1)

    def test_page_of(self):
        t = make(page=4096)
        assert t.page_of(0) == 0
        assert t.page_of(4095) == 0
        assert t.page_of(4096) == 1

    def test_capacity_eviction_is_lru(self):
        t = make(entries=2)
        t.access(1)
        t.access(2)
        t.access(1)      # 1 most recent
        t.access(3)      # evicts 2
        assert t.access(1)
        assert not t.access(2)

    def test_occupancy_bounded(self):
        t = make(entries=4)
        for p in range(50):
            t.access(p)
        assert t.occupancy == 4

    def test_probe_no_side_effects(self):
        t = make()
        t.access(1)
        h, m = t.hits, t.misses
        assert t.probe(1)
        assert not t.probe(9)
        assert (t.hits, t.misses) == (h, m)

    def test_flush(self):
        t = make()
        t.access(1)
        t.flush()
        assert not t.access(1)

    def test_bad_page_size(self):
        with pytest.raises(ValueError):
            Tlb(TlbParams(page_bytes=3000))

    @given(entries=st.integers(1, 8),
           before=st.lists(st.integers(0, 40), max_size=30),
           first=st.integers(0, 24), n_pages=st.integers(0, 30))
    def test_access_run_is_per_page_access(self, entries, before, first,
                                           n_pages):
        """Runs mostly longer than the TLB, over pages resident before
        the run both inside and outside it: the same hits, misses and
        LRU order as one :meth:`Tlb.access` per page."""
        run, ref = make(entries), make(entries)
        for page in before:
            run.access(page)
            ref.access(page)
        hits = sum(ref.access(p) for p in range(first, first + n_pages))
        assert run.access_run(first, n_pages) == (hits, n_pages - hits)
        assert list(run._entries) == list(ref._entries)
        assert (run.hits, run.misses) == (ref.hits, ref.misses)

    def test_access_run_longer_than_the_tlb(self):
        t = make(entries=4)
        for page in (3, 20, 5):  # 3 and 5 in the run, 20 outside it
            t.access(page)
        assert t.access_run(2, 10) == (2, 8)
        assert list(t._entries) == [8, 9, 10, 11]

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=200))
    def test_reference_lru_oracle(self, pages):
        t = make(entries=4)
        oracle: list[int] = []
        for p in pages:
            expect = p in oracle
            assert t.access(p) == expect
            if expect:
                oracle.remove(p)
            elif len(oracle) >= 4:
                oracle.pop(0)
            oracle.append(p)

    @given(st.lists(st.tuples(st.sampled_from(["one", "one", "run", "flush"]),
                              st.integers(0, 12), st.integers(0, 6)),
                    min_size=1, max_size=60))
    def test_mixed_calls_against_the_oracle(self, calls):
        """Scalar touches (often of the page just touched, which moves
        nothing), runs and flushes in any order: the LRU order after
        each call is the list oracle's."""
        t = make(entries=4)
        oracle: list[int] = []

        def touch(p):
            hit = p in oracle
            if hit:
                oracle.remove(p)
            elif len(oracle) >= 4:
                oracle.pop(0)
            oracle.append(p)
            return hit

        for kind, page, n in calls:
            if kind == "one":
                assert t.access(page) == touch(page)
                assert t.access(page) == touch(page)  # the page at the back
            elif kind == "run":
                hits = sum(touch(p) for p in range(page, page + n))
                assert t.access_run(page, n) == (hits, n - hits)
            else:
                t.flush()
                oracle.clear()
            assert list(t._entries) == oracle
