"""Tests for the set-associative LRU cache model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import cache as cache_mod
from repro.machine.cache import Cache, CacheLevelResult
from repro.params import CacheParams


def make(size=1024, ways=2, line=64):
    return Cache(CacheParams(size_bytes=size, ways=ways, line_bytes=line))


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = make()
        assert c.access(5, False) is CacheLevelResult.MISS
        assert c.access(5, False) is CacheLevelResult.HIT
        assert (c.hits, c.misses) == (1, 1)

    def test_line_of(self):
        c = make(line=64)
        assert c.line_of(0) == 0
        assert c.line_of(63) == 0
        assert c.line_of(64) == 1

    def test_conflict_eviction(self):
        c = make(size=256, ways=2, line=64)  # 4 lines, 2 sets, 2 ways
        # Lines 0, 2, 4 all map to set 0; third insert evicts line 0.
        c.access(0, False)
        c.access(2, False)
        c.access(4, False)
        assert c.access(0, False) is CacheLevelResult.MISS

    def test_lru_order(self):
        c = make(size=256, ways=2, line=64)
        c.access(0, False)
        c.access(2, False)
        c.access(0, False)        # 0 becomes MRU
        c.access(4, False)        # evicts 2 (LRU), not 0
        assert c.access(0, False) is CacheLevelResult.HIT
        assert c.access(2, False) is CacheLevelResult.MISS

    def test_dirty_eviction_counts_writeback(self):
        c = make(size=256, ways=1, line=64)  # direct-mapped, 4 sets
        c.access(0, True)     # dirty
        c.access(4, False)    # same set, evicts dirty line 0
        assert c.writebacks == 1
        c.access(8, False)
        c.access(12, False)   # clean evictions
        assert c.writebacks == 1

    def test_write_marks_dirty_on_hit(self):
        c = make(size=256, ways=1, line=64)
        c.access(0, False)
        c.access(0, True)     # hit, now dirty
        c.access(4, False)
        assert c.writebacks == 1

    def test_probe_is_side_effect_free(self):
        c = make()
        c.access(3, False)
        h, m = c.hits, c.misses
        assert c.probe(3)
        assert not c.probe(99)
        assert (c.hits, c.misses) == (h, m)

    def test_invalidate_all(self):
        c = make()
        c.access(1, True)
        c.access(2, False)
        assert c.invalidate_all() == 1  # one dirty line discarded
        assert c.occupancy == 0
        assert c.access(1, False) is CacheLevelResult.MISS

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheParams(size_bytes=960, ways=2, line_bytes=48))


class ListLru:
    """Textbook LRU cache, one ``[(tag, dirty), ...]`` list per set with
    the most recent entry first.  Shares no code with :class:`Cache`."""

    def __init__(self, n_sets: int, ways: int):
        self.n_sets = n_sets
        self.ways = ways
        self.sets: dict[int, list[tuple[int, bool]]] = {}
        self.hits = self.misses = self.writebacks = 0

    def access(self, line: int, write: bool) -> bool:
        tag = line // self.n_sets
        lru = self.sets.setdefault(line % self.n_sets, [])
        for i, (resident, dirty) in enumerate(lru):
            if resident == tag:
                del lru[i]
                lru.insert(0, (tag, dirty or write))
                self.hits += 1
                return True
        self.misses += 1
        if len(lru) == self.ways:
            _, dirty = lru.pop()
            self.writebacks += dirty
        lru.insert(0, (tag, write))
        return False

    def counters(self):
        return self.hits, self.misses, self.writebacks


def geometry(n_sets, ways):
    return make(size=n_sets * ways * 64, ways=ways)


def apply_both(cache: Cache, oracle: ListLru, op) -> None:
    """Apply one trace op to both models and compare everything."""
    kind, lines, write = op
    missed = [line for line in lines if not oracle.access(line, write)]
    n = len(lines)
    if kind == "one":
        (line,) = lines
        got = cache.access(line, write)
        assert (got is CacheLevelResult.MISS) == bool(missed)
    elif kind == "run":
        hits, misses, got = cache.access_run(lines[0], n, write,
                                             collect_missed=True)
        assert (hits, misses) == (n - len(missed), len(missed))
        if 0 < len(missed) < n:
            assert got.tolist() == missed
        else:
            assert got is None
    else:
        got = cache.access_lines(np.array(lines, dtype=np.int64), write)
        assert got == (n - len(missed), len(missed))
    assert (cache.hits, cache.misses, cache.writebacks) == oracle.counters()
    assert cache.lru_state() == {s: lru for s, lru in oracle.sets.items()}
    assert cache.occupancy == sum(len(lru) for lru in oracle.sets.values())


def run_lengths(n_sets, ways):
    """The run lengths at which access_run changes strategy."""
    cut = cache_mod.SCALAR_CUTOVER
    fill = cache_mod._FILL_MIN_ROUNDS * n_sets
    return sorted({1, cut - 1, cut, cut + 1, n_sets - 1, n_sets, n_sets + 1,
                   n_sets * ways - 1, n_sets * ways, n_sets * ways + 1,
                   4 * n_sets + 1, fill - 1, fill, fill + n_sets // 2 + 1}
                  - {0, -1})


GEOMETRIES = [(1, 1), (1, 4), (4, 1), (8, 2), (16, 4), (32, 8), (64, 2)]


@st.composite
def traces(draw):
    n_sets, ways = draw(st.sampled_from(GEOMETRIES))
    span = 3 * cache_mod._FILL_MIN_ROUNDS * n_sets
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["one", "run", "run", "lines"]))
        write = draw(st.booleans())
        first = draw(st.integers(0, span))
        if kind == "one":
            lines = [first]
        elif kind == "run":
            n = draw(st.one_of(st.sampled_from(run_lengths(n_sets, ways)),
                               st.integers(1, span)))
            lines = list(range(first, first + n))
        else:
            lines = sorted(draw(st.sets(st.integers(first, first + span),
                                        min_size=1, max_size=80)))
        ops.append((kind, lines, write))
    return n_sets, ways, ops


class TestCapacityProperties:
    def test_occupancy_bounded_by_capacity(self):
        c = make(size=512, ways=2, line=64)  # 8 lines
        for line in range(100):
            c.access(line, False)
        assert c.occupancy <= 8

    def test_working_set_within_capacity_all_hits(self):
        """A working set that fits must hit 100% after the first pass."""
        c = make(size=1024, ways=4, line=64)  # 16 lines
        for _ in range(3):
            for line in range(16):
                c.access(line, False)
        assert c.misses == 16
        assert c.hits == 32

    def test_streaming_larger_than_cache_never_hits(self):
        c = make(size=512, ways=2, line=64)  # 8 lines
        for _ in range(2):
            for line in range(64):
                c.access(line, False)
        assert c.hits == 0

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=300),
           st.sampled_from([1, 2, 4]), st.booleans())
    def test_matches_reference_lru(self, lines, ways, write):
        """Single-line accesses against the independent oracle."""
        cache, oracle = geometry(4, ways), ListLru(4, ways)
        for i, line in enumerate(lines):
            apply_both(cache, oracle, ("one", [line], write and i % 3 == 0))


class TestAgainstIndependentOracle:
    """Every Cache entry point against :class:`ListLru`: hits, misses,
    writebacks, the missed-line array and the full MRU-to-LRU state."""

    @settings(max_examples=150, deadline=None)
    @given(traces())
    def test_mixed_traces(self, trace):
        n_sets, ways, ops = trace
        cache, oracle = geometry(n_sets, ways), ListLru(n_sets, ways)
        for op in ops:
            apply_both(cache, oracle, op)

    @pytest.mark.parametrize("n_sets,ways", GEOMETRIES)
    @pytest.mark.parametrize("write", [False, True])
    def test_every_strategy_boundary_cold_warm_and_wrapping(
            self, n_sets, ways, write):
        """Each boundary length: into a cold cache, as a re-sweep over
        what the first left behind, and starting mid-way through the set
        index so the run wraps it."""
        for n in run_lengths(n_sets, ways):
            cache, oracle = geometry(n_sets, ways), ListLru(n_sets, ways)
            for first in (0, 0, n_sets // 2 + 1, 3 * n_sets + n_sets - 1):
                lines = list(range(first, first + n))
                apply_both(cache, oracle, ("run", lines, write))
                apply_both(cache, oracle, ("lines", lines[::3], not write))

    @pytest.mark.parametrize("write", [False, True])
    def test_resident_tail_is_evicted_before_the_resweep_reaches_it(
            self, write):
        """The NAS IS L1 pattern.  A long sweep leaves its last
        ``ways`` tags in every set; sweeping the same range again finds
        them resident *and in range*, yet each is pushed out by the
        sweep's own earlier lines before its turn comes: all misses."""
        n_sets, ways = 32, 8
        n = 40 * n_sets
        cache, oracle = geometry(n_sets, ways), ListLru(n_sets, ways)
        sweep = ("run", list(range(5, 5 + n)), write)
        apply_both(cache, oracle, sweep)
        assert cache.probe(5 + n - 1)  # the tail is resident
        apply_both(cache, oracle, sweep)
        assert (cache.hits, cache.misses) == (0, 2 * n)

    def test_resident_tail_reached_before_eviction_hits(self):
        """The same shape, but the second sweep starts so near the tail
        that some resident lines are reached while still resident: the
        closed form must refuse and the hits be found."""
        n_sets, ways = 32, 8
        n = 40 * n_sets
        cache, oracle = geometry(n_sets, ways), ListLru(n_sets, ways)
        apply_both(cache, oracle, ("run", list(range(n)), True))
        start = n - 3 * n_sets  # 3 resident tags per set lie ahead
        apply_both(cache, oracle, ("run", list(range(start, start + n)), False))
        assert cache.hits == 3 * n_sets


class TestTouchHint:
    """:meth:`Cache.touch` trusts a line's remembered slot only while
    that slot still holds the line.  The batch paths never update the
    hint, so every stale case must fall back to the row scan — checked
    against :class:`ListLru` after every step.  Batches here are long
    enough (``SCALAR_CUTOVER`` lines over as many sets) not to fall back
    to ``touch`` themselves."""

    N_SETS, WAYS = cache_mod.SCALAR_CUTOVER, 2

    def _batch(self, kind, tags, write):
        """Lines with stored tags ``tags`` in every set, as one batch."""
        n = self.N_SETS
        runs = [list(range(tag * n, (tag + 1) * n)) for tag in tags]
        if kind == "run":
            return [("run", run, write) for run in runs]
        return [("lines", sorted(sum(runs, [])), write)]

    @pytest.mark.parametrize("batch", ["run", "lines"])
    @pytest.mark.parametrize("write", [False, True])
    def test_scalar_touch_after_a_batch_evicts_hinted_lines(self, batch,
                                                             write):
        n = self.N_SETS
        cache, oracle = geometry(n, self.WAYS), ListLru(n, self.WAYS)
        hinted = [0, n, 3, n + 3]  # both ways of sets 0 and 3
        for line in hinted:
            apply_both(cache, oracle, ("one", [line], write))
        assert all(line in cache._hint for line in hinted)
        for op in self._batch(batch, [2, 3], not write):  # evicts them
            apply_both(cache, oracle, op)
        for line in hinted + [2 * n, 3 * n + 3] + hinted:
            apply_both(cache, oracle, ("one", [line], write))

    def test_hinted_line_refilled_into_another_way(self):
        n = self.N_SETS
        cache, oracle = geometry(n, 4), ListLru(n, 4)
        line = 0
        apply_both(cache, oracle, ("one", [line], True))
        slot = cache._hint[line]
        # Fill the other three ways of every set, then push the line out
        # and bring it back by batches: it lands in another way while
        # the hint still names the old one.
        for op in self._batch("lines", [1, 2, 3, 4], False):
            apply_both(cache, oracle, op)
        for op in self._batch("run", [0], False):
            apply_both(cache, oracle, op)
        assert cache._hint[line] == slot
        assert cache._tag_mv[slot] != line // n + 1  # stale
        assert cache.probe(line)
        for step in range(3):
            apply_both(cache, oracle, ("one", [line], step == 1))
        assert cache._tag_mv[cache._hint[line]] == line // n + 1

    def test_hint_size_is_bounded(self):
        c = make(size=1024, ways=2)  # 16 lines
        for line in range(10 * c.params.n_lines):
            c.touch(line, line & 1 == 1)
            assert len(c._hint) <= c.params.n_lines
        big = Cache(CacheParams(size_bytes=8 << 20, ways=8))
        for line in range(10 * cache_mod._HINT_LINES):
            big.touch(line, False)
            assert len(big._hint) <= cache_mod._HINT_LINES

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(GEOMETRIES), st.lists(st.tuples(
        st.sampled_from(["one", "one", "one", "run", "lines"]),
        st.integers(0, 40), st.integers(1, 12), st.booleans()),
        min_size=1, max_size=40))
    def test_scalar_heavy_traces(self, geo, steps):
        """Mostly scalar touches over a few sets, so that hints are
        made, go stale under batches and are refreshed."""
        n_sets, ways = geo
        cache, oracle = geometry(n_sets, ways), ListLru(n_sets, ways)
        for kind, first, n, write in steps:
            if kind == "one":
                lines = [first]
            elif kind == "run":
                lines = list(range(first, first + n))
            else:
                lines = list(range(first, first + 3 * n, 3))
            apply_both(cache, oracle, (kind, lines, write))
