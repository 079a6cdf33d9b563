"""Per-core memory hierarchy: TLB + L1 + L2 + DRAM latency model.

The hierarchy is *timing only*: it converts an access (address, size,
read/write) into nanoseconds, updating hit/miss statistics.  Functional
data lives in :class:`repro.isa.memory.Memory`.

Two costing entry points:

* :meth:`MemoryHierarchy.access` — one scalar access (the GUPs inner
  loop uses this per random update).
* :meth:`MemoryHierarchy.access_range` — a bulk sequential range (used
  by the runtime's put/get transfer engine and the vectorised benchmark
  phases).

Either way an access that touches a few lines costs each with
:meth:`MemoryHierarchy.access_line`, the one-line primitive (pure
Python, no numpy; the transfer engine's one-word path calls it
directly), and one that touches
:data:`~repro.machine.cache.SCALAR_CUTOVER` or more goes to
:meth:`MemoryHierarchy._run_cost`, which hands the whole run to
:meth:`Cache.access_run` / :meth:`Tlb.access_run`.  A dense
:meth:`MemoryHierarchy.access_strided` of one or two lines — every
small collective's put and get — makes those one or two
``access_line`` calls itself, exactly what ``access_range`` would
make for it.  Setting
``fast_path = False`` on an instance costs every line with
``access_line``; the two are equivalent — identical counters,
identical cache/TLB state, and identical ns because the grouped cost
formula regroups exact (dyadic) per-line terms — and the equivalence
suite asserts it bit for bit.
"""

from __future__ import annotations

from ..params import MemoryParams
from .cache import SCALAR_CUTOVER, Cache
from .tlb import Tlb

__all__ = ["MemoryHierarchy"]


class MemoryHierarchy:
    """TLB, L1 and L2 models plus DRAM latency for one core."""

    def __init__(self, params: MemoryParams):
        self.params = params
        self.tlb = Tlb(params.tlb)
        self.l1 = Cache(params.l1)
        self.l2 = Cache(params.l2)
        if params.l1.line_bytes != params.l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        self._line_bytes = params.l1.line_bytes
        #: byte address >> this = line address (:meth:`access_line`)
        self.line_shift = self.l1.line_shift
        # The scalar path reads these once per line; ``params`` is frozen.
        self._walk_ns = params.tlb.walk_ns
        self._l1_ns = params.l1.hit_ns
        self._l2_ns = params.l2.hit_ns
        self._dram_ns = params.dram_ns
        self._dram_stream_ns = params.dram_stream_ns
        #: line address >> this = page number
        self._page_line_shift = self.tlb.page_shift - self.line_shift
        #: Ranges of more lines than this are costed in closed form.
        self._stream_lines = 4 * params.l2.n_lines
        #: Cost runs of ``SCALAR_CUTOVER`` lines or more in batches.  Set
        #: False to cost every line on its own (the oracle the
        #: equivalence tests compare against).
        self.fast_path = True

    # -- single access ----------------------------------------------------

    def access(self, addr: int, size: int = 8, write: bool = False,
               use_tlb: bool = True) -> float:
        """Cost one access of ``size`` bytes at ``addr`` in ns.

        Accesses that straddle a line boundary are charged per line.
        ``use_tlb=False`` models *physically-addressed* traffic — xBGAS
        remote accesses resolve through the requester's OLB, so they
        bypass the target core's TLB entirely (paper section 3.2).
        """
        first = addr >> self.line_shift
        last = (addr + (size if size > 0 else 1) - 1) >> self.line_shift
        if first == last:
            return self.access_line(first, write, use_tlb)
        return self._lines_cost(first, last - first + 1, write, use_tlb,
                                stream=False)

    def access_line(self, line: int, write: bool, use_tlb: bool = True,
                    stream: bool = False) -> float:
        """Cost one access to line address ``line`` (byte address >>
        :attr:`line_shift`) in ns: the primitive every other entry point
        is made of.  ``stream`` prices an L2 miss as a pipelined
        sequential one (``dram_stream_ns``), as a dense range does."""
        ns = self._l1_ns  # an L1 miss still costs the L1 lookup
        if use_tlb:
            page = line >> self._page_line_shift
            tlb = self.tlb
            if page == tlb.mru:  # a hit that moves nothing
                tlb.hits += 1
            elif not tlb.access(page):
                ns = self._walk_ns + ns
        if self.l1.touch(line, write):
            return ns
        ns += self._l2_ns
        if self.l2.touch(line, write):
            return ns
        # Sequential misses pipeline in DRAM (row-buffer hits + MLP);
        # isolated random misses pay the full access latency.
        return ns + (self._dram_stream_ns if stream else self._dram_ns)

    def _lines_cost(self, first: int, n_lines: int, write: bool,
                    use_tlb: bool, stream: bool) -> float:
        """Cost the sequential lines ``[first, first+n_lines)``: batched
        when the run repays numpy's per-call cost, else line by line."""
        if self.fast_path and n_lines >= SCALAR_CUTOVER:
            return self._run_cost(first, n_lines, write, use_tlb, stream)
        ns = 0.0
        for line in range(first, first + n_lines):
            ns += self.access_line(line, write, use_tlb, stream)
        return ns

    def _run_cost(self, first: int, n_lines: int, write: bool,
                  use_tlb: bool, stream: bool) -> float:
        """Bulk-cost the sequential lines ``[first, first+n_lines)``.

        Produces the same counters and final cache/TLB state as per-line
        :meth:`access_line` calls in ascending order.  The ns total
        regroups the identical per-line terms by count
        (``count × latency`` per level); every default latency parameter
        is an exact dyadic float and run totals stay far below 2^53, so
        the regrouped sum is bit-identical to the left-to-right one.
        """
        p = self.params
        l1_hits, l1_misses, missed = self.l1.access_run(
            first, n_lines, write, collect_missed=True
        )
        l2_misses = 0
        if l1_misses:
            if missed is None:
                # Every line missed L1: L2 sees the same contiguous run.
                _, l2_misses, _ = self.l2.access_run(first, n_lines, write)
            else:
                _, l2_misses = self.l2.access_lines(missed, write)
        ns = n_lines * p.l1.hit_ns + l1_misses * p.l2.hit_ns
        if l2_misses:
            ns += l2_misses * (p.dram_stream_ns if stream else p.dram_ns)
        if use_tlb:
            shift = self._page_line_shift
            first_page = first >> shift
            n_pages = ((first + n_lines - 1) >> shift) - first_page + 1
            _, tlb_misses = self.tlb.access_run(first_page, n_pages)
            # The per-line reference touches the TLB once per line; the
            # repeat touches within a page are guaranteed hits that leave
            # LRU order unchanged (the page is already most recent).
            self.tlb.hits += n_lines - n_pages
            if tlb_misses:
                ns += tlb_misses * p.tlb.walk_ns
        return ns

    # -- bulk range ---------------------------------------------------------

    def access_range(self, addr: int, nbytes: int, write: bool = False,
                     use_tlb: bool = True) -> float:
        """Cost a sequential range, one lookup per cache line touched.

        For ranges far larger than L2 the model switches to a closed-form
        streaming estimate (every line misses to DRAM) to keep simulation
        time bounded; the answer matches the per-line loop because an LRU
        cache has no reuse within a single sequential sweep of that size.
        """
        if nbytes <= 0:
            return 0.0
        first = addr >> self.line_shift
        last = (addr + nbytes - 1) >> self.line_shift
        n_lines = last - first + 1
        if n_lines == 1:
            return self.access_line(first, write, use_tlb, stream=True)
        p = self.params
        if n_lines > self._stream_lines:
            # Streaming regime: charge pipelined DRAM for every line, then
            # leave the caches holding the tail of the sweep so later
            # reuse behaves.
            per_line = p.l1.hit_ns + p.l2.hit_ns + p.dram_stream_ns
            shift = self._page_line_shift
            pages = (last >> shift) - (first >> shift) + 1
            ns = n_lines * per_line
            if use_tlb:
                ns += pages * p.tlb.walk_ns
            tail_lines = self.l2.params.n_lines
            # Touch the tail for its state transitions; its ns is not
            # charged.
            self._lines_cost(last - tail_lines + 1, tail_lines, write,
                             use_tlb, stream=True)
            return ns
        return self._lines_cost(first, n_lines, write, use_tlb, stream=True)

    def access_strided(
        self, addr: int, nelems: int, elem_bytes: int, stride_elems: int,
        write: bool = False, use_tlb: bool = True,
    ) -> float:
        """Cost ``nelems`` accesses of ``elem_bytes`` separated by
        ``stride_elems`` elements (the runtime's strided put/get)."""
        step = elem_bytes * stride_elems
        if nelems > 0 and stride_elems >= 1 and step <= self._line_bytes:
            # Dense or near-dense: equivalent to a sequential sweep —
            # most often (every scalar remote element) of one line.
            span = (nelems - 1) * step + elem_bytes
            first = addr >> self.line_shift
            last = (addr + span - 1) >> self.line_shift
            if last - first < 2:
                # L1 hits on the touch hints, on the TLB's most recent
                # page if asked: priced as ``access_line`` would.
                l1 = self.l1
                tags, a, b = l1._tag_mv, l1._hint.get(first), l1._hint.get(last)
                if (a is not None and b is not None and self.fast_path
                        and tags[a] == first // l1.n_sets + 1
                        and tags[b] == last // l1.n_sets + 1
                        and (not use_tlb or first >> self._page_line_shift
                             == last >> self._page_line_shift
                             == self.tlb.mru)):
                    n = 1 + last - first
                    if use_tlb:
                        self.tlb.hits += n
                    keys, clock = l1._key_mv, l1._clock
                    for at in (a, b)[:n]:
                        clock += 1
                        keys[at] = (clock << 1) | write | (keys[at] & 1)
                    l1._clock = clock
                    l1.hits += n
                    return self._l1_ns if n == 1 else self._l1_ns + self._l1_ns
                if last == first:
                    return self.access_line(first, write, use_tlb, True)
                # what ``access_range`` does with two
                return (self.access_line(first, write, use_tlb, True)
                        + self.access_line(last, write, use_tlb, True))
            return self.access_range(addr, span, write, use_tlb)
        if nelems <= 0:
            return 0.0
        if stride_elems < 1:
            step = elem_bytes
        ns = 0.0
        a = addr
        for _ in range(nelems):
            ns += self.access(a, elem_bytes, write, use_tlb)
            a += step
        return ns

    # -- statistics -----------------------------------------------------------

    def stat_tuple(self) -> tuple[int, int, int, int, int, int]:
        """(l1_hits, l1_misses, l2_hits, l2_misses, tlb_hits, tlb_misses)."""
        return (
            self.l1.hits,
            self.l1.misses,
            self.l2.hits,
            self.l2.misses,
            self.tlb.hits,
            self.tlb.misses,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryHierarchy(l1={self.l1!r}, l2={self.l2!r}, tlb={self.tlb!r})"
