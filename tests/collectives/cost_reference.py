"""The schedule evaluator's memory cost model as it was before it priced
a whole schedule in one pass: one call per lane group (a dense sweep or
a strided access), every lane reading the touched bits before the call
marks its pages.  Kept verbatim as the oracle of ``test_cost_model.py``.
"""

from __future__ import annotations

import numpy as np

from repro.params import MachineConfig


class ReferenceCostModel:
    """Call-by-call closed-form memory cost with page-granular warmth."""

    def __init__(self, config: MachineConfig, n_rows: int, mem_bytes: int):
        m = config.mem
        self._line_bytes = m.l1.line_bytes
        self._line_shift = m.l1.line_bytes.bit_length() - 1
        self._page_shift = m.tlb.page_bytes.bit_length() - 1
        self._l1_ns = m.l1.hit_ns
        self._l2_ns = m.l2.hit_ns
        self._dram_ns = m.dram_ns
        self._stream_ns = m.dram_stream_ns
        self._walk_ns = m.tlb.walk_ns
        self._l1_bytes = m.l1.size_bytes
        self._l2_bytes = m.l2.size_bytes
        n_pages = -(-mem_bytes // m.tlb.page_bytes)
        self._touched = np.zeros((n_rows, max(n_pages, 1)), dtype=bool)

    def _mark(self, rows: np.ndarray, first_page: np.ndarray,
              pages: np.ndarray) -> None:
        touched = self._touched
        touched[rows, first_page] = True  # a span covers its first page
        for k in range(1, int(pages.max())):
            m = pages > k
            touched[rows[m], first_page[m] + k] = True

    def range_ns(self, rows: np.ndarray, addrs: np.ndarray, span: int,
                 use_tlb: bool = True) -> np.ndarray:
        """Per-lane ns for a dense sweep of ``span`` bytes at ``addrs``."""
        if span <= 0:
            return np.zeros(len(rows))
        last = addrs + (span - 1)
        lines = (last >> self._line_shift) - (addrs >> self._line_shift) + 1
        first_page = addrs >> self._page_shift
        pages = (last >> self._page_shift) - first_page + 1
        warm = self._touched[rows, first_page]
        cold = lines * (self._l1_ns + self._l2_ns + self._stream_ns)
        if use_tlb:
            cold = cold + pages * self._walk_ns
        if span <= self._l1_bytes:
            warm_per_line = self._l1_ns
        elif span <= self._l2_bytes:
            warm_per_line = self._l1_ns + self._l2_ns
        else:
            warm_per_line = self._l1_ns + self._l2_ns + self._stream_ns
        ns = np.where(warm, lines * warm_per_line, cold)
        self._mark(rows, first_page, pages)
        return ns

    def strided_ns(self, rows: np.ndarray, addrs: np.ndarray, nelems: int,
                   elem_bytes: int, stride: int,
                   use_tlb: bool = True) -> np.ndarray:
        """Per-lane ns for a strided access (put/get side cost)."""
        if nelems <= 0:
            return np.zeros(len(rows))
        step = elem_bytes * max(stride, 1)
        span = (nelems - 1) * step + elem_bytes
        if step <= self._line_bytes:
            return self.range_ns(rows, addrs, span, use_tlb)
        # Sparse: one line (and, cold, one DRAM access) per element.
        last = addrs + (span - 1)
        first_page = addrs >> self._page_shift
        pages = (last >> self._page_shift) - first_page + 1
        warm = self._touched[rows, first_page]
        cold = nelems * (self._l1_ns + self._l2_ns + self._dram_ns)
        if use_tlb:
            cold = cold + pages * self._walk_ns
        ns = np.where(warm, nelems * self._l1_ns, cold)
        self._mark(rows, first_page, pages)
        return ns
