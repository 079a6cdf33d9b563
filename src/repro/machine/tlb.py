"""Fully-associative LRU TLB (256 entries, 4 KB pages in the paper)."""

from __future__ import annotations

from ..params import TlbParams

__all__ = ["Tlb"]


class Tlb:
    """Translation look-aside buffer.

    Exploits Python dict insertion order for O(1) LRU: a hit re-inserts
    the page at the back; a miss evicts the front (oldest) entry.  A hit
    on the page already at the back moves nothing.
    """

    def __init__(self, params: TlbParams):
        self.params = params
        self.page_shift = params.page_bytes.bit_length() - 1
        self._entries: dict[int, None] = {}
        #: The most recent page (the last key of ``_entries``), or None.
        #: Read-only outside this class: a hit on it moves nothing, so a
        #: caller may test it inline and count the hit itself.
        self.mru: int | None = None
        self.hits = 0
        self.misses = 0

    def page_of(self, addr: int) -> int:
        return addr >> self.page_shift

    def access(self, page: int) -> bool:
        """Touch ``page``; returns True on hit, False on miss (then fills)."""
        if page == self.mru:
            self.hits += 1
            return True
        self.mru = page
        entries = self._entries
        if page in entries:
            self.hits += 1
            del entries[page]  # re-insert at the back = most recent
            entries[page] = None
            return True
        self.misses += 1
        if len(entries) >= self.params.entries:
            oldest = next(iter(entries))
            del entries[oldest]
        entries[page] = None
        return False

    def access_run(self, first_page: int, n_pages: int) -> tuple[int, int]:
        """Touch the sequential pages ``[first_page, first_page+n_pages)``.

        Equivalent to one :meth:`access` per page in ascending order,
        with the per-page call overhead and branchy stat updates hoisted
        out of the loop.  Only the first ``entries`` pages are walked:
        by then the TLB holds nothing but the run's pages before the
        next one, which are distinct from it, so every later page
        misses and the run's last ``entries`` pages end up resident,
        oldest first.  Returns ``(hits, misses)``; stats are updated.
        """
        entries = self._entries
        capacity = self.params.entries
        hits = 0
        end = first_page + n_pages
        for page in range(first_page, min(end, first_page + capacity)):
            if page in entries:
                hits += 1
                del entries[page]
                entries[page] = None
            else:
                if len(entries) >= capacity:
                    del entries[next(iter(entries))]
                entries[page] = None
        if n_pages > capacity:
            self._entries = dict.fromkeys(range(end - capacity, end))
        if n_pages > 0:
            self.mru = end - 1
        misses = n_pages - hits
        self.hits += hits
        self.misses += misses
        return hits, misses

    def probe(self, page: int) -> bool:
        """Presence check without touching LRU order or stats."""
        return page in self._entries

    def flush(self) -> None:
        self._entries.clear()
        self.mru = None

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tlb({self.params.entries} entries, hits={self.hits}, "
            f"misses={self.misses})"
        )
