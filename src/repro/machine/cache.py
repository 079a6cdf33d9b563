"""Set-associative, write-back, write-allocate cache with exact LRU.

Geometry comes from :class:`repro.params.CacheParams`; the paper's cores
use 8-way L1 (16 KB) and L2 (8 MB) caches with 64-byte lines.  The model
tracks tags only — data lives in the functional
:class:`repro.isa.memory.Memory`.

State is two ``[n_sets, ways]`` int64 arrays and one counter:

* ``_tags[s, w]`` — ``tag + 1`` of the line in way ``w`` of set ``s``,
  0 for an empty way.
* ``_keys[s, w]`` — ``(stamp << 1) | dirty``, where ``stamp`` is the
  value of ``_clock`` when the way was last touched; 0 for an empty way.
  Within a set a larger key is a more recent use, so the LRU victim is
  the way with the smallest key — and an empty way, at 0, is always
  taken first.  The dirty bit rides in the key so that choosing a victim
  also says whether it writes back.

Both sit on anonymous ``mmap`` pages, which the kernel hands out zeroed
and unbacked: an 8 MB L2 (2 MiB of state) costs no memory until lines
land in it.  ``np.zeros`` only does that for the first few caches of a
process — once a large array has been freed glibc serves the next from
the heap and ``calloc`` clears it by hand, and a run that builds a fresh
machine per job (the serve oracle) then pays 16 MiB per live 8-PE
machine.

Three lookup granularities share that state:

* :meth:`Cache.access` — one line, through memoryviews of the arrays
  (no numpy on this path; it is the GUPs hot path and the reference the
  batch paths are tested against).  Its :meth:`Cache.touch` first tries
  a hint, the flat slot it last found or put the line in, and scans the
  set's row only when that slot no longer holds the line's tag — which
  is exact, since a tag is unique within a set.  The batch paths do not
  keep the hints, so theirs go stale and are caught by that test; the
  hint map starts over once it holds ``min(n_lines, 2048)`` lines.
* :meth:`Cache.access_run` — consecutive lines.  Accesses to different
  sets touch disjoint rows and so commute; only the order *within* a set
  matters.  A run is therefore cut where the tag changes, each piece
  holds one line in each of ≤ ``n_sets`` consecutive sets, and a piece
  is one round of the batch primitive :meth:`Cache._touch_sets` (compare,
  find the hit way or the smallest key, scatter).  Pieces are issued in
  ascending order, which is the per-set access order, so the result is
  exact.  Two shapes skip the rounds: a run that gives every set
  ``ways`` lines and finds no resident tag among the first ``ways`` of
  any set's sequence misses throughout and is written in closed form
  (:meth:`Cache._overwrite`; most long L1 runs of NAS IS), and a
  one-round run repeated while the slots it was last seen in still hold
  its tag is one round of hits (:meth:`Cache._rehit`).
* :meth:`Cache.access_lines` — ascending distinct lines, not contiguous:
  round ``r`` takes the ``r``-th line of every set.

Runs too short to repay numpy's per-call cost loop :meth:`Cache.access`.
Every path leaves identical counters and an identical
:meth:`Cache.lru_state`.
"""

from __future__ import annotations

import enum
import mmap
import struct

import numpy as np

from ..params import CacheParams

__all__ = ["CacheLevelResult", "Cache", "SCALAR_CUTOVER"]

#: Batches of fewer lines than this go line by line, here and in
#: :class:`~repro.machine.memsys.MemoryHierarchy`.  Measured on the
#: reference host with n-line runs at paper geometry: a cache round is
#: 5.0 us (all hits) to 7.3 us (all misses) + 10-25 ns/line against
#: 0.41-1.1 us/line for the scalar touch, crossing at 9 lines (hits) and
#: 5 (misses); a whole ``access_range`` of 8 lines costs 5.9 / 15.0 /
#: 21.5 us line by line (L1 hits / L2 hits / misses) against 6.4 / 13.2 /
#: 17.2 us batched, and the gap widens either side.  The 1-2 line
#: accesses of small collectives stay scalar; NAS IS runs (~1000 lines)
#: batch.
SCALAR_CUTOVER = 8

#: Most runs a cache's :meth:`Cache._rehit` hint holds before it starts
#: over (an 8-PE NAS IS cache holds up to 28), as int32 slots.
_HINT_RUNS = 32

#: Most entries a cache's :meth:`Cache.touch` hint holds (the L1's whole
#: 256 lines at paper geometry, a working set's worth of the L2's): about
#: 0.1 KiB each, so 16 caches of an 8-PE machine stay under 4 MiB.
_HINT_LINES = 2048

_NO_ROWS = np.empty(0, dtype=np.intp)


def _zero_pages(n_sets: int, ways: int) -> np.ndarray:
    """An all-zero int64 ``[n_sets, ways]`` array on untouched pages
    (see the module docstring); unmapped when the array is dropped."""
    buf = mmap.mmap(-1, 8 * n_sets * ways)
    return np.frombuffer(buf, dtype=np.int64).reshape(n_sets, ways)


class CacheLevelResult(enum.Enum):
    """Outcome of one cache lookup."""

    HIT = "hit"
    MISS = "miss"


class Cache:
    """One cache level.

    Lookups operate on *line addresses* (byte address >> line shift); the
    :class:`~repro.machine.memsys.MemoryHierarchy` splits byte ranges into
    lines before consulting the cache.
    """

    def __init__(self, params: CacheParams):
        self.params = params
        self.line_shift = params.line_bytes.bit_length() - 1
        if (1 << self.line_shift) != params.line_bytes:
            raise ValueError("cache line size must be a power of two")
        self.n_sets = params.n_sets
        self.ways = params.ways
        self._read_row = struct.Struct(f"{self.ways}q").unpack_from
        #: Entries the touch hint may hold before it starts over.
        self._hint_cap = min(params.n_lines, _HINT_LINES)
        self._way_index = np.arange(self.ways)
        self._clear()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _clear(self) -> None:
        self._tags = _zero_pages(self.n_sets, self.ways)
        self._keys = _zero_pages(self.n_sets, self.ways)
        # Flat views for the scalar path: element reads and writes on a
        # memoryview cost a fraction of numpy scalar indexing.
        self._flat_tags = self._tags.reshape(-1)
        self._flat_keys = self._keys.reshape(-1)
        self._tag_mv = memoryview(self._flat_tags)
        self._key_mv = memoryview(self._flat_keys)
        self._clock = 0
        #: line -> the flat slot :meth:`touch` last found or put it in.
        self._hint: dict[int, int] = {}
        #: (first line, n lines) -> the flat slots a one-round run's
        #: lines were last found or put in.
        self._run_hint: dict[tuple[int, int], np.ndarray] = {}

    def line_of(self, addr: int) -> int:
        """Line address containing byte address ``addr``."""
        return addr >> self.line_shift

    # -- one line -------------------------------------------------------------

    def access(self, line: int, write: bool) -> CacheLevelResult:
        """Look up ``line``; allocate it on miss (write-allocate).

        Returns HIT or MISS.  A dirty eviction increments ``writebacks``
        (charged by the hierarchy as an extra memory-side transfer).
        """
        if self.touch(line, write):
            return CacheLevelResult.HIT
        return CacheLevelResult.MISS

    def touch(self, line: int, write: bool) -> bool:
        """:meth:`access` returning a plain ``True`` on hit."""
        stored = line // self.n_sets + 1
        keys = self._key_mv
        at = self._hint.get(line)
        # The hint is the flat slot this path last saw the line in.  It
        # is exact when that slot still holds the line's stored tag: the
        # slot lies in the line's set, and a tag is unique within a set.
        if at is not None and self._tag_mv[at] == stored:
            self._clock = clock = self._clock + 1
            self.hits += 1
            keys[at] = (clock << 1) | write | (keys[at] & 1)
            return True
        tags = self._tag_mv
        hint = self._hint
        at = line % self.n_sets * self.ways
        read_row = self._read_row
        row = read_row(tags, at << 3)
        self._clock = clock = self._clock + 1
        if len(hint) >= self._hint_cap:
            hint.clear()
        if stored in row:
            self.hits += 1
            at += row.index(stored)
            keys[at] = (clock << 1) | write | (keys[at] & 1)
            hint[line] = at
            return True
        self.misses += 1
        if row[-1]:
            # Ways fill from 0 up, so this is a full set except after
            # a partial fill elsewhere — and then an empty way holds the
            # smallest key, 0.  Either way the smallest key is the way
            # to replace and its low bit says whether it writes back.
            krow = read_row(keys, at << 3)
            victim = min(krow)
            if victim & 1:
                self.writebacks += 1
            at += krow.index(victim)
        else:
            at += row.index(0)
        tags[at] = stored
        keys[at] = (clock << 1) | write
        hint[line] = at
        return False

    # -- batches --------------------------------------------------------------

    def _touch_sets(self, sets, stored, write: bool,
                    hint: tuple[int, int] | None = None) -> np.ndarray:
        """Touch one line in each of k distinct sets.

        ``sets`` is a slice of consecutive sets with ``stored`` their one
        common stored tag, or an index array with ``stored`` the array of
        per-set stored tags.  Returns the positions (0..k-1) that missed.
        With a ``hint`` key (slices only) the flat slots now holding the
        lines are kept for :meth:`_rehit`.
        """
        contiguous = isinstance(sets, slice)
        tags = self._tags[sets]  # views for a slice, copies for indices
        keys = self._keys[sets]
        flat_tags = tags.reshape(-1)
        flat_keys = keys.reshape(-1)
        k = len(tags)
        ways = self.ways
        self._clock += 1
        stamp = (self._clock << 1) | write
        # Tags are unique within a set and never 0: at most one match a row.
        hit_at = np.flatnonzero(tags == (stored if contiguous else stored[:, None]))
        n_hit = len(hit_at)
        if n_hit:
            flat_keys[hit_at] = stamp if write else (flat_keys[hit_at] & 1) | stamp
        missed = _NO_ROWS
        if n_hit < k:
            if n_hit:
                is_miss = np.ones(k, dtype=bool)
                is_miss[hit_at // ways] = False
                missed = np.flatnonzero(is_miss)
                fill_at = missed * ways + keys[missed].argmin(axis=1)
            else:
                missed = np.arange(k)
                fill_at = missed * ways + keys.argmin(axis=1)
            self.writebacks += int(np.count_nonzero(flat_keys[fill_at] & 1))
            flat_tags[fill_at] = stored if contiguous else stored[missed]
            flat_keys[fill_at] = stamp
        if not contiguous:
            self._tags[sets] = tags
            self._keys[sets] = keys
        elif hint is not None:
            if len(self._run_hint) >= _HINT_RUNS:
                self._run_hint.clear()
            found = np.concatenate((hit_at, fill_at)) if n_hit < k else hit_at
            self._run_hint[hint] = (found + sets.start * ways).astype(np.int32)
        self.hits += n_hit
        self.misses += k - n_hit
        return missed

    def _rehit(self, slots: np.ndarray, stored: int, write: bool) -> bool:
        """Touch a one-round run again through the ``slots`` it was last
        seen in, if each still holds the run's one stored tag (then each
        holds its line, since a tag is unique within its set): one round
        of all hits.  Returns False, with nothing changed, if not."""
        if not (self._flat_tags.take(slots) == stored).all():
            return False
        keys = self._flat_keys
        self._clock += 1
        stamp = (self._clock << 1) | write
        keys.put(slots, stamp if write else (keys.take(slots) & 1) | stamp)
        self.hits += len(slots)
        return True

    def _overwrite(self, first_line: int, n_lines: int, write: bool) -> bool:
        """Apply a run of at least ``n_sets * ways`` lines in closed form
        if its first ``ways`` lines in every set miss; return False, with
        nothing changed, if not.

        Those misses evict every resident line (and write back the dirty
        ones), so every later line is new too: the run misses throughout,
        a write run pushes out all but the last ``ways`` of its own lines
        in each set, and those stay, oldest in way 0.  Line ``l`` is
        stamped in round ``l // n_sets - first_line // n_sets``, as the
        rounds would stamp it.
        """
        n_sets = self.n_sets
        ways = self.ways
        tags = self._tags
        keys = self._keys
        first = first_line // n_sets + 1
        # A set's sequence starts at tag ``first``, or one later for the
        # sets the run reaches only after wrapping; empty ways (tag 0)
        # come out negative, hence huge unsigned.
        ahead = tags - first
        ahead[:first_line % n_sets] -= 1
        if (ahead.view(np.uint64) < ways).any():
            return False
        last_line = first_line + n_lines - 1
        last = last_line // n_sets + 1
        self.misses += n_lines
        self.writebacks += int(np.count_nonzero(keys & 1))
        if write:
            self.writebacks += n_lines - n_sets * ways
        np.add(self._way_index, last - ways + 1, out=tags)
        tags[last_line % n_sets + 1:] -= 1
        np.add(tags, self._clock + 1 - first, out=keys)
        keys <<= 1
        if write:
            keys |= 1
        self._clock += last - first + 1
        return True

    def _touch_each(self, lines, write: bool) -> list[int]:
        """Scalar loop over ``lines``; returns the ones that missed."""
        touch = self.touch
        return [line for line in lines if not touch(line, write)]

    def access_run(
        self,
        first_line: int,
        n_lines: int,
        write: bool,
        collect_missed: bool = False,
    ) -> tuple[int, int, np.ndarray | None]:
        """Look up the sequential lines ``[first_line, first_line+n_lines)``.

        Equivalent to calling :meth:`access` once per line in ascending
        order — same hit/miss/writeback counters, same final LRU state.
        With ``collect_missed`` the third element is the ascending array
        of line addresses that missed, or ``None`` when every line hit
        or every line missed; the hierarchy uses it to feed exactly the
        L1-missing lines to L2.
        """
        if n_lines <= 0:
            return 0, 0, None
        n_sets = self.n_sets
        end = first_line + n_lines
        if n_lines >= n_sets * self.ways and self._overwrite(
                first_line, n_lines, write):
            return 0, n_lines, None
        if min(n_lines, n_sets) < SCALAR_CUTOVER:
            parts = [self._touch_each(range(first_line, end), write)]
            misses = len(parts[0])
        else:
            hint = None
            if n_lines <= n_sets - first_line % n_sets:
                # One round, one stored tag: re-hit its slots or keep them.
                hint = (first_line, n_lines)
                slots = self._run_hint.get(hint)
                if slots is not None and self._rehit(
                        slots, first_line // n_sets + 1, write):
                    return n_lines, 0, None
            misses = 0
            parts = []
            line = first_line
            while line < end:
                set_idx = line % n_sets
                k = min(end - line, n_sets - set_idx)
                rows = self._touch_sets(slice(set_idx, set_idx + k),
                                        line // n_sets + 1, write, hint)
                misses += len(rows)
                if collect_missed and len(rows):
                    parts.append(rows + line)
                line += k
        if collect_missed and 0 < misses < n_lines:
            return n_lines - misses, misses, np.concatenate(parts)
        return n_lines - misses, misses, None

    def access_lines(self, lines: np.ndarray, write: bool) -> tuple[int, int]:
        """Look up an ascending array of distinct line addresses.

        Equivalent to per-line :meth:`access` calls in array order.  Used
        for the (possibly non-contiguous) subset of a run that missed L1
        and must be charged to L2.
        """
        total = len(lines)
        if total == 0:
            return 0, 0
        n_sets = self.n_sets
        if min(total, n_sets) < SCALAR_CUTOVER:
            misses = len(self._touch_each(lines.tolist(), write))
            return total - misses, misses
        sets = lines % n_sets
        stored = lines // n_sets + 1
        if lines[-1] - lines[0] < n_sets:
            misses = len(self._touch_sets(sets, stored, write))
            return total - misses, misses
        # Round r holds the r-th (ascending) line of every set.
        order = np.argsort(sets, kind="stable")
        in_order = sets[order]
        position = np.arange(total)
        group_start = np.maximum.accumulate(
            np.where(np.r_[True, in_order[1:] != in_order[:-1]], position, 0))
        nth = position - group_start
        misses = 0
        for r in range(int(nth.max()) + 1):
            sel = order[nth == r]
            misses += len(self._touch_sets(sets[sel], stored[sel], write))
        return total - misses, misses

    # -- inspection -------------------------------------------------------------

    def probe(self, line: int) -> bool:
        """Non-destructive presence check (no LRU update, no stats)."""
        set_idx = line % self.n_sets
        row = self._read_row(self._tag_mv, set_idx * self.ways << 3)
        return line // self.n_sets + 1 in row

    def lru_state(self) -> dict[int, list[tuple[int, bool]]]:
        """``{set: [(tag, dirty), ...]}``, most recent first, for every
        non-empty set."""
        state = {}
        for s in np.flatnonzero(self._tags.any(axis=1)).tolist():
            by_recency = sorted(
                zip(self._keys[s].tolist(), self._tags[s].tolist()),
                reverse=True)
            state[s] = [(stored - 1, bool(key & 1))
                        for key, stored in by_recency if stored]
        return state

    def invalidate_all(self) -> int:
        """Drop every line; returns how many dirty lines were discarded."""
        dirty = int(np.count_nonzero(self._keys & 1))
        self._clear()
        return dirty

    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        return int(np.count_nonzero(self._tags))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        p = self.params
        return (
            f"Cache({p.size_bytes >> 10} KiB, {p.ways}-way, "
            f"{p.line_bytes} B lines, hits={self.hits}, misses={self.misses})"
        )
