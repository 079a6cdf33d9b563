"""Symmetric-heap allocation (Figure 2 of the paper).

The SHMEM-style memory model gives every PE a private segment and a
shared segment; allocations in the shared segment are *collective* —
every PE executes the same ``xbrtime_malloc`` call and receives the same
offset from the beginning of its shared segment, keeping the shared
segments of all PEs fully symmetric.

The pieces:

* :func:`segment_layout` — the Figure-2 address map of one PE, the one
  place the private / scratch / symmetric-heap boundaries are computed;
  every backend builds its allocators from it, and
  :func:`check_footprint` refuses a program that would not fit it
  before any PE starts.
* :class:`FreeListAllocator` — a first-fit free-list allocator with
  coalescing, also used for each PE's private segment.
* :class:`SymmetricHeap` — wraps one allocator with a *collective call
  log*: the first PE to reach the N-th allocation call performs it; the
  remaining PEs replay the logged result (and the arguments are checked,
  which catches divergent, non-collective usage).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from ..errors import AllocationError, CollectiveArgumentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..params import MachineConfig

__all__ = ["CODE_REGION_BYTES", "SegmentLayout", "segment_layout",
           "check_footprint", "FreeListAllocator", "SymmetricHeap",
           "ScratchStack"]

#: Low memory reserved for generated code in ``isa`` fidelity.
CODE_REGION_BYTES = 64 * 1024


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


class FreeListAllocator:
    """First-fit free-list allocator over ``[base, base + size)``.

    Blocks are coalesced on free.  Alignment padding is absorbed into the
    allocated block so ``free`` needs only the address ``alloc`` returned.

    LIFO use is the common case — a collective's private buffers are
    allocated and freed around every call — and costs no scan.  Every
    ``alloc`` records how it split its free run; freeing the most
    recent block undoes that split, which restores exactly the free list
    the ``alloc`` started from (free runs are never adjacent, so the
    coalescing ``free`` would rebuild the same run).  An ``alloc`` from
    that restored list, of the size and alignment the undone one had,
    redoes the split: first fit would choose the same block.
    """

    def __init__(self, base: int, size: int):
        if size <= 0:
            raise AllocationError("allocator size must be positive")
        self.base = base
        self.size = size
        #: Sorted list of (start, length) free runs.
        self._free: list[tuple[int, int]] = [(base, size)]
        #: addr returned by alloc -> its allocation, ``(addr, nbytes,
        #: align, i, run, split)``: it split free run ``run``, then
        #: ``_free[i]``, into the list of runs ``split``.
        self._allocated: dict[int, tuple] = {}
        #: The allocations made since the last out-of-order free and not
        #: yet freed, most recent last.
        self._undo: list[tuple] = []
        #: The allocations the most recent LIFO frees undid, the latest
        #: last; the last one can be redone as long as nothing else
        #: changed the free list since.
        self._redo: list[tuple] = []

    @property
    def bytes_free(self) -> int:
        return sum(length for _, length in self._free)

    @property
    def bytes_allocated(self) -> int:
        return self.size - self.bytes_free

    @property
    def n_allocations(self) -> int:
        return len(self._allocated)

    def alloc(self, nbytes: int, align: int = 16) -> int:
        """Allocate ``nbytes`` with the given alignment; returns address."""
        redo = self._redo
        if redo and redo[-1][1] == nbytes and redo[-1][2] == align:
            entry = redo.pop()
            addr, _, _, i, _, split = entry
        else:
            entry = self._first_fit(nbytes, align)
            addr, _, _, i, _, split = entry
            redo.clear()
        self._free[i:i + 1] = split
        self._allocated[addr] = entry
        self._undo.append(entry)
        return addr

    def _first_fit(self, nbytes: int, align: int) -> tuple:
        """The undo entry of allocating ``nbytes`` from the first free
        run that fits."""
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        if align <= 0 or align & (align - 1):
            raise AllocationError(f"alignment must be a power of two, got {align}")
        for i, run in enumerate(self._free):
            start, length = run
            addr = _align_up(start, align)
            pad = addr - start
            need = pad + nbytes
            if need <= length:
                remaining = length - need
                # Keep any prefix pad as free space only if it is large
                # enough to be useful; otherwise absorb it into the block.
                if pad >= 16:
                    split = [(start, pad)]
                else:
                    split = []
                if remaining > 0:
                    split.append((start + need, remaining))
                return (addr, nbytes, align, i, run, split)
        raise AllocationError(
            f"out of memory: need {nbytes} B (align {align}), "
            f"{self.bytes_free} B free but fragmented or insufficient"
        )

    def free(self, addr: int) -> None:
        """Release a block previously returned by :meth:`alloc`."""
        try:
            entry = self._allocated.pop(addr)
        except KeyError:
            raise AllocationError(
                f"free of unallocated address {addr:#x}"
            ) from None
        undo = self._undo
        if undo and undo[-1] is entry:
            undo.pop()
            _, _, _, i, run, split = entry
            self._free[i:i + len(split)] = [run]
            self._redo.append(entry)
            return
        undo.clear()
        self._redo.clear()
        start, length = self._block(entry)
        # Insert in sorted position and coalesce with neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (start, length))
        self._coalesce(lo)

    @staticmethod
    def _block(entry: tuple) -> tuple[int, int]:
        """``(block_start, block_length)`` of an allocation: the pad
        before ``addr`` belongs to it unless the pad was kept free."""
        addr, nbytes, _, _, run, _ = entry
        start = run[0]
        if addr - start >= 16:
            return addr, nbytes
        return start, addr - start + nbytes

    def _coalesce(self, i: int) -> None:
        # Merge with the next block, then with the previous one.
        if i + 1 < len(self._free):
            s, ln = self._free[i]
            s2, ln2 = self._free[i + 1]
            if s + ln == s2:
                self._free[i] = (s, ln + ln2)
                del self._free[i + 1]
        if i > 0:
            s0, ln0 = self._free[i - 1]
            s, ln = self._free[i]
            if s0 + ln0 == s:
                self._free[i - 1] = (s0, ln0 + ln)
                del self._free[i]

    def owns(self, addr: int) -> bool:
        return addr in self._allocated

    def size_of(self, addr: int) -> int:
        try:
            return self._block(self._allocated[addr])[1]
        except KeyError:
            raise AllocationError(f"{addr:#x} is not allocated") from None


class SymmetricHeap:
    """The shared segment's collective allocator.

    All PEs share one :class:`FreeListAllocator`; the per-call log makes
    ``malloc``/``free`` idempotent across the PEs of a collective call so
    each PE observes the same address (the "same offset from the
    beginning of the shared segment" guarantee of section 3.3).
    """

    def __init__(self, base: int, size: int, n_pes: int):
        self.base = base
        self.size = size
        self.n_pes = n_pes
        self._alloc = FreeListAllocator(base, size)
        #: (op, args, result) per collective call index.
        self._log: list[tuple[str, tuple, int | None]] = []

    def collective_malloc(self, call_index: int, nbytes: int, align: int = 16) -> int:
        """The ``call_index``-th heap call of one PE, as a malloc."""
        return self._collective(call_index, "malloc", (nbytes, align))

    def collective_free(self, call_index: int, addr: int) -> None:
        self._collective(call_index, "free", (addr,))

    def _collective(self, idx: int, op: str, args: tuple) -> int | None:
        if idx < len(self._log):
            logged_op, logged_args, result = self._log[idx]
            if (logged_op, logged_args) != (op, args):
                raise AllocationError(
                    f"divergent collective heap call #{idx}: this PE issued "
                    f"{op}{args} but another PE issued {logged_op}{logged_args} "
                    "(xbrtime_malloc/free must be called collectively)"
                )
            return result
        if idx != len(self._log):
            raise AllocationError(
                f"heap call #{idx} arrived before call #{len(self._log)}"
            )
        if op == "malloc":
            result: int | None = self._alloc.alloc(*args)
        else:
            self._alloc.free(*args)
            result = None
        self._log.append((op, args, result))
        return result

    @property
    def bytes_free(self) -> int:
        return self._alloc.bytes_free

    @property
    def bytes_allocated(self) -> int:
        return self._alloc.bytes_allocated


class ScratchStack:
    """Per-PE symmetric scratch area (the SHMEM ``pWrk``/``pSync`` idea).

    Collectives need scratch buffers that partners can address remotely,
    i.e. at the same address on every *participant* — but team
    collectives cannot use the collective heap, which requires all PEs.
    Instead every PE carries this bump stack at an identical base
    address: participants of one collective push identical sizes in the
    same order, so corresponding allocations land at identical
    addresses even when disjoint teams run concurrently.

    Frees must be LIFO (enforced).
    """

    def __init__(self, base: int, size: int):
        if size <= 0:
            raise AllocationError("scratch size must be positive")
        self.base = base
        self.size = size
        self._top = base
        self._stack: list[tuple[int, int]] = []  # (addr, padded size)

    @property
    def bytes_used(self) -> int:
        return self._top - self.base

    @property
    def depth(self) -> int:
        return len(self._stack)

    def alloc(self, nbytes: int, align: int = 16) -> int:
        if nbytes <= 0:
            raise AllocationError(
                f"scratch allocation must be positive, got {nbytes}"
            )
        addr = _align_up(self._top, align)
        end = addr + nbytes
        if end > self.base + self.size:
            raise AllocationError(
                f"collective scratch exhausted: need {nbytes} B, "
                f"{self.base + self.size - self._top} B left "
                "(raise MachineConfig.collective_scratch_bytes)"
            )
        self._stack.append((addr, end - self._top))
        self._top = end
        return addr

    def free(self, addr: int) -> None:
        if not self._stack:
            raise AllocationError("scratch free with empty stack")
        top_addr, padded = self._stack[-1]
        if addr != top_addr:
            raise AllocationError(
                f"scratch frees must be LIFO: freeing {addr:#x} but top of "
                f"stack is {top_addr:#x}"
            )
        self._stack.pop()
        self._top -= padded


class SegmentLayout(NamedTuple):
    """One PE's address map (Figure 2), identical on every PE::

        [CODE_REGION_BYTES, heap_base)            private segment
        [heap_base, heap_base + scratch_bytes)    collective scratch stack
        [heap_base + scratch_bytes, memory end)   collective symmetric heap
    """

    #: Start of the shared segment (scratch + collective heap).
    heap_base: int
    scratch_bytes: int
    heap_bytes: int

    def scratch_stack(self) -> ScratchStack:
        return ScratchStack(self.heap_base, self.scratch_bytes)

    def symmetric_heap(self, n_pes: int) -> SymmetricHeap:
        return SymmetricHeap(self.heap_base + self.scratch_bytes,
                             self.heap_bytes, n_pes)

    @property
    def private_bytes(self) -> int:
        return self.heap_base - CODE_REGION_BYTES

    def private_allocator(self) -> FreeListAllocator:
        return FreeListAllocator(CODE_REGION_BYTES, self.private_bytes)


def segment_layout(config: "MachineConfig") -> SegmentLayout:
    """The Figure-2 layout of ``config`` — shared by every backend."""
    scratch = config.collective_scratch_bytes
    return SegmentLayout(
        heap_base=config.memory_bytes_per_pe - config.symmetric_heap_bytes,
        scratch_bytes=scratch,
        heap_bytes=config.symmetric_heap_bytes - scratch,
    )


def check_footprint(config: "MachineConfig", what: str,
                    heap: Iterable[int], private: Iterable[int] = ()) -> None:
    """Refuse a program whose live allocations do not fit one PE.

    ``heap`` and ``private`` are the byte sizes a PE holds at once in its
    symmetric heap and its private segment; each is padded to the
    allocators' 16-byte alignment.  Raises
    :class:`~repro.errors.CollectiveArgumentError` naming what is needed
    and what ``config`` has, so a benchmark can refuse a class that does
    not fit before any PE starts, not fail inside one.
    """
    layout = segment_layout(config)
    for segment, sizes, have in (
            ("symmetric heap", heap, layout.heap_bytes),
            ("private segment", private, layout.private_bytes)):
        need = sum(_align_up(n, 16) for n in sizes)
        if need > have:
            raise CollectiveArgumentError(
                f"{what} needs {need} B of {segment} per PE but the "
                f"configuration has {have} B"
            )
