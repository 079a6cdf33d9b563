"""Per-PE byte-addressable memory, numpy-backed.

Functional state only — access *timing* is the job of
:class:`repro.machine.memsys.MemoryHierarchy`.  Little-endian, like
RISC-V.  Besides scalar load/store the class exposes zero-copy numpy
views (optionally strided) that the runtime's bulk-transfer engine and
user programs use for vectorised work.
"""

from __future__ import annotations

import mmap

import numpy as np

from ..errors import AddressError

__all__ = ["Memory"]

MASK64 = (1 << 64) - 1
#: ``memoryview`` formats of the unsigned words :meth:`Memory.words` casts to.
_WORD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _zeroed(size: int) -> np.ndarray:
    """``size`` zero bytes, resident only where touched.

    A simulated memory is large and sparsely used (a few pages in each
    segment), so it is its own anonymous mapping kept out of transparent
    huge pages: where numpy would ask for them, every touched page could
    make a whole 2 MiB resident, as many as the mapping's alignment
    allows — a peak RSS that moves with the address layout.
    """
    block = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux
        block.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(block, dtype=np.uint8)


class Memory:
    """A flat little-endian memory of ``size`` bytes.

    ``buf`` wraps an existing 1-D ``uint8`` array instead of allocating
    (a shared-memory segment, a row of the vec backend's matrix): the
    memory then aliases it, so stores are visible to every other holder.
    """

    def __init__(self, size: int | None = None, *,
                 buf: np.ndarray | None = None):
        if buf is None:
            if size is None or size <= 0:
                raise AddressError("memory size must be positive")
            buf = _zeroed(size)
        elif buf.dtype != np.uint8 or buf.ndim != 1 or buf.size == 0:
            raise AddressError("a wrapped buffer must be a non-empty 1-D "
                               "uint8 array")
        self.size = buf.size
        self.buf = buf
        #: dtype -> the whole memory as an array of it (see ``view``).
        self._typed: dict[np.dtype, np.ndarray] = {}
        #: width -> the whole memory as words of it (see ``words``).
        self._words: dict[int, memoryview | None] = {}

    # -- bounds ---------------------------------------------------------------

    def check(self, addr: int, nbytes: int) -> None:
        """Raise :class:`AddressError` unless [addr, addr+nbytes) is valid."""
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise AddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside memory "
                f"of {self.size:#x} bytes"
            )

    # -- scalar load/store ------------------------------------------------------

    def load(self, addr: int, nbytes: int, signed: bool = False) -> int:
        """Load an integer of 1/2/4/8 bytes (little-endian)."""
        if nbytes not in (1, 2, 4, 8):
            raise AddressError(f"unsupported scalar width {nbytes}")
        self.check(addr, nbytes)
        raw = self.buf[addr : addr + nbytes].tobytes()
        return int.from_bytes(raw, "little", signed=signed)

    def store(self, addr: int, nbytes: int, value: int) -> None:
        """Store the low ``nbytes`` bytes of ``value`` (little-endian)."""
        if nbytes not in (1, 2, 4, 8):
            raise AddressError(f"unsupported scalar width {nbytes}")
        self.check(addr, nbytes)
        value &= (1 << (8 * nbytes)) - 1
        self.buf[addr : addr + nbytes] = np.frombuffer(
            value.to_bytes(nbytes, "little"), dtype=np.uint8
        )

    # -- bulk access ------------------------------------------------------------

    def read_bytes(self, addr: int, nbytes: int) -> np.ndarray:
        """A read-only *view* of ``nbytes`` bytes at ``addr``."""
        self.check(addr, nbytes)
        v = self.buf[addr : addr + nbytes]
        v.flags.writeable = False
        return v

    def write_bytes(self, addr: int, data: np.ndarray | bytes) -> None:
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else np.asarray(data, dtype=np.uint8)
        self.check(addr, arr.size)
        self.buf[addr : addr + arr.size] = arr

    def view(
        self,
        addr: int,
        dtype: np.dtype | str,
        count: int,
        stride: int = 1,
    ) -> np.ndarray:
        """A writable numpy view of ``count`` elements of ``dtype`` at
        ``addr``, ``stride`` elements apart (stride 1 = dense).

        The view aliases memory: writes through it are stores.
        """
        dt = np.dtype(dtype)
        if count < 0:
            raise AddressError("count must be non-negative")
        if stride < 1:
            raise AddressError(f"stride must be >= 1, got {stride}")
        if count == 0:
            return np.empty(0, dtype=dt)
        width = dt.itemsize
        reach = (count - 1) * stride + 1
        span = reach * width
        self.check(addr, span)
        first, misaligned = divmod(addr, width)
        if misaligned:
            return self.buf[addr : addr + span].view(dt)[:: stride]
        # An aligned view is one slice of the whole memory seen as
        # ``dt`` (the hot path of every put, get and reduction).
        typed = self._typed.get(dt)
        if typed is None:
            typed = self._typed[dt] = self.buf[
                : self.size - self.size % width].view(dt)
        return typed[first : first + reach : stride]

    def words(self, width: int) -> memoryview | None:
        """The whole memory as a cached ``memoryview`` of unsigned
        ``width``-byte words in host byte order (like :meth:`view`), or
        ``None`` when there is no such cast: a width with no native
        format, a wrapped buffer that is not contiguous.

        Word ``i`` is the bytes ``[i * width, (i + 1) * width)``;
        indexing yields and takes Python ints — raw bits, whatever type
        the program stores there — without building an array, which is
        what moving or updating one aligned element wants.  The caller
        checks bounds and alignment.
        """
        if width not in self._words:
            view = None
            fmt = _WORD_FORMATS.get(width)
            if fmt is not None and self.buf.flags.c_contiguous:
                view = memoryview(self.buf)[: self.size - self.size % width]
                view = view.cast(fmt)
            self._words[width] = view
        return self._words[width]

    def fill(self, addr: int, nbytes: int, byte: int = 0) -> None:
        self.check(addr, nbytes)
        self.buf[addr : addr + nbytes] = byte

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Memory({self.size:#x} bytes)"
