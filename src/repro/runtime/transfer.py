"""Low-level strided transfer engine behind ``get``/``put``/``amo``.

The paper's runtime "directly translates these high-level function calls
into assembly instructions whenever possible" and unrolls the generated
loop when ``nelems`` exceeds a threshold (section 3.3).  This engine
offers both fidelity levels of the reproduction:

* ``model`` (default) — functional copy plus an analytic cost that
  mirrors the generated loop's instruction counts, the local cache/TLB
  traffic and one network transfer for the payload.
* ``isa`` — actually generates xBGAS assembly for the element loop
  (``eld``/``esd`` with the target's object ID in the extended register,
  unrolled above the threshold), executes it on the PE's functional core
  and charges the measured cycle/network time.  Remote elements then cost
  one network operation each — the true per-element behaviour of remote
  load/store instructions.

Both paths move exactly the same bytes; the test suite checks them
against each other.

Every operation has the same shape ("Remote-op path" in ``DESIGN.md``):

1. *Admit.*  Both operands are bounds-checked once, before anything
   else: a rejected transfer raises :class:`AddressError` having
   yielded to nobody, charged nothing and counted nothing.
2. *Yield* (``Engine.checkpoint``, which a blocking get or put on a
   direct-handoff engine calls only when the run queue's head is
   earlier), then *charge*: the PE's clock is carried in a local through
   a fixed sequence of float additions and written back once.  The
   sequence — and the order in which the two memory hierarchies and the
   network are touched (get: target hierarchy, ``Network.fetch``, own
   hierarchy; put: own read, ``Network.send``, target write) — is part
   of the model: every one of those calls updates shared state, and
   float addition does not reassociate.  Memory time comes from the cost
   provider ``machine.hierarchy_of(pe)`` through its public
   ``access_strided`` (the vec backend's provider has nothing else), or
   on the word path below through the one-line primitive it is made of.
   One-sided operations do not involve the target CPU, but its memory
   system still serves the access — cache pollution included
   deliberately — and because the access resolves through the
   requester's OLB to a physical address, the target TLB is bypassed
   (``use_tlb=False``, paper section 3.2).
3. *Move* (:meth:`TransferEngine._move`): aligned elements are words
   copied between the two memories' :meth:`Memory.words` views — one
   word for the ``eld``/``esd`` pair, a strided slice of words for a
   run — and only misaligned transfers, memories with no word view and
   fault-injected corruption build numpy views.

**The word path.**  A blocking get or put of one aligned 8-byte element
at stride 1 to another PE — GUPs' every remote access — makes the same
three steps in one frame: the admit test inline, the yield test inline
(``Engine.checkpoint`` is called only when the run queue's head is
earlier), each of its two lines priced by
:meth:`~repro.machine.memsys.MemoryHierarchy.access_line` (what
``access_strided`` would call for it), the message by
``Network.fetch``/``send``, and one word copied.  The charges, their
float order and their mutation order are the general path's.  It runs
only on a clean (no fault injector), untraced, ``model``-fidelity,
direct-handoff machine whose every memory-cost provider offers that
one-line primitive at one line size — not on the vec backend, whose
closed-form rows price only ranges — and ``Machine(fast_paths=False)``
keeps the general path as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import AddressError, TransferTimeoutError
from ..isa.cpu import amo_apply
from ..isa.olb import OLB_LOOKUP_NS
from ..memo import Memo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..params import MachineConfig
    from .context import Machine

__all__ = ["TransferHandle", "TransferEngine", "loop_overhead_ns"]

MASK64 = (1 << 64) - 1

#: Instructions per loop iteration without unrolling: load, store, two
#: pointer bumps and the loop branch.
_LOOP_INSTRS = 5
#: Loop-carried instructions amortised away by unrolling (the pointer
#: bumps and branch are shared by ``unroll_factor`` elements).
_LOOP_OVERHEAD_INSTRS = 3
#: Fixed call/setup instructions per transfer.
_SETUP_INSTRS = 12


def loop_overhead_ns(cfg: "MachineConfig", nelems: int) -> float:
    """Instruction cost of the generated element loop (section 3.3)."""
    if nelems <= 0:
        return 0.0
    if nelems > cfg.unroll_threshold:
        per_elem = (_LOOP_INSTRS - _LOOP_OVERHEAD_INSTRS) + (
            _LOOP_OVERHEAD_INSTRS / cfg.unroll_factor
        )
    else:
        per_elem = float(_LOOP_INSTRS)
    return (_SETUP_INSTRS + per_elem * nelems) * cfg.cycle_ns


@dataclass
class TransferHandle:
    """Completion token for a non-blocking transfer."""

    kind: str
    nbytes: int
    complete_at: float
    done: bool = False


def _line_priced(machine: "Machine", shift: int) -> bool:
    """Whether every PE's memory-cost provider prices single lines
    (``access_line``) of ``1 << shift`` bytes, a line holds an aligned
    8-byte word, and the PEs' memories are one size, each with an 8-byte
    word view."""
    if shift < 3:
        return False
    size = machine.memories[0].size
    for pe, mem in enumerate(machine.memories):
        hier = machine.hierarchy_of(pe)
        if (getattr(hier, "line_shift", None) != shift
                or not hasattr(hier, "access_line")
                or mem.size != size or mem.words(8) is None):
            return False
    return True


class TransferEngine:
    """Per-PE implementation of blocking and non-blocking get/put."""

    def __init__(self, machine: "Machine", rank: int):
        self.machine = machine
        self.rank = rank
        self.engine = machine.engine
        self.pe = self.engine.pes[rank]
        self.cfg = cfg = machine.config
        self.stats = machine.stats
        self.network = machine.network
        #: This PE's own memory-cost provider.
        self.hier = machine.hierarchy_of(rank)
        #: pe -> that PE's memory-cost provider.
        self._hier_of = Memo(machine.hierarchy_of)
        #: nelems -> :func:`loop_overhead_ns`.
        self.loop_ns = Memo(lambda nelems: loop_overhead_ns(cfg, nelems))
        memories = machine.memories
        #: (pe, width) -> that PE's memory as words (:meth:`Memory.words`).
        self._words = Memo(lambda key: memories[key[0]].words(key[1]))
        # Keyed by id(handle): O(1) insert/discard regardless of how many
        # transfers are outstanding (handles are kept alive by the dict
        # itself, so ids cannot be recycled while registered).
        self._pending: dict[int, TransferHandle] = {}
        engine = self.engine
        shift = getattr(self.hier, "line_shift", 0)
        #: Whether a one-word remote get/put may take the word path (see
        #: the module doc); tracing is tested per call.
        self._word_path = (
            machine.faults is None and machine.isa_path is None
            and engine.direct_handoff and _line_priced(machine, shift))
        #: No run queue to test inline (the scheduler-bounce oracle).
        self._bounce = not engine.direct_handoff
        #: What the word path reads: the yield test's heap, the trace
        #: switch, the last word address of every PE's memory, one
        #: element's loop cost, the line size and (pe -> that PE's
        #: memory as 8-byte words).
        self._runq = engine.run_queue
        self._trace = engine.trace
        self._last_word = memories[rank].size - 8
        self._loop1 = self.loop_ns[1]
        self._line_shift = shift
        self._words8 = Memo(lambda pe: memories[pe].words(8))

    def _reject(self, dpe: int, dest: int, spe: int, src: int,
                span: int) -> None:
        """Raise for a transfer whose ``span`` bytes leave PE ``dpe``'s
        memory at ``dest`` or PE ``spe``'s at ``src``."""
        mems = self.machine.memories
        try:
            mems[dpe].check(dest, span)
            mems[spe].check(src, span)
        except AddressError as exc:
            raise AddressError(f"PE {self.rank} transfer: {exc}") from exc

    def _move(self, dpe: int, dest: int, spe: int, src: int, nelems: int,
              stride: int, dtype: np.dtype) -> None:
        """Copy the elements from PE ``spe``'s memory to PE ``dpe``'s."""
        eb = dtype.itemsize
        # Widths are powers of two: both addresses aligned <=> no low bit.
        if not (dest | src) & (eb - 1):
            dwords = self._words[dpe, eb]
            swords = self._words[spe, eb]
            if dwords is not None and swords is not None:
                d0 = dest // eb
                s0 = src // eb
                if nelems == 1:
                    dwords[d0] = swords[s0]
                else:
                    reach = (nelems - 1) * stride + 1
                    dwords[d0:d0 + reach:stride] = swords[s0:s0 + reach:stride]
                return
        mems = self.machine.memories
        mems[dpe].view(dest, dtype, nelems, stride)[:] = mems[spe].view(
            src, dtype, nelems, stride)

    def _begin_span(self, name: str, nbytes: int, nelems: int, stride: int,
                    target: int, dest: int, **extra: object) -> None:
        self.engine.spans.begin(self.rank, "op", name, {
            "bytes": nbytes, "nelems": nelems, "stride": stride,
            "target": target, "remote": target != self.rank,
            "dest": dest, **extra,
        })

    # -- reliable delivery under fault injection ----------------------------------

    def _reliable(self, is_put: bool, dest: int, src: int, nelems: int,
                  stride: int, target: int, dtype: np.dtype) -> None:
        """Remote put or get with ack/retry semantics when faults are
        enabled.

        Each attempt is a fresh message (new sequence number, fresh fault
        draw).  With a :class:`~repro.faults.plan.RetryConfig` the sender
        waits for an acknowledgement — a get's round trip is its own — so
        a dropped or corrupted payload is detected at timeout and
        retransmitted with exponential backoff, up to ``max_retries``
        before :class:`TransferTimeoutError`.  Without one, losses are
        silent and corruption lands in memory — the raw unreliable
        substrate.
        """
        machine = self.machine
        injector = machine.faults
        retry = machine.retry
        network = machine.network
        pe = self.pe
        rank = self.rank
        eb = dtype.itemsize
        nbytes = nelems * eb
        timeout = retry.timeout_ns if retry is not None else 0.0
        attempts = 1 + (retry.max_retries if retry is not None else 0)
        # Target-side memory time: the put's write, the get's read.
        tcost = self._hier_of[target].access_strided(
            dest if is_put else src, nelems, eb, stride, is_put, False)
        for attempt in range(attempts):
            if is_put:
                t_free, t_done, fault = network.send(pe.clock, rank, target,
                                                     nbytes)
                pe.advance_to(t_free)
            else:
                t_done, fault = network.fetch(pe.clock, rank, target, nbytes)
            if (fault is not None and fault.kind in ("drop", "corrupt")
                    and retry is not None):
                injector.note_retry(pe.clock, rank, target, fault.seq,
                                    attempt, timeout)
                pe.advance(timeout)
                timeout *= retry.backoff
                continue
            if fault is not None and fault.kind == "drop":
                return  # unreliable mode: payload or response simply gone
            if is_put:
                network.note_delivery(t_done + tcost)
                self._move(target, dest, rank, src, nelems, stride, dtype)
            else:
                pe.advance_to(t_done + tcost)
                pe.advance(self.hier.access_strided(dest, nelems, eb, stride,
                                                    True))
                self._move(rank, dest, target, src, nelems, stride, dtype)
            if fault is not None and fault.kind == "corrupt":
                injector.corrupt_payload(
                    machine.memories[target if is_put else rank].view(
                        dest, dtype, nelems, stride), fault)
            elif is_put and retry is not None:
                # Positive acknowledgement: the sender may not declare
                # success until the ack crosses back.
                pe.advance_to(t_done + tcost
                              + machine.config.transport.latency_ns)
            return
        what = "put of {}B to" if is_put else "get of {}B from"
        raise TransferTimeoutError(
            f"PE {rank}: {what.format(nbytes)} PE {target} lost "
            f"{attempts} times (max_retries={retry.max_retries} exhausted)"
        )

    # -- blocking put -------------------------------------------------------------

    def put(
        self, dest: int, src: int, nelems: int, stride: int, target: int,
        dtype: np.dtype,
    ) -> None:
        """One-sided write of ``nelems`` elements to ``target``."""
        st = self.stats
        rank = self.rank
        if (nelems == 1 and stride == 1 and target != rank
                and self._word_path and dtype.itemsize == 8
                and not (dest | src) & 7
                and 0 <= dest <= self._last_word
                and 0 <= src <= self._last_word
                and not self._trace.enabled):
            # The word path (module doc): the general path's charges.
            st.puts += 1
            st.bytes_put += 8
            pe = self.pe
            q = self._runq
            if q and q[0][0] < pe.clock:
                self.engine.checkpoint()
            shift = self._line_shift
            clock = (pe.clock + self._loop1
                     + self.hier.access_line(src >> shift, False, True, True)
                     + OLB_LOOKUP_NS)
            st.remote_puts += 1
            network = self.network
            t_free, t_delivered, _ = network.send(clock, rank, target, 8)
            pe.clock = t_free if t_free > clock else clock
            t_delivered += self._hier_of[target].access_line(
                dest >> shift, True, False, True)
            if t_delivered > network.max_delivery:
                network.max_delivery = t_delivered
            words = self._words8
            words[target][dest >> 3] = words[rank][src >> 3]
            return
        if nelems == 0:
            st.puts += 1
            return
        eb = dtype.itemsize
        span = ((nelems - 1) * stride + 1) * eb
        mems = self.machine.memories
        if (dest < 0 or dest + span > mems[target].size
                or src < 0 or src + span > mems[rank].size):
            self._reject(target, dest, rank, src, span)
        nbytes = nelems * eb
        st.puts += 1
        st.bytes_put += nbytes
        engine = self.engine
        q = self._runq
        if self._bounce or q and q[0][0] < self.pe.clock:
            engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.record("put", f"{nbytes}B -> PE{target} @{dest:#x}")
            self._begin_span("put", nbytes, nelems, stride, target, dest)
        try:
            isa = self.machine.isa_path
            if isa is not None:
                isa.transfer(rank, dest, src, nelems, stride, target,
                             eb, is_put=True)
                return
            pe = self.pe
            hier = self.hier
            clock = pe.clock + self.loop_ns[nelems]
            clock += hier.access_strided(src, nelems, eb, stride, False)
            if target == rank:
                pe.clock = clock + hier.access_strided(dest, nelems, eb,
                                                       stride, True)
                self._move(rank, dest, rank, src, nelems, stride, dtype)
                return
            st.remote_puts += 1
            pe.clock = clock = clock + OLB_LOOKUP_NS
            if self.machine.faults is not None:
                self._reliable(True, dest, src, nelems, stride, target,
                               dtype)
                return
            network = self.network
            t_free, t_delivered, _ = network.send(clock, rank, target, nbytes)
            if t_free > clock:
                pe.clock = t_free
            t_delivered += self._hier_of[target].access_strided(
                dest, nelems, eb, stride, True, False)
            if t_delivered > network.max_delivery:
                network.max_delivery = t_delivered
            self._move(target, dest, rank, src, nelems, stride, dtype)
        finally:
            if traced:
                engine.spans.end(rank)

    # -- blocking get -------------------------------------------------------------

    def get(
        self, dest: int, src: int, nelems: int, stride: int, target: int,
        dtype: np.dtype,
    ) -> None:
        """One-sided read of ``nelems`` elements from ``target``."""
        st = self.stats
        rank = self.rank
        if (nelems == 1 and stride == 1 and target != rank
                and self._word_path and dtype.itemsize == 8
                and not (dest | src) & 7
                and 0 <= dest <= self._last_word
                and 0 <= src <= self._last_word
                and not self._trace.enabled):
            # The word path (module doc): the general path's charges.
            st.gets += 1
            st.bytes_got += 8
            pe = self.pe
            q = self._runq
            if q and q[0][0] < pe.clock:
                self.engine.checkpoint()
            st.remote_gets += 1
            clock = pe.clock + self._loop1 + OLB_LOOKUP_NS
            shift = self._line_shift
            rcost = self._hier_of[target].access_line(src >> shift, False,
                                                      False, True)
            t_complete, _ = self.network.fetch(clock, rank, target, 8)
            t_complete += rcost
            if t_complete > clock:
                clock = t_complete
            pe.clock = clock + self.hier.access_line(dest >> shift, True,
                                                     True, True)
            words = self._words8
            words[rank][dest >> 3] = words[target][src >> 3]
            return
        if nelems == 0:
            st.gets += 1
            return
        eb = dtype.itemsize
        span = ((nelems - 1) * stride + 1) * eb
        mems = self.machine.memories
        if (dest < 0 or dest + span > mems[rank].size
                or src < 0 or src + span > mems[target].size):
            self._reject(rank, dest, target, src, span)
        nbytes = nelems * eb
        st.gets += 1
        st.bytes_got += nbytes
        engine = self.engine
        q = self._runq
        if self._bounce or q and q[0][0] < self.pe.clock:
            engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.record("get", f"{nbytes}B <- PE{target} @{src:#x}")
            self._begin_span("get", nbytes, nelems, stride, target, dest)
        try:
            isa = self.machine.isa_path
            if isa is not None:
                isa.transfer(rank, dest, src, nelems, stride, target,
                             eb, is_put=False)
                return
            pe = self.pe
            hier = self.hier
            clock = pe.clock + self.loop_ns[nelems]
            if target == rank:
                clock += hier.access_strided(src, nelems, eb, stride, False)
                pe.clock = clock + hier.access_strided(dest, nelems, eb,
                                                       stride, True)
                self._move(rank, dest, rank, src, nelems, stride, dtype)
                return
            st.remote_gets += 1
            pe.clock = clock = clock + OLB_LOOKUP_NS
            if self.machine.faults is not None:
                self._reliable(False, dest, src, nelems, stride, target,
                               dtype)
                return
            rcost = self._hier_of[target].access_strided(
                src, nelems, eb, stride, False, False)
            t_complete, _ = self.network.fetch(clock, rank, target, nbytes)
            t_complete += rcost
            if t_complete > clock:
                clock = t_complete
            pe.clock = clock + hier.access_strided(dest, nelems, eb, stride,
                                                   True)
            self._move(rank, dest, target, src, nelems, stride, dtype)
        finally:
            if traced:
                engine.spans.end(rank)

    # -- non-blocking variants ---------------------------------------------------

    def put_nb(
        self, dest: int, src: int, nelems: int, stride: int, target: int,
        dtype: np.dtype,
    ) -> TransferHandle:
        """Initiate a put; returns a handle to wait on.

        The source buffer is captured at initiation (as with the real
        non-blocking calls, it must not be reused before completion).

        Under fault injection the non-blocking calls degrade to the
        blocking reliable path (retransmission is inherently
        synchronous) and return an already-completed handle.
        """
        pe = self.pe
        if self.machine.faults is not None:
            self.put(dest, src, nelems, stride, target, dtype)
            return TransferHandle("put", nelems * dtype.itemsize,
                                  pe.clock, done=True)
        st = self.stats
        if nelems == 0:
            st.puts += 1
            return TransferHandle("put", 0, pe.clock, done=True)
        rank = self.rank
        eb = dtype.itemsize
        span = ((nelems - 1) * stride + 1) * eb
        mems = self.machine.memories
        if (dest < 0 or dest + span > mems[target].size
                or src < 0 or src + span > mems[rank].size):
            self._reject(target, dest, rank, src, span)
        nbytes = nelems * eb
        st.puts += 1
        st.bytes_put += nbytes
        engine = self.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            self._begin_span("put", nbytes, nelems, stride, target, dest,
                             nb=True)
        try:
            hier = self.hier
            clock = pe.clock + self.loop_ns[nelems]
            clock += hier.access_strided(src, nelems, eb, stride, False)
            if target == rank:
                pe.clock = clock = clock + hier.access_strided(
                    dest, nelems, eb, stride, True)
                self._move(rank, dest, rank, src, nelems, stride, dtype)
                return TransferHandle("put", nbytes, clock, done=True)
            st.remote_puts += 1
            clock += OLB_LOOKUP_NS
            network = self.network
            t_free, t_delivered, _ = network.send(clock, rank, target, nbytes)
            pe.clock = t_free if t_free > clock else clock
            t_delivered += self._hier_of[target].access_strided(
                dest, nelems, eb, stride, True, False)
            if t_delivered > network.max_delivery:
                network.max_delivery = t_delivered
            self._move(target, dest, rank, src, nelems, stride, dtype)
            handle = TransferHandle("put", nbytes, t_delivered)
            self._pending[id(handle)] = handle
            return handle
        finally:
            if traced:
                engine.spans.end(rank)

    def get_nb(
        self, dest: int, src: int, nelems: int, stride: int, target: int,
        dtype: np.dtype,
    ) -> TransferHandle:
        """Initiate a get; data is usable after :meth:`wait`.

        Degrades to the blocking reliable path under fault injection,
        like :meth:`put_nb`.
        """
        pe = self.pe
        if self.machine.faults is not None:
            self.get(dest, src, nelems, stride, target, dtype)
            return TransferHandle("get", nelems * dtype.itemsize,
                                  pe.clock, done=True)
        st = self.stats
        if nelems == 0:
            st.gets += 1
            return TransferHandle("get", 0, pe.clock, done=True)
        rank = self.rank
        eb = dtype.itemsize
        span = ((nelems - 1) * stride + 1) * eb
        mems = self.machine.memories
        if (dest < 0 or dest + span > mems[rank].size
                or src < 0 or src + span > mems[target].size):
            self._reject(rank, dest, target, src, span)
        nbytes = nelems * eb
        st.gets += 1
        st.bytes_got += nbytes
        engine = self.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            self._begin_span("get", nbytes, nelems, stride, target, dest,
                             nb=True)
        try:
            hier = self.hier
            clock = pe.clock + self.loop_ns[nelems]
            if target == rank:
                clock += hier.access_strided(src, nelems, eb, stride, False)
                pe.clock = clock = clock + hier.access_strided(
                    dest, nelems, eb, stride, True)
                self._move(rank, dest, rank, src, nelems, stride, dtype)
                return TransferHandle("get", nbytes, clock, done=True)
            st.remote_gets += 1
            pe.clock = clock = clock + OLB_LOOKUP_NS
            rcost = self._hier_of[target].access_strided(
                src, nelems, eb, stride, False, False)
            t_complete, _ = self.network.fetch(clock, rank, target, nbytes)
            wcost = hier.access_strided(dest, nelems, eb, stride, True)
            self._move(rank, dest, target, src, nelems, stride, dtype)
            handle = TransferHandle("get", nbytes,
                                    t_complete + rcost + wcost)
            self._pending[id(handle)] = handle
            return handle
        finally:
            if traced:
                engine.spans.end(rank)

    # -- remote atomics (xBGAS eamo*.d) ---------------------------------------------

    def amo(self, addr: int, value: int, target: int, op: str) -> int:
        """One-sided 64-bit fetch-and-op at ``addr`` on ``target``.

        Returns the old value as an unsigned 64-bit integer.  Unlike the
        get-modify-put idiom, the read-modify-write executes atomically
        at the target's memory — no lost updates under contention.
        """
        machine = self.machine
        mem = machine.memories[target]
        if addr < 0 or addr + 8 > mem.size:
            mem.check(addr, 8)
        machine.stats.amos += 1
        rank = self.rank
        engine = self.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.spans.begin(rank, "op", "amo", {
                "bytes": 8, "op": op, "target": target,
                "remote": target != rank,
            })
        try:
            pe = self.pe
            value = int(value) & MASK64
            if machine.isa_path is not None:
                return machine.isa_path.amo(rank, addr, value, target, op)
            if target == rank:
                pe.clock += self.hier.access_strided(addr, 1, 8, 1, True)
            else:
                clock = pe.clock + OLB_LOOKUP_NS
                rcost = self._hier_of[target].access_strided(
                    addr, 1, 8, 1, True, False)
                # AMOs ride the NIC's reliable execution unit: exempt from
                # message-fault injection (there is no software retry for
                # a half-applied atomic).
                t_complete, _ = self.network.fetch(clock, rank, target, 8,
                                                   faultable=False)
                t_complete += rcost
                pe.clock = t_complete if t_complete > clock else clock
            words = self._words[target, 8]
            if words is None or addr & 7:
                old = mem.load(addr, 8)
                mem.store(addr, 8, amo_apply(op, old, value))
            else:
                old = words[addr >> 3]
                words[addr >> 3] = amo_apply(op, old, value)
            return old
        finally:
            if traced:
                engine.spans.end(rank)

    # -- completion ---------------------------------------------------------------

    def wait(self, handle: TransferHandle) -> None:
        """Block (in simulated time) until ``handle`` completes."""
        if not handle.done:
            self.pe.advance_to(handle.complete_at)
            handle.done = True
        self._pending.pop(id(handle), None)

    def quiet(self) -> None:
        """Complete every outstanding non-blocking transfer of this PE.

        Completion order does not matter for timing (``advance_to`` is a
        running max), so handles are drained in O(1) pops.
        """
        pending = self._pending
        pe = self.pe
        while pending:
            _, handle = pending.popitem()
            if not handle.done:
                pe.advance_to(handle.complete_at)
                handle.done = True
