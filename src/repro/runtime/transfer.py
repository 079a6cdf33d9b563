"""Low-level strided transfer engine behind ``get``/``put``.

The paper's runtime "directly translates these high-level function calls
into assembly instructions whenever possible" and unrolls the generated
loop when ``nelems`` exceeds a threshold (section 3.3).  This engine
offers both fidelity levels of the reproduction:

* ``model`` (default) — functional copy with numpy strided views plus an
  analytic cost that mirrors the generated loop's instruction counts,
  the local cache/TLB traffic and one network transfer for the payload.
* ``isa`` — actually generates xBGAS assembly for the element loop
  (``eld``/``esd`` with the target's object ID in the extended register,
  unrolled above the threshold), executes it on the PE's functional core
  and charges the measured cycle/network time.  Remote elements then cost
  one network operation each — the true per-element behaviour of remote
  load/store instructions.

Both paths move exactly the same bytes; the test suite checks them
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import AddressError, TransferTimeoutError
from ..isa.cpu import amo_apply
from ..isa.olb import OLB_LOOKUP_NS

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


class TransferEngine:
    """Per-PE implementation of blocking and non-blocking get/put."""

    def __init__(self, machine: "Machine", rank: int):
        self.machine = machine
        self.rank = rank
        self.engine = machine.engine
        self.pe = self.engine.pes[rank]
        self.cfg = machine.config
        self.stats = machine.stats
        self.network = machine.network
        #: This PE's own memory-cost provider.
        self.hier = machine.hierarchy_of(rank)
        # Keyed by id(handle): O(1) insert/discard regardless of how many
        # transfers are outstanding (handles are kept alive by the dict
        # itself, so ids cannot be recycled while registered).
        self._pending: dict[int, TransferHandle] = {}

    def _views(
        self, dest: int, src: int, nelems: int, stride: int,
        target: int, dtype: np.dtype, dest_remote: bool,
    ) -> tuple[np.ndarray, np.ndarray]:
        mems = self.machine.memories
        if dest_remote:
            dmem, smem = mems[target], mems[self.rank]
        else:
            dmem, smem = mems[self.rank], mems[target]
        try:
            dview = dmem.view(dest, dtype, nelems, stride)
            sview = smem.view(src, dtype, nelems, stride)
        except AddressError as exc:
            raise AddressError(f"PE {self.rank} transfer: {exc}") from exc
        return dview, sview

    # -- cost model -----------------------------------------------------------

    def _local_cost(
        self, addr: int, nelems: int, elem_bytes: int, stride: int, write: bool
    ) -> float:
        return self.hier.access_strided(addr, nelems, elem_bytes, stride,
                                        write)

    def _remote_cost(
        self, target: int, addr: int, nelems: int, elem_bytes: int,
        stride: int, write: bool,
    ) -> float:
        """Target-side memory time, folded into the message latency.

        One-sided operations do not involve the target CPU, but its
        memory system still serves the access (and its caches see the
        traffic — pollution included deliberately).  The access resolves
        through the requester's OLB to a physical address, so the target
        TLB is bypassed (paper section 3.2).
        """
        hier = self.machine.hierarchy_of(target)
        return hier.access_strided(addr, nelems, elem_bytes, stride, write,
                                   use_tlb=False)

    # -- reliable delivery under fault injection ----------------------------------

    def _reliable_put(
        self, dview: np.ndarray, sview: np.ndarray, dest: int, nelems: int,
        eb: int, stride: int, target: int, nbytes: int,
    ) -> None:
        """Remote put with ack/retry semantics when faults are enabled.

        Each attempt is a fresh message (new sequence number, fresh fault
        draw).  With a :class:`~repro.faults.plan.RetryConfig` the sender
        waits for an acknowledgement: a dropped or corrupted payload is
        detected at timeout and retransmitted with exponential backoff,
        up to ``max_retries`` before :class:`TransferTimeoutError`.
        Without one, losses are silent and corruption lands in memory —
        the raw unreliable substrate.
        """
        machine = self.machine
        injector = machine.faults
        retry = machine.retry
        network = machine.network
        pe = self.pe
        timeout = retry.timeout_ns if retry is not None else 0.0
        attempts = 1 + (retry.max_retries if retry is not None else 0)
        wcost = self._remote_cost(target, dest, nelems, eb, stride, write=True)
        for attempt in range(attempts):
            t_free, t_delivered, fault = network.send(
                pe.clock, self.rank, target, nbytes)
            pe.advance_to(t_free)
            if (fault is not None and fault.kind in ("drop", "corrupt")
                    and retry is not None):
                injector.note_retry(pe.clock, self.rank, target,
                                    fault.seq, attempt, timeout)
                pe.advance(timeout)
                timeout *= retry.backoff
                continue
            if fault is not None and fault.kind == "drop":
                return  # unreliable mode: the payload is simply gone
            network.note_delivery(t_delivered + wcost)
            dview[:] = sview
            if fault is not None and fault.kind == "corrupt":
                injector.corrupt_payload(dview, fault)
                return
            if retry is not None:
                # Positive acknowledgement: the sender may not declare
                # success until the ack crosses back.
                pe.advance_to(t_delivered + wcost
                              + machine.config.transport.latency_ns)
            return
        raise TransferTimeoutError(
            f"PE {self.rank}: put of {nbytes}B to PE {target} lost "
            f"{attempts} times (max_retries={retry.max_retries} exhausted)"
        )

    def _reliable_get(
        self, dview: np.ndarray, sview: np.ndarray, dest: int, src: int,
        nelems: int, eb: int, stride: int, target: int, nbytes: int,
    ) -> None:
        """Remote get counterpart of :meth:`_reliable_put` (the round
        trip is its own acknowledgement, so success needs no extra ack
        wait)."""
        machine = self.machine
        injector = machine.faults
        retry = machine.retry
        network = machine.network
        pe = self.pe
        timeout = retry.timeout_ns if retry is not None else 0.0
        attempts = 1 + (retry.max_retries if retry is not None else 0)
        rcost = self._remote_cost(target, src, nelems, eb, stride, write=False)
        for attempt in range(attempts):
            t_complete, fault = network.fetch(pe.clock, self.rank, target,
                                              nbytes)
            if (fault is not None and fault.kind in ("drop", "corrupt")
                    and retry is not None):
                injector.note_retry(pe.clock, self.rank, target,
                                    fault.seq, attempt, timeout)
                pe.advance(timeout)
                timeout *= retry.backoff
                continue
            if fault is not None and fault.kind == "drop":
                return  # response lost; destination buffer untouched
            pe.advance_to(t_complete + rcost)
            pe.advance(self._local_cost(dest, nelems, eb, stride, write=True))
            dview[:] = sview
            if fault is not None and fault.kind == "corrupt":
                injector.corrupt_payload(dview, fault)
            return
        raise TransferTimeoutError(
            f"PE {self.rank}: get of {nbytes}B from PE {target} lost "
            f"{attempts} times (max_retries={retry.max_retries} exhausted)"
        )

    # -- blocking put -------------------------------------------------------------

    def put(
        self, dest: int, src: int, nelems: int, stride: int, target: int,
        dtype: np.dtype,
    ) -> None:
        """One-sided write of ``nelems`` elements to ``target``."""
        st = self.stats
        st.puts += 1
        if nelems == 0:
            return
        eb = dtype.itemsize
        nbytes = nelems * eb
        st.bytes_put += nbytes
        dview, sview = self._views(dest, src, nelems, stride, target, dtype, True)
        engine = self.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.record("put", f"{nbytes}B -> PE{target} @{dest:#x}")
            engine.spans.begin(self.rank, "op", "put", {
                "bytes": nbytes, "nelems": nelems, "stride": stride,
                "target": target, "remote": target != self.rank,
                "dest": dest,
            })
        try:
            isa = self.machine.isa_path
            if isa is not None:
                isa.transfer(self.rank, dest, src, nelems, stride, target,
                             eb, is_put=True)
                return
            pe = self.pe
            pe.advance(loop_overhead_ns(self.cfg, nelems))
            pe.advance(self._local_cost(src, nelems, eb, stride, write=False))
            if target == self.rank:
                pe.advance(self._local_cost(dest, nelems, eb, stride,
                                            write=True))
                dview[:] = sview
                return
            st.remote_puts += 1
            pe.advance(OLB_LOOKUP_NS)
            if self.machine.faults is not None:
                self._reliable_put(dview, sview, dest, nelems, eb, stride,
                                   target, nbytes)
                return
            network = self.network
            t_free, t_delivered, _ = network.send(
                pe.clock, self.rank, target, nbytes)
            pe.advance_to(t_free)
            wcost = self._remote_cost(target, dest, nelems, eb, stride,
                                      write=True)
            network.note_delivery(t_delivered + wcost)
            dview[:] = sview
        finally:
            if traced:
                engine.spans.end(self.rank)

    # -- blocking get -------------------------------------------------------------

    def get(
        self, dest: int, src: int, nelems: int, stride: int, target: int,
        dtype: np.dtype,
    ) -> None:
        """One-sided read of ``nelems`` elements from ``target``."""
        st = self.stats
        st.gets += 1
        if nelems == 0:
            return
        eb = dtype.itemsize
        nbytes = nelems * eb
        st.bytes_got += nbytes
        dview, sview = self._views(dest, src, nelems, stride, target, dtype, False)
        engine = self.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.record("get", f"{nbytes}B <- PE{target} @{src:#x}")
            engine.spans.begin(self.rank, "op", "get", {
                "bytes": nbytes, "nelems": nelems, "stride": stride,
                "target": target, "remote": target != self.rank,
                "dest": dest,
            })
        try:
            isa = self.machine.isa_path
            if isa is not None:
                isa.transfer(self.rank, dest, src, nelems, stride, target,
                             eb, is_put=False)
                return
            pe = self.pe
            pe.advance(loop_overhead_ns(self.cfg, nelems))
            if target == self.rank:
                pe.advance(self._local_cost(src, nelems, eb, stride,
                                            write=False))
                pe.advance(self._local_cost(dest, nelems, eb, stride,
                                            write=True))
                dview[:] = sview
                return
            st.remote_gets += 1
            pe.advance(OLB_LOOKUP_NS)
            if self.machine.faults is not None:
                self._reliable_get(dview, sview, dest, src, nelems, eb,
                                   stride, target, nbytes)
                return
            rcost = self._remote_cost(target, src, nelems, eb, stride,
                                      write=False)
            t_complete, _ = self.network.fetch(
                pe.clock, self.rank, target, nbytes)
            pe.advance_to(t_complete + rcost)
            pe.advance(self._local_cost(dest, nelems, eb, stride, write=True))
            dview[:] = sview
        finally:
            if traced:
                engine.spans.end(self.rank)

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
        if self.machine.faults is not None:
            self.put(dest, src, nelems, stride, target, dtype)
            return TransferHandle("put", nelems * dtype.itemsize,
                                  self.pe.clock, done=True)
        st = self.machine.stats
        st.puts += 1
        eb = dtype.itemsize
        nbytes = nelems * eb
        if nelems == 0:
            return TransferHandle("put", 0, self.pe.clock, done=True)
        st.bytes_put += nbytes
        dview, sview = self._views(dest, src, nelems, stride, target, dtype, True)
        engine = self.machine.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.spans.begin(self.rank, "op", "put", {
                "bytes": nbytes, "nelems": nelems, "stride": stride,
                "target": target, "remote": target != self.rank,
                "dest": dest, "nb": True,
            })
        try:
            pe = self.pe
            pe.advance(loop_overhead_ns(self.cfg, nelems))
            pe.advance(self._local_cost(src, nelems, eb, stride, write=False))
            if target == self.rank:
                pe.advance(self._local_cost(dest, nelems, eb, stride,
                                            write=True))
                dview[:] = sview
                return TransferHandle("put", nbytes, pe.clock, done=True)
            st.remote_puts += 1
            pe.advance(OLB_LOOKUP_NS)
            t_free, t_delivered, _ = self.machine.network.send(
                pe.clock, self.rank, target, nbytes)
            pe.advance_to(t_free)
            wcost = self._remote_cost(target, dest, nelems, eb, stride,
                                      write=True)
            done_at = t_delivered + wcost
            self.machine.network.note_delivery(done_at)
            dview[:] = sview
            handle = TransferHandle("put", nbytes, done_at)
            self._pending[id(handle)] = handle
            return handle
        finally:
            if traced:
                engine.spans.end(self.rank)

    def get_nb(
        self, dest: int, src: int, nelems: int, stride: int, target: int,
        dtype: np.dtype,
    ) -> TransferHandle:
        """Initiate a get; data is usable after :meth:`wait`.

        Degrades to the blocking reliable path under fault injection,
        like :meth:`put_nb`.
        """
        if self.machine.faults is not None:
            self.get(dest, src, nelems, stride, target, dtype)
            return TransferHandle("get", nelems * dtype.itemsize,
                                  self.pe.clock, done=True)
        st = self.machine.stats
        st.gets += 1
        eb = dtype.itemsize
        nbytes = nelems * eb
        if nelems == 0:
            return TransferHandle("get", 0, self.pe.clock, done=True)
        st.bytes_got += nbytes
        dview, sview = self._views(dest, src, nelems, stride, target, dtype, False)
        engine = self.machine.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.spans.begin(self.rank, "op", "get", {
                "bytes": nbytes, "nelems": nelems, "stride": stride,
                "target": target, "remote": target != self.rank,
                "dest": dest, "nb": True,
            })
        try:
            pe = self.pe
            pe.advance(loop_overhead_ns(self.cfg, nelems))
            if target == self.rank:
                pe.advance(self._local_cost(src, nelems, eb, stride,
                                            write=False))
                pe.advance(self._local_cost(dest, nelems, eb, stride,
                                            write=True))
                dview[:] = sview
                return TransferHandle("get", nbytes, pe.clock, done=True)
            st.remote_gets += 1
            pe.advance(OLB_LOOKUP_NS)
            rcost = self._remote_cost(target, src, nelems, eb, stride,
                                      write=False)
            t_complete, _ = self.machine.network.fetch(
                pe.clock, self.rank, target, nbytes)
            wcost = self._local_cost(dest, nelems, eb, stride, write=True)
            dview[:] = sview
            handle = TransferHandle("get", nbytes,
                                    t_complete + rcost + wcost)
            self._pending[id(handle)] = handle
            return handle
        finally:
            if traced:
                engine.spans.end(self.rank)

    # -- remote atomics (xBGAS eamo*.d) ---------------------------------------------

    def amo(self, addr: int, value: int, target: int, op: str) -> int:
        """One-sided 64-bit fetch-and-op at ``addr`` on ``target``.

        Returns the old value as an unsigned 64-bit integer.  Unlike the
        get-modify-put idiom, the read-modify-write executes atomically
        at the target's memory — no lost updates under contention.
        """
        machine = self.machine
        machine.stats.amos += 1
        mem = machine.memories[target]
        mem.check(addr, 8)
        engine = machine.engine
        engine.checkpoint()
        traced = engine.trace.enabled
        if traced:
            engine.spans.begin(self.rank, "op", "amo", {
                "bytes": 8, "op": op, "target": target,
                "remote": target != self.rank,
            })
        try:
            pe = self.pe
            value = int(value) & MASK64
            if machine.isa_path is not None:
                return machine.isa_path.amo(self.rank, addr, value, target, op)
            if target == self.rank:
                pe.advance(self._local_cost(addr, 1, 8, 1, write=True))
            else:
                pe.advance(OLB_LOOKUP_NS)
                rcost = self._remote_cost(target, addr, 1, 8, 1, write=True)
                # AMOs ride the NIC's reliable execution unit: exempt from
                # message-fault injection (there is no software retry for
                # a half-applied atomic).
                t_complete, _ = machine.network.fetch(
                    pe.clock, self.rank, target, 8, faultable=False)
                pe.advance_to(t_complete + rcost)
            old = mem.load(addr, 8)
            mem.store(addr, 8, amo_apply(op, old, value))
            return old
        finally:
            if traced:
                engine.spans.end(self.rank)

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
