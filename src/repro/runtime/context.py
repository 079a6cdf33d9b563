"""The simulated machine and the per-PE ``xbrtime`` context.

:class:`Machine` owns everything shared: the PDES engine, per-PE
memories and memory hierarchies, the network, the symmetric heap, the
OLBs and (in ``isa`` fidelity) the functional cores.

:class:`XBRTime` is the handle a PE program receives — the Python face
of the paper's C runtime API:

==============================  =========================================
paper (C)                       this reproduction
==============================  =========================================
``xbrtime_init()``              ``ctx.init()``
``xbrtime_close()``             ``ctx.close()``
``xbrtime_mype()``              ``ctx.my_pe()``
``xbrtime_num_pes()``           ``ctx.num_pes()``
``xbrtime_malloc(sz)``          ``ctx.malloc(sz)``
``xbrtime_free(p)``             ``ctx.free(p)``
``xbrtime_barrier()``           ``ctx.barrier()``
``xbrtime_TYPE_put(...)``       ``ctx.TYPE_put(...)`` / ``ctx.put(...)``
``xbrtime_TYPE_get(...)``       ``ctx.TYPE_get(...)`` / ``ctx.get(...)``
``xbrtime_TYPE_broadcast(...)`` ``ctx.TYPE_broadcast(...)`` / ``ctx.broadcast(...)``
``xbrtime_TYPE_reduce_OP(...)`` ``ctx.TYPE_reduce_OP(...)`` / ``ctx.reduce(...)``
``xbrtime_TYPE_scatter(...)``   ``ctx.TYPE_scatter(...)`` / ``ctx.scatter(...)``
``xbrtime_TYPE_gather(...)``    ``ctx.TYPE_gather(...)`` / ``ctx.gather(...)``
==============================  =========================================

Addresses are plain integers into the PE's flat memory; ``ctx.view``
wraps a region as a numpy array for local computation.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..errors import MailboxProtocolError, RuntimeStateError
from ..isa.memory import Memory
from ..isa.olb import ObjectLookasideBuffer
from ..machine.mailbox import MailboxRouter
from ..machine.memsys import MemoryHierarchy
from ..machine.network import Network
from ..machine.node import Node
from ..params import MachineConfig
from ..sim.engine import Engine, PEProcess
from .barrier import BarrierController
from .collective_api import CollectiveAPI, resolve_dtype
from .symmetric_heap import CODE_REGION_BYTES, segment_layout
from .transfer import TransferEngine

__all__ = ["Machine", "XBRTime", "CODE_REGION_BYTES"]


class Machine:
    """One simulated xBGAS machine (the whole PGAS job)."""

    def __init__(self, config: MachineConfig | None = None, *,
                 trace: bool = False, faults=None, retry=None,
                 fast_paths: bool = True, transport: str = "onesided"):
        """``faults`` (a :class:`~repro.faults.plan.FaultPlan`) arms the
        fault injector; ``retry`` (a
        :class:`~repro.faults.plan.RetryConfig`) arms ack/retry on
        remote put/get.  Both default to off — a machine without them
        behaves exactly as before the subsystem existed.

        ``transport`` selects how compiled collective schedules move
        data: ``"onesided"`` (default) executes remote Put/Get steps
        directly; ``"mailbox"`` lowers every schedule onto the
        two-sided mailbox engine (matched send/recv pairs through the
        bounded per-PE queues) before execution.  The explicit
        ``ctx.put``/``ctx.get`` calls and the mailbox ``ctx.msg_*``
        calls are available on either setting — the knob only governs
        schedule lowering.

        ``fast_paths=False`` selects the reference implementations of the
        scheduler (scheduler-thread bounce) and of bulk memory costing
        (per-line loop).  Simulated results are identical either way —
        the flag selects the reference the equivalence tests compare
        against."""
        if transport not in ("onesided", "mailbox"):
            raise ValueError(
                f"unknown schedule transport {transport!r}; expected "
                "'onesided' or 'mailbox'"
            )
        self.transport_name = transport
        self.config = config if config is not None else MachineConfig()
        cfg = self.config
        self.fast_paths = fast_paths
        self.engine = Engine(cfg.n_pes, trace=trace, direct_handoff=fast_paths)
        self.stats = self.engine.stats
        self.memories = [Memory(cfg.memory_bytes_per_pe) for _ in range(cfg.n_pes)]
        self.nodes = [Node(i, cfg) for i in range(cfg.n_nodes)]
        self._hier: dict[int, MemoryHierarchy] = {}
        for node in self.nodes:
            self._hier.update(node.hierarchies)
        if not fast_paths:
            for hier in self._hier.values():
                hier.fast_path = False
        self.network = Network(cfg, self.stats)
        layout = segment_layout(cfg)
        #: Start of the shared segment (scratch + collective heap).
        self.heap_base = layout.heap_base
        self.scratch_stacks = [layout.scratch_stack()
                               for _ in range(cfg.n_pes)]
        self.heap = layout.symmetric_heap(cfg.n_pes)
        self.private_allocators = [layout.private_allocator()
                                   for _ in range(cfg.n_pes)]
        self.olbs = [ObjectLookasideBuffer(pe) for pe in range(cfg.n_pes)]
        for olb in self.olbs:
            olb.install_default(cfg.n_pes)
        self.barriers = BarrierController(self)
        self.mailbox = MailboxRouter(self)
        self._consumed = False
        #: Functional-core transfer path (``isa`` fidelity), else None.
        self.isa_path = None
        if cfg.fidelity == "isa":
            from .isa_path import IsaTransferPath

            self.isa_path = IsaTransferPath(self)
        #: Armed fault injector (None = clean machine, zero overhead).
        self.faults = None
        self.retry = retry
        if faults is not None:
            from ..faults.injector import FaultInjector

            self.faults = FaultInjector(self, faults)
            self.network.injector = self.faults
        # Last: a transfer engine reads which paths this machine allows.
        self.transfers = [TransferEngine(self, r) for r in range(cfg.n_pes)]

    # -- shared-hardware accessors -------------------------------------------

    def hierarchy_of(self, pe: int) -> MemoryHierarchy:
        return self._hier[pe]

    @property
    def elapsed_ns(self) -> float:
        """Simulated makespan (host-dilated, like ``ctx.time_ns``)."""
        return self.engine.elapsed_ns * self.config.time_dilation

    @property
    def failed_pes(self) -> frozenset[int]:
        """World ranks crashed by fault injection (empty on a clean run)."""
        return self.faults.dead_pes if self.faults is not None else frozenset()

    def describe(self) -> str:
        """A Spike-style banner describing the simulated platform."""
        cfg = self.config
        mem = cfg.mem
        lines = [
            f"xBGAS machine: {cfg.n_pes} PEs on {cfg.n_nodes} node(s) "
            f"({cfg.cores_per_node} cores/node"
            + (", explicit placement" if cfg.pe_node_map else "") + ")",
            f"  core: RV64I+xBGAS @ {cfg.clock_ghz:g} GHz, fidelity="
            f"{cfg.fidelity}"
            + (", pipeline model on" if cfg.pipeline else ""),
            f"  caches: L1 {mem.l1.size_bytes >> 10} KiB/{mem.l1.ways}-way, "
            f"L2 {mem.l2.size_bytes >> 20} MiB/{mem.l2.ways}-way, "
            f"TLB {mem.tlb.entries} entries",
            f"  memory: {cfg.memory_bytes_per_pe >> 20} MiB/PE "
            f"(symmetric heap {cfg.symmetric_heap_bytes >> 20} MiB, "
            f"scratch {cfg.collective_scratch_bytes >> 20} MiB)",
            f"  transport: {cfg.transport.name} "
            f"(o={cfg.transport.o_send:g} ns, L={cfg.transport.latency_ns:g} "
            f"ns), topology={cfg.topology}",
            f"  host: {cfg.host_cores} cores, dilation x"
            f"{cfg.time_dilation:.2f}",
        ]
        return "\n".join(lines)

    # -- running programs ------------------------------------------------------

    def run(self, fn: Callable[..., Any],
            args_per_pe: Sequence[tuple] | None = None) -> list[Any]:
        """Run ``fn(ctx, *extra)`` on every PE; returns per-rank results.

        A machine is one-shot: memory, heap logs, caches and clocks all
        carry state from a run, so starting a second simulation on the
        same machine would silently replay stale state.  Build a fresh
        :class:`Machine` per simulation.
        """
        if self._consumed:
            raise RuntimeStateError(
                "this Machine already ran a simulation; build a fresh "
                "Machine(config) per run (heap logs, caches and clocks "
                "are stateful)"
            )
        self._consumed = True

        def wrapper(pe: PEProcess, *extra: Any) -> Any:
            ctx = XBRTime(self, pe)
            pe.context = ctx
            return fn(ctx, *extra)

        results = self.engine.run(wrapper, args_per_pe)
        self._fold_memory_stats()
        if self.faults is not None and self.faults.dead_pes:
            from ..faults.plan import CRASHED

            dead = self.faults.dead_pes
            results = [CRASHED if r in dead else res
                       for r, res in enumerate(results)]
        return results

    # -- observability ---------------------------------------------------------

    def collective_metrics(self):
        """Per-collective metrics from the recorded span tree.

        Requires the machine to have been built with ``trace=True``;
        returns a list of :class:`~repro.sim.metrics.CollectiveMetrics`
        (empty when tracing was off).
        """
        from ..sim.metrics import collective_metrics

        return collective_metrics(self.engine.trace)

    def chrome_trace(self) -> dict:
        """The recorded trace as a Chrome-trace (Perfetto) document."""
        from ..sim.chrome_trace import chrome_trace

        return chrome_trace(self.engine.trace,
                            time_dilation=self.config.time_dilation)

    def write_chrome_trace(self, path_or_file) -> dict:
        """Dump the Chrome-trace JSON to ``path_or_file``; returns the doc.

        Open the result in ``chrome://tracing`` or https://ui.perfetto.dev.
        """
        from ..sim.chrome_trace import write_chrome_trace

        return write_chrome_trace(path_or_file, self.engine.trace,
                                  time_dilation=self.config.time_dilation)

    def _fold_memory_stats(self) -> None:
        st = self.stats
        st.l1_hits = st.l1_misses = 0
        st.l2_hits = st.l2_misses = 0
        st.tlb_hits = st.tlb_misses = 0
        for hier in self._hier.values():
            l1h, l1m, l2h, l2m, th, tm = hier.stat_tuple()
            st.l1_hits += l1h
            st.l1_misses += l1m
            st.l2_hits += l2h
            st.l2_misses += l2m
            st.tlb_hits += th
            st.tlb_misses += tm


class XBRTime(CollectiveAPI):
    """The simulator's per-PE context.

    Everything but the sim seams is inherited from the context core
    (:class:`~repro.runtime.collective_api.CollectiveAPI`): this class
    adds only the span recorder and the two-sided mailbox calls.
    """

    backend_name = "sim"

    @property
    def spans(self):
        """The span recorder (a disabled recorder when tracing is off)."""
        return self.machine.engine.spans

    # -- two-sided mailbox messaging -----------------------------------------------------

    @property
    def schedule_transport(self) -> str:
        """How compiled schedules execute: ``"onesided"`` or ``"mailbox"``."""
        return self.machine.transport_name

    def msg_send(self, src: int, nelems: int, stride: int, pe: int,
                 tag: int = 0, dtype: str | np.dtype = "long") -> None:
        """Send ``nelems`` strided elements at local ``src`` to ``pe``.

        Eager/buffered: returns once the message is committed to the
        target's bounded receive queue (blocking only on backpressure).
        ``nelems == 0`` sends a payload-free control message.
        """
        self._require_active()
        dt = resolve_dtype(dtype)
        self._check_args(nelems, stride, pe)
        nbytes = nelems * dt.itemsize
        machine = self.machine
        machine.engine.checkpoint()
        self._msg_open("send", nbytes, nelems, stride, pe, tag)
        try:
            payload = None
            if nelems:
                self.pe.advance(self._transfer.loop_ns[nelems])
                self.pe.advance(machine.hierarchy_of(self.rank).access_strided(
                    src, nelems, dt.itemsize, stride, write=False))
                payload = self._memory.view(src, dt, nelems, stride).copy()
            machine.mailbox.send(self.rank, pe, payload, nbytes, tag)
        finally:
            self.spans.end(self.rank)

    def _msg_open(self, kind: str, nbytes: int, nelems: int, stride: int,
                  pe: int, tag: int) -> None:
        """Trace a send or receive and open its span (tracing only)."""
        engine = self.machine.engine
        if engine.trace.enabled:
            arrow = "->" if kind == "send" else "<-"
            engine.record(kind, f"{nbytes}B {arrow} PE{pe} tag={tag}")
            engine.spans.begin(self.rank, "op", kind, {
                "bytes": nbytes, "nelems": nelems, "stride": stride,
                "target": pe, "remote": pe != self.rank, "tag": tag,
            })

    def _msg_deliver(self, msg, dest: int, nelems: int, stride: int,
                     dt: np.dtype) -> None:
        """Check ``msg`` carries exactly ``nelems`` elements (mailbox
        protocols are fixed-format by design) and scatter its payload."""
        nbytes = nelems * dt.itemsize
        if msg.nbytes != nbytes:
            raise MailboxProtocolError(
                f"PE {self.rank}: receive expected {nbytes}B but the "
                f"message from PE {msg.src} carries {msg.nbytes}B"
            )
        if nelems:
            self.pe.advance(self._transfer.loop_ns[nelems])
            self.pe.advance(
                self.machine.hierarchy_of(self.rank).access_strided(
                    dest, nelems, dt.itemsize, stride, write=True))
            dview = self._memory.view(dest, dt, nelems, stride)
            dview[:] = msg.data
            if msg.fault is not None:
                self._faults.corrupt_payload(dview, msg.fault)

    def msg_recv(self, dest: int, nelems: int, stride: int, pe: int,
                 tag: int = 0, dtype: str | np.dtype = "long") -> None:
        """Receive the next message from ``pe`` into local ``dest``.

        Blocks (in simulated time) until the (``pe``, self) pair's FIFO
        delivers; verifies ``tag`` and the payload size against
        ``nelems``, then scatters the payload.  ``nelems == 0`` consumes
        a payload-free control message without touching ``dest``.
        """
        self._require_active()
        dt = resolve_dtype(dtype)
        self._check_args(nelems, stride, pe)
        engine = self.machine.engine
        engine.checkpoint()
        self._msg_open("recv", nelems * dt.itemsize, nelems, stride, pe, tag)
        while not self._msg_take(dest, nelems, stride, pe, tag, dt):
            engine.suspend()  # resumed by the matching send's enqueue

    def _msg_take(self, dest: int, nelems: int, stride: int, pe: int,
                  tag: int, dt: np.dtype) -> bool:
        """A receive's second half: take the next message from ``pe``
        into ``dest`` and close the span — or, with none queued, leave
        this PE registered as waiting and return ``False``."""
        try:
            msg = self.machine.mailbox.recv(self.rank, pe, tag)
            if msg is None:
                return False
            self._msg_deliver(msg, dest, nelems, stride, dt)
        except BaseException:
            self.spans.end(self.rank)
            raise
        self.spans.end(self.rank)
        return True

    def msg_try_recv(self, dest: int, nelems: int, stride: int,
                     pe: int | None = None,
                     dtype: str | np.dtype = "long"
                     ) -> tuple[int, int] | None:
        """Non-blocking receive: consume the oldest *visible* message.

        Returns ``(source, tag)`` after scattering the payload into
        ``dest``, or ``None`` when no delivered message (optionally from
        ``pe``) is queued.  The payload must carry exactly ``nelems``
        elements.
        """
        self._require_active()
        dt = resolve_dtype(dtype)
        self._check_args(nelems, stride, pe if pe is not None else 0)
        self.machine.engine.checkpoint()
        msg = self.machine.mailbox.try_recv(self.rank, pe)
        if msg is None:
            return None
        self._msg_deliver(msg, dest, nelems, stride, dt)
        return msg.src, msg.tag

    def msg_probe(self, pe: int | None = None) -> bool:
        """Whether a delivered message (optionally from ``pe``) awaits."""
        self._require_active()
        if pe is not None:
            self._check_args(0, 1, pe)
        return self.machine.mailbox.probe(self.rank, pe)
