"""The xbrtime context core: one implementation of the PE context.

The paper's runtime is one small C surface (``xbrtime_init/close/mype/
num_pes/malloc/free/barrier``, typed ``put``/``get``, the collectives)
over one symmetric memory layout (Figure 2).  :class:`CollectiveAPI` is
that surface, implemented once; the three execution backends' contexts
— the simulator's :class:`~repro.runtime.context.XBRTime`, the
multiprocessing backend's :class:`~repro.backends.mp.MPContext` and the
vectorized backend's :class:`~repro.backends.vec.VecContext` — inherit
it and specialise only at the seams listed in
:mod:`repro.backends.base`.  Everything else — lifecycle and its guard
messages, identity, heap call-index bookkeeping, scratch/private
allocation, views, argument validation, supersteps, spans, every
collective front-end and the typed Table-1 surface — is *the same
function object* on all three (``tests/backends/test_context_protocol.py``
enforces it).

The seam methods carry the modelled-time implementation here, written
against an engine-driven *world* (:class:`~repro.runtime.context.Machine`
or :class:`~repro.backends.vec.VecWorld`: ``engine``, ``barriers``,
``transfers``, ``hierarchy_of``), because two of the three backends use
it unchanged; the wall-clock backend overrides them.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from importlib import import_module
from typing import Any, Iterator, Sequence

import numpy as np

from ..errors import (
    AddressError,
    CollectiveArgumentError,
    PeerFailedError,
    RuntimeStateError,
    SimulationError,
)
from ..isa.memory import Memory
from ..memo import Memo
from ..params import MachineConfig
from ..types import typeinfo
from .symmetric_heap import FreeListAllocator, ScratchStack, SymmetricHeap

__all__ = ["CollectiveAPI", "resolve_dtype"]

#: Modelled runtime bookkeeping: OLB fill at ``init`` and the collective
#: heap calls (free on a wall-clock backend, whose ``compute`` is a no-op).
INIT_NS = 200.0
MALLOC_NS = 50.0
FREE_NS = 30.0


def _resolve_dtype(t: str | np.dtype | type) -> np.dtype:
    if isinstance(t, str):
        return typeinfo(t).dtype
    return np.dtype(t)


#: Every TYPENAME / dtype / type resolved so far (a few dozen at most).
_DTYPES = Memo(_resolve_dtype)


def resolve_dtype(t: str | np.dtype | type) -> np.dtype:
    """Accept a Table 1 TYPENAME, a numpy dtype or a Python/numpy type."""
    try:
        return _DTYPES[t]
    except TypeError:  # an unhashable dtype spec (a list of fields)
        return np.dtype(t)


class _DisabledSpans:
    """Span-recorder stub for backends that record no spans."""

    enabled = False


_NO_SPANS = _DisabledSpans()


class _Above:
    """The front doors' names from the layers above the core (the
    collectives' request module among them), each imported on its first
    use and bound here from then on.  Those modules import the core, so
    the core cannot import them when it is imported itself; and an
    import statement in a front door would run importlib's Python frames
    on every call."""

    _WHERE = {
        "request": "..collectives",
        "resilient_broadcast": "..faults.resilient",
        "resilient_reduce": "..faults.resilient",
        "resilient_allreduce": "..faults.resilient",
        "superstep_context": ".superstep",
    }

    def __getattr__(self, name: str):
        try:
            where = self._WHERE[name]
        except KeyError:
            raise AttributeError(name) from None
        value = getattr(import_module(where, __package__), name)
        setattr(self, name, value)
        return value


_above = _Above()


class CollectiveAPI:
    """Per-PE runtime context (the xbrtime API surface).

    Typed wrappers (``ctx.int_put``, ``ctx.double_broadcast``,
    ``ctx.long_reduce_sum``, ...) are installed by
    :mod:`repro.runtime.typed` at the bottom of this module, so every
    backend's context inherits the same ones.
    """

    #: Which execution backend this context belongs to.
    backend_name: str
    #: This PE's world rank.
    rank: int
    #: The machine configuration (memory layout, topology, costs).
    config: MachineConfig
    #: The all-PEs group tuple.
    world_group: tuple[int, ...]

    #: Active :class:`~repro.runtime.superstep.Superstep`, or ``None``
    #: (eager mode).  Set per-instance by ``superstep()``.
    _superstep = None

    #: Default group for collectives called without ``group`` (``None`` =
    #: the whole world); a team-scoped mp context sets its sync group.
    default_group: tuple[int, ...] | None = None

    #: The engine-driven world this context runs on (``None`` on a
    #: wall-clock backend, where each PE is a process of its own).
    machine = None

    #: Seam (vec): a method taking over whole-schedule execution from the
    #: step interpreter — see ``execute_schedule``.
    schedule_evaluator = None

    #: Seam (sim): how compiled schedules execute, ``"onesided"`` or
    #: ``"mailbox"``.
    schedule_transport = "onesided"

    def __init__(self, world, pe):
        """Bind to PE ``pe`` of an engine-driven ``world``."""
        rank = pe.rank
        self._init_core(rank, world.config, world.memories, world.heap,
                        world.scratch_stacks[rank],
                        world.private_allocators[rank],
                        world.stats.collective_calls, world.faults)
        self.machine = world
        self.pe = pe
        self._transfer = world.transfers[rank]

    def _init_core(self, rank: int, config: MachineConfig,
                   memories: Sequence[Memory], heap: SymmetricHeap,
                   scratch: ScratchStack, private: FreeListAllocator,
                   collective_calls: Counter, faults=None) -> None:
        """The state every backend's context has."""
        self.rank = rank
        self.config = config
        self.world_group = tuple(range(config.n_pes))
        self._memories = memories
        self._memory = memories[rank]
        #: (addr, nelems, stride, dtype) -> a view of this PE's memory,
        #: kept across calls for the schedule executor's local steps.
        self._views: dict = {}
        self._heap = heap
        self._scratch = scratch
        self._private = private
        self._heap_base = scratch.base
        self._heap_calls = 0
        #: Collective calls counted per stats key.
        self.collective_calls = collective_calls
        #: Armed fault injector (``None`` = clean run; sim only).
        self._faults = faults
        self._active = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def init(self) -> None:
        """``xbrtime_init``: bring the runtime up; synchronises all PEs."""
        if self._active:
            raise RuntimeStateError(f"PE {self.rank}: init() called twice")
        if self._closed:
            raise RuntimeStateError(f"PE {self.rank}: init() after close()")
        self._active = True
        self.compute(INIT_NS)
        self._sync()

    def close(self) -> None:
        """``xbrtime_close``: tear the runtime down; synchronises all PEs."""
        self._require_active()
        try:
            self._sync()
        except PeerFailedError:
            pass  # dead peers cannot join teardown; survivors still close
        self._active = False
        self._closed = True

    def _require_active(self) -> None:
        if not self._active:
            raise RuntimeStateError(
                f"PE {self.rank}: runtime used outside init()/close()"
            )
        faults = self._faults
        if faults is not None:
            # Every runtime call is a fault checkpoint: due stalls fire
            # here, and a scheduled crash kills this PE here.
            faults.check_pe(self.rank, self.pe.clock)

    # -- identity ---------------------------------------------------------------

    def my_pe(self) -> int:
        """``xbrtime_mype``."""
        self._require_active()
        return self.rank

    def num_pes(self) -> int:
        """``xbrtime_num_pes``."""
        self._require_active()
        return self.config.n_pes

    def failed_pes(self) -> frozenset[int]:
        """Ranks this PE has *observed* dead so far (fault injection;
        always empty on backends without it).

        For group-membership decisions inside resilient collectives use
        the :class:`~repro.errors.PeerFailedError` payload instead —
        different PEs may observe a crash at different times, but all
        survivors of one barrier instance receive the same payload.
        """
        faults = self._faults
        return faults.dead_pes if faults is not None else frozenset()

    def live_pes(self) -> tuple[int, ...]:
        """World ranks not (yet) crashed, in rank order."""
        dead = self.failed_pes()
        return tuple(r for r in self.world_group if r not in dead)

    # -- protocol accessors -----------------------------------------------------

    @property
    def spans(self):
        """The span recorder (seam: only sim records spans)."""
        return _NO_SPANS

    def count_collective(self, stats_key: str) -> None:
        """Count one collective call under ``stats_key``."""
        self.collective_calls[stats_key] += 1

    def executing_rank(self) -> int | None:
        """The rank whose code is executing on this OS thread right now.

        ``None`` when called from outside PE code (driver / tests).  On
        an engine all PE contexts live in one process, so this is how
        shared objects (non-blocking handles) detect being driven by the
        wrong PE; on the multiprocessing backend each process *is* one
        PE and the answer is constant.
        """
        try:
            return self.machine.engine.current.rank
        except SimulationError:
            return None

    # -- memory management ---------------------------------------------------------

    def malloc(self, nbytes: int, align: int = 16) -> int:
        """Collective symmetric allocation: every PE receives the same
        address (same offset in the shared segment, Figure 2)."""
        self._require_active()
        idx = self._heap_calls
        self._heap_calls += 1
        self.compute(MALLOC_NS)
        return self._heap.collective_malloc(idx, nbytes, align)

    def free(self, addr: int) -> None:
        """Collective symmetric free."""
        self._require_active()
        idx = self._heap_calls
        self._heap_calls += 1
        self.compute(FREE_NS)
        self._heap.collective_free(idx, addr)

    def scratch_alloc(self, nbytes: int, align: int = 16) -> int:
        """Symmetric *scratch* allocation for collective work buffers.

        Unlike :meth:`malloc` this needs no participation from other
        PEs: every PE's scratch stack starts at the same base, so the
        participants of one collective (even a team subset) obtain the
        same address by pushing the same sizes in the same order.
        Frees are LIFO.
        """
        self._require_active()
        return self._scratch.alloc(nbytes, align)

    def scratch_free(self, addr: int) -> None:
        self._require_active()
        self._scratch.free(addr)

    def private_malloc(self, nbytes: int, align: int = 16) -> int:
        """Allocate in this PE's *private* segment (not remotely visible)."""
        self._require_active()
        return self._private.alloc(nbytes, align)

    def private_free(self, addr: int) -> None:
        self._require_active()
        self._private.free(addr)

    def is_symmetric(self, addr: int) -> bool:
        """Whether ``addr`` lies in the shared (symmetric) segment."""
        return addr >= self._heap_base

    def view(self, addr: int, dtype: str | np.dtype, count: int,
             stride: int = 1) -> np.ndarray:
        """A numpy view of local memory (aliases the PE's memory)."""
        return self._memory.view(addr, resolve_dtype(dtype), count, stride)

    def view_on(self, pe: int, addr: int, dtype: str | np.dtype, count: int,
                stride: int = 1) -> np.ndarray:
        """A view of *another* PE's memory — for tests and verification
        phases only; programs should use get/put."""
        return self._memories[pe].view(addr, resolve_dtype(dtype), count,
                                       stride)

    # -- clock seam (modelled time; wall-clock backends override) ---------------------

    @property
    def time_ns(self) -> float:
        """This PE's modelled wall-clock time.

        Internal event times are undilated; the reported clock applies
        the host-oversubscription dilation
        (:attr:`MachineConfig.time_dilation`) so measured throughput
        reflects the paper's oversubscribed 12-core simulation host.
        """
        return self.pe.clock * self.config.time_dilation

    def compute(self, ns: float) -> None:
        """Charge ``ns`` of local computation to this PE."""
        self.pe.advance(ns)

    def charge_access(self, addr: int, nbytes: int = 8, write: bool = False) -> float:
        """Charge one memory access through the memory-cost provider."""
        ns = self.machine.hierarchy_of(self.rank).access(addr, nbytes, write)
        self.pe.advance(ns)
        return ns

    def charge_stream(self, addr: int, nbytes: int, write: bool = False) -> float:
        """Charge a sequential sweep over ``nbytes`` of memory."""
        ns = self.machine.hierarchy_of(self.rank).access_range(addr, nbytes, write)
        self.pe.advance(ns)
        return ns

    # -- barrier seam ------------------------------------------------------------------

    def _sync(self) -> None:
        """The context's own barrier (``init``/``close``/``barrier``)."""
        self.machine.barriers.barrier(self.rank)

    def barrier(self) -> None:
        """``xbrtime_barrier``: synchronise all PEs and drain the network."""
        self._require_active()
        self._sync()

    def barrier_team(self, members: Sequence[int]) -> None:
        """Barrier over a subset of PEs (teams, paper section 7)."""
        self._require_active()
        self.machine.barriers.barrier(self.rank, tuple(members))

    # -- one-sided communication (data-movement seam: ``self._transfer``) --------------

    def _check_args(self, nelems: int, stride: int, target: int) -> None:
        if nelems < 0:
            raise CollectiveArgumentError(f"nelems must be >= 0, got {nelems}")
        if stride < 1:
            raise CollectiveArgumentError(f"stride must be >= 1, got {stride}")
        if not 0 <= target < self.config.n_pes:
            raise CollectiveArgumentError(
                f"pe {target} out of range [0, {self.config.n_pes})"
            )

    def put(self, dest: int, src: int, nelems: int, stride: int, pe: int,
            dtype: str | np.dtype = "long") -> None:
        """``xbrtime_TYPE_put``: write ``nelems`` elements (``stride``
        apart at both ends) from local ``src`` to ``dest`` on ``pe``."""
        if not self._active or self._faults is not None:
            self._require_active()
        if nelems < 0 or stride < 1 or not 0 <= pe < self.config.n_pes:
            self._check_args(nelems, stride, pe)
        self._transfer.put(dest, src, nelems, stride, pe, resolve_dtype(dtype))

    def get(self, dest: int, src: int, nelems: int, stride: int, pe: int,
            dtype: str | np.dtype = "long") -> None:
        """``xbrtime_TYPE_get``: read ``nelems`` elements from ``src`` on
        ``pe`` into local ``dest``."""
        if not self._active or self._faults is not None:
            self._require_active()
        if nelems < 0 or stride < 1 or not 0 <= pe < self.config.n_pes:
            self._check_args(nelems, stride, pe)
        self._transfer.get(dest, src, nelems, stride, pe, resolve_dtype(dtype))

    def put_nb(self, dest: int, src: int, nelems: int, stride: int, pe: int,
               dtype: str | np.dtype = "long"):
        """Non-blocking put; complete with :meth:`wait` or :meth:`quiet`."""
        self._require_active()
        self._check_args(nelems, stride, pe)
        return self._transfer.put_nb(dest, src, nelems, stride, pe,
                                     resolve_dtype(dtype))

    def get_nb(self, dest: int, src: int, nelems: int, stride: int, pe: int,
               dtype: str | np.dtype = "long"):
        """Non-blocking get; data is valid after :meth:`wait`."""
        self._require_active()
        self._check_args(nelems, stride, pe)
        return self._transfer.get_nb(dest, src, nelems, stride, pe,
                                     resolve_dtype(dtype))

    def amo(self, addr: int, value: int, pe: int, op: str = "add",
            dtype: str | np.dtype = "uint64") -> int:
        """Remote atomic fetch-and-op (xBGAS ``eamoOP.d``): atomically
        replace the 64-bit word at ``addr`` on ``pe`` with
        ``old OP value`` and return ``old``.

        Ops: add, xor, and, or, swap, min, max.  Unlike the
        get-modify-put idiom, concurrent AMOs on one cell never lose
        updates.  ``addr`` must be 8-byte aligned, as RISC-V AMOs
        require (:class:`~repro.errors.AddressError` otherwise).
        """
        if not self._active or self._faults is not None:
            self._require_active()
        if not 0 <= pe < self.config.n_pes:
            self._check_args(1, 1, pe)
        dt = resolve_dtype(dtype)
        if dt.itemsize != 8 or dt.kind not in "iu":
            raise CollectiveArgumentError(
                f"AMOs operate on 64-bit integer types, not {dt}"
            )
        if addr & 7:
            raise AddressError(
                f"PE {self.rank}: AMO at {addr:#x} on PE {pe} is not "
                "8-byte aligned (eamo*.d requires natural alignment)"
            )
        old = self._transfer.amo(addr, value, pe, op)
        return old - (1 << 64) if dt.kind == "i" and old >> 63 else old

    def drive(self, step) -> None:
        """Run a PE-side step loop to its end.

        ``step(limit)`` is a resumable loop of this PE's operations —
        a bound method, or a primed generator's ``send`` — that keeps
        its position across calls and returns ``PEState.RUNNING`` at its
        end.  Given a ``limit``, it keeps the executor's rules: before
        each operation that yields (a put, get or amo) it makes the fault
        checkpoint (``_require_active``) when an injector is armed, then
        returns ``PEState.RUNNABLE`` if this PE's clock is past
        ``limit``.  On a direct-handoff engine it runs as a continuation
        (``Engine.drive``), which another PE's thread may call;
        everywhere else (mp, ``Machine(fast_paths=False)``) it is called
        once with ``None`` and runs to its end here, its puts and gets
        yielding in place.
        """
        machine = self.machine
        engine = machine.engine if machine is not None else None
        if engine is not None and engine.direct_handoff:
            engine.drive(step)
        else:
            step(None)

    def wait(self, handle) -> None:
        """Complete one non-blocking transfer."""
        self._require_active()
        self._transfer.wait(handle)

    def quiet(self) -> None:
        """Complete all outstanding non-blocking transfers of this PE."""
        self._require_active()
        self._transfer.quiet()

    # -- supersteps ------------------------------------------------------------

    def superstep(self):
        """Defer this PE's puts/gets/collectives until the step's end.

        ``with ctx.superstep() as step:`` buffers the body's one-sided
        transfers and collective calls (those of a
        :class:`~repro.collectives.teams.Team` or a
        :class:`~repro.baselines.shmem.ShmemAPI` on this context
        included); the flush at the ``with`` exit
        (or at an explicit ``ctx.barrier()`` inside the body) coalesces
        contiguous transfers and batches compatible collectives into
        one fused schedule.  Byte-identical to eager execution for
        race-free bodies; see :mod:`repro.runtime.superstep`.
        Supersteps do not nest.
        """
        return _above.superstep_context(self)

    def _issue(self, prepared) -> None:
        """Run one prepared collective now, or queue it on the active
        superstep — the one place a collective call makes that choice.

        Every front end issues through here: the collective methods
        below, :class:`~repro.collectives.teams.Team` and
        :class:`~repro.baselines.shmem.ShmemAPI`.
        """
        if self._superstep is None:
            prepared.run(self)
        else:
            self._superstep.defer(prepared)

    # -- tracing ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Wrap a region of PE code in a named trace span.

        A no-op when tracing is disabled (always, off the simulator);
        with ``Machine(trace=True)`` the span appears in the
        Chrome-trace export as a ``user`` category interval on this PE's
        track, nesting around whatever puts/gets/collectives the region
        performs.
        """
        spans = self.spans
        if not spans.enabled:
            yield
            return
        spans.begin(self.rank, "user", name, attrs or None)
        try:
            yield
        finally:
            spans.end(self.rank)

    # -- collectives (binomial tree, section 4) ------------------------------------------

    def broadcast(self, dest: int, src: int, nelems: int, stride: int,
                  root: int, dtype: str | np.dtype = "long",
                  algorithm: str = "binomial") -> None:
        """``xbrtime_TYPE_broadcast`` (Algorithm 1)."""
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["broadcast"], dest, src,
            nelems, stride, root, resolve_dtype(dtype), algorithm=algorithm))

    def reduce(self, dest: int, src: int, nelems: int, stride: int,
               root: int, op: str = "sum", dtype: str | np.dtype = "long",
               algorithm: str = "binomial") -> None:
        """``xbrtime_TYPE_reduce_OP`` (Algorithm 2)."""
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["reduce"], dest, src, nelems,
            stride, root, op, resolve_dtype(dtype), algorithm=algorithm))

    def scatter(self, dest: int, src: int, pe_msgs: Sequence[int],
                pe_disp: Sequence[int], nelems: int, root: int,
                dtype: str | np.dtype = "long") -> None:
        """``xbrtime_TYPE_scatter`` (Algorithm 3)."""
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["scatter"], dest, src, pe_msgs,
            pe_disp, nelems, root, resolve_dtype(dtype)))

    def gather(self, dest: int, src: int, pe_msgs: Sequence[int],
               pe_disp: Sequence[int], nelems: int, root: int,
               dtype: str | np.dtype = "long") -> None:
        """``xbrtime_TYPE_gather`` (Algorithm 4)."""
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["gather"], dest, src, pe_msgs,
            pe_disp, nelems, root, resolve_dtype(dtype)))

    # -- extended collectives (paper section 7 future work) --------------------------------

    def allreduce(self, dest: int, src: int, nelems: int, stride: int,
                  op: str = "sum", dtype: str | np.dtype = "long",
                  algorithm: str = "doubling",
                  segments: int | None = None) -> None:
        """One-sided reduction-to-all: ``"doubling"`` (latency-optimal,
        half the stages of a reduce+broadcast composition),
        ``"rabenseifner"`` (bandwidth-optimal reduce-scatter+allgather,
        the paper's reference [17]), ``"ring"`` (bandwidth-optimal for
        any PE count), ``"dual-pipelined"`` (doubly pipelined dual-root
        trees — ``segments`` chunks in flight, the large-payload winner
        off power-of-two) or ``"auto"``."""
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["allreduce"], dest, src,
            nelems, stride, op, resolve_dtype(dtype), algorithm=algorithm,
            segments=segments))

    def reduce_scatter(self, dest: int, src: int, pe_msgs: Sequence[int],
                       pe_disp: Sequence[int], nelems: int,
                       op: str = "sum", dtype: str | np.dtype = "long",
                       algorithm: str = "auto",
                       segments: int = 1) -> None:
        """Reduce-scatter: PE ``r`` ends with the reduction of its
        ``pe_msgs[r]``-element block (at ``pe_disp[r]``) in ``dest``.

        ``algorithm`` is ``"ring"`` (N-1 one-block stages), ``"pat"``
        (⌈log₂N⌉-round parallel aggregated trees, optionally pipelined
        over ``segments`` chunks per block) or ``"auto"``.  Neither
        ``dest`` nor ``src`` needs to be symmetric.
        """
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["reduce_scatter"], dest, src,
            pe_msgs, pe_disp, nelems, op, resolve_dtype(dtype),
            algorithm=algorithm, segments=segments))

    def scan(self, dest: int, src: int, nelems: int, stride: int,
             op: str = "sum", dtype: str | np.dtype = "long",
             inclusive: bool = True) -> None:
        """Parallel prefix scan (Hillis-Steele, one-sided)."""
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["scan"], dest, src, nelems,
            stride, op, resolve_dtype(dtype), inclusive=inclusive))

    def allgather(self, dest: int, src: int, pe_msgs: Sequence[int],
                  pe_disp: Sequence[int], nelems: int,
                  dtype: str | np.dtype = "long",
                  algorithm: str = "tree",
                  segments: int = 1) -> None:
        """Gather-to-all (OpenSHMEM ``collect`` semantics).

        ``algorithm`` is ``"tree"`` (gather+broadcast composition),
        ``"dissemination"`` (⌈log₂N⌉-stage doubling exchange), ``"pat"``
        (dest-direct parallel aggregated trees) or ``"auto"``.
        """
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["allgather"], dest, src, pe_msgs,
            pe_disp, nelems, resolve_dtype(dtype), algorithm=algorithm,
            segments=segments))

    def alltoall(self, dest: int, src: int, nelems_per_pe: int,
                 dtype: str | np.dtype = "long") -> None:
        """Personalised all-to-all exchange."""
        self._require_active()
        self._issue(_above.request.prepare(
            self, _above.request.COLLECTIVES["alltoall"], dest, src,
            nelems_per_pe, resolve_dtype(dtype)))

    # -- resilient collectives (fault-injection runs) ----------------------------------

    def _forbid_superstep(self, what: str) -> None:
        # Resilient collectives return survivor masks the body usually
        # branches on; deferring them would hand the body a result that
        # does not exist yet.
        if self._superstep is not None:
            raise RuntimeStateError(
                f"{what} cannot be deferred inside a superstep — its "
                "result is consumed immediately"
            )

    def resilient_broadcast(self, dest: int, src: int, nelems: int,
                            stride: int, root: int,
                            dtype: str | np.dtype = "long", *,
                            max_restarts: int = 8):
        """Broadcast that survives PE crashes by re-rooting the binomial
        tree over the survivors; returns a
        :class:`~repro.faults.resilient.ResilientResult`."""
        self._require_active()
        self._forbid_superstep("resilient_broadcast")
        return _above.resilient_broadcast(
            self, dest, src, nelems, stride, root, resolve_dtype(dtype),
            max_restarts=max_restarts)

    def resilient_reduce(self, dest: int, src: int, nelems: int,
                         stride: int, root: int, op: str = "sum",
                         dtype: str | np.dtype = "long", *,
                         max_restarts: int = 8):
        """Eventually consistent reduction: folds the survivors' values
        and reports the contribution mask."""
        self._require_active()
        self._forbid_superstep("resilient_reduce")
        return _above.resilient_reduce(
            self, dest, src, nelems, stride, root, op, resolve_dtype(dtype),
            max_restarts=max_restarts)

    def resilient_allreduce(self, dest: int, src: int, nelems: int,
                            stride: int, op: str = "sum",
                            dtype: str | np.dtype = "long", *,
                            max_restarts: int = 8):
        """Eventually consistent allreduce over the survivors."""
        self._require_active()
        self._forbid_superstep("resilient_allreduce")
        return _above.resilient_allreduce(
            self, dest, src, nelems, stride, op, resolve_dtype(dtype),
            max_restarts=max_restarts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(pe={self.rank}/{self.config.n_pes}, "
                f"t={self.time_ns:.0f} ns)")


# Install the per-TYPENAME call surface (Table 1) once, on the core.
from . import typed as _typed  # noqa: E402  (typed needs nothing from here)

_typed.install_typed_api(CollectiveAPI)
