"""Vectorized backend: compiled schedules evaluated as numpy batches.

The third execution substrate (``"vec"``).  It keeps the simulator's
cooperative engine for program control flow — init/close, mallocs, raw
one-sided transfers, barriers, teams — but intercepts every *compiled
schedule* through the ``schedule_evaluator`` hook of
:func:`~repro.collectives.schedule.executor.execute_schedule`: the
first ``n-1`` participants of a collective park at a rendezvous, the
last arrival evaluates the whole schedule for every rank at once with
:func:`~repro.collectives.schedule.evaluate.evaluate_group`, then
resumes each peer at its modelled completion time.  Data movement is
exact (byte-identical to the simulator and the multiprocessing backend
— the three-way conformance suite proves it); time is the closed-form
LogGP/cache model of :mod:`repro.collectives.schedule.evaluate`, so
``time_ns`` values *track* the simulator rather than matching it
exactly.

Per-PE memory is one row of a dense ``(n_pes, bytes_per_pe)`` uint8
matrix — the symmetric-address property (paper Figure 2) holds by
construction, and a batched stage touches all rows in one fancy-indexed
gather/scatter.  Raw ``put``/``get``/``amo`` outside schedules run
per-call against the same closed-form cost model, so mixed programs
(schedule collectives + hand-rolled rings + AMO counters) stay
supported.

Session PE counts are capped (threads are per-PE); for 1k-64k PE cost
sweeps use :func:`~repro.collectives.schedule.evaluate.evaluate_schedule`
directly — no engine, no threads.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..collectives.schedule.evaluate import CostModel, evaluate_group
from ..errors import RuntimeStateError, SimulationError
from ..isa.memory import Memory
from ..machine.network import Network
from ..params import MachineConfig
from ..runtime.barrier import BarrierController
from ..runtime.collective_api import CollectiveAPI
from ..runtime.symmetric_heap import segment_layout
from ..runtime.transfer import TransferEngine
from ..sim.engine import Engine, PEProcess
from .base import Backend, BackendSession, resolve_config

__all__ = ["VecBackend", "VecSession", "VecContext", "VecWorld"]

#: Sessions run one engine thread per PE; beyond this, use the
#: standalone evaluator (``evaluate_schedule``) which needs neither.
MAX_SESSION_PES = 1024


class _Rendezvous:
    """Where the ranks of one group leave what the last of them needs to
    evaluate a schedule for all: their bound addresses and clocks."""

    __slots__ = ("sched", "dtype", "slots", "count", "same")

    def __init__(self, sched, dtype: np.dtype, n: int):
        self.sched = sched
        self.dtype = dtype
        self.slots: list = [None] * n
        self.count = 0
        #: Whether everyone so far brought the first arrival's schedule
        #: and dtype — by value where identity misses, since a
        #: ``compile_*`` cache eviction between two ranks' calls hands
        #: them equal schedules that are different objects.
        self.same = True

    def join(self, index: int, sched, dtype: np.dtype, slot) -> None:
        self.slots[index] = slot
        self.count += 1
        if not ((sched is self.sched or sched == self.sched)
                and dtype == self.dtype):
            self.same = False


class VecWorld:
    """Shared state of one vec run: the memory matrix, the engine, the
    network, barrier and transfer machinery of the simulator, and the
    closed-form memory-cost provider.

    Duck-types the slice of :class:`~repro.runtime.context.Machine` that
    the context core, :class:`~repro.runtime.transfer.TransferEngine`
    and :class:`~repro.runtime.barrier.BarrierController` read.  The one
    substantive difference is :meth:`hierarchy_of`: raw transfers charge
    a :class:`~repro.collectives.schedule.evaluate.CostModel` row where
    the simulator walks a stateful cache/TLB hierarchy.
    """

    #: No fault injection, retry protocol or functional cores here.
    faults = retry = isa_path = None

    def __init__(self, config: MachineConfig):
        n = config.n_pes
        self.config = config
        self.engine = Engine(n)
        self.stats = self.engine.stats
        self.network = Network(config, self.stats)
        #: Row ``r`` is PE ``r``'s memory: the symmetric-address property
        #: by construction, and batched stages index all rows at once.
        self.mem = np.zeros((n, config.memory_bytes_per_pe), dtype=np.uint8)
        self.memories = [Memory(buf=row) for row in self.mem]
        self.cost = CostModel(config, n, config.memory_bytes_per_pe)
        self._hier = [self.cost.hierarchy_of(r) for r in range(n)]
        layout = segment_layout(config)
        self.scratch_stacks = [layout.scratch_stack() for _ in range(n)]
        self.heap = layout.symmetric_heap(n)
        self.private_allocators = [layout.private_allocator()
                                   for _ in range(n)]
        self.barriers = BarrierController(self)
        self.transfers = [TransferEngine(self, r) for r in range(n)]
        #: participants tuple -> in-progress schedule rendezvous
        self.rendezvous: dict[tuple[int, ...], _Rendezvous] = {}

    def hierarchy_of(self, pe: int):
        return self._hier[pe]


class VecContext(CollectiveAPI):
    """Per-PE context over one :class:`VecWorld` row.

    The context core unchanged, plus the one vec seam: compiled
    schedules are evaluated for the whole group at once.
    """

    backend_name = "vec"

    # -- the batched schedule hook -----------------------------------------

    def schedule_evaluator(self, sched, members: tuple[int, ...], me: int,
                           addrs: dict, dtype: np.dtype) -> None:
        """Rendezvous-and-batch execution of one compiled schedule.

        Called by :func:`~.executor.execute_schedule` in place of the
        step interpreter, with every buffer already bound in ``addrs``.
        Participants park; the last arrival evaluates the whole group
        with one :func:`evaluate_group` call and resumes each peer at
        its modelled exit clock.
        """
        world = self.machine
        engine = world.engine
        engine.checkpoint()
        key = tuple(members)
        rec = world.rendezvous.get(key)
        if rec is None:
            rec = world.rendezvous[key] = _Rendezvous(
                sched, dtype, len(members))
        rec.join(me, sched, dtype, (addrs, self.pe.clock))
        if not rec.same:
            raise SimulationError(
                f"PE {self.rank}: mismatched collective on group "
                f"{key} ({sched.collective}:{sched.algorithm} vs "
                f"{rec.sched.collective}:{rec.sched.algorithm})"
            )
        if rec.count < len(members):
            engine.suspend()  # resumed by the last arrival, below
            return
        # Pop *before* resuming: peers may immediately enter the
        # next schedule on the same member set.
        del world.rendezvous[key]
        rows = np.asarray(members, dtype=np.int64)
        group_addrs, clocks = zip(*rec.slots)
        end = evaluate_group(world.mem, rows, rows, group_addrs, sched, dtype,
                             clocks, world.network, world.cost,
                             world.stats)
        for g, rank in enumerate(members):
            if rank != self.rank:
                engine.resume(rank, at_time=float(end[g]))
        self.pe.advance_to(float(end[me]))


class VecSession(BackendSession):
    """Runs each program on a fresh :class:`VecWorld`."""

    def __init__(self, config: MachineConfig):
        if config.n_pes > MAX_SESSION_PES:
            raise RuntimeStateError(
                f"vec sessions cap at {MAX_SESSION_PES} PEs (one engine "
                f"thread each); evaluate_schedule() handles "
                f"{config.n_pes} PEs without a session"
            )
        self.config = config
        #: The world of the most recent ``run`` (None before the first).
        self.last_world: VecWorld | None = None

    def run(self, fn: Callable[..., Any],
            args_per_pe: Sequence[tuple] | None = None) -> list[Any]:
        self._require_open()
        world = VecWorld(self.config)
        self.last_world = world

        def wrapper(pe: PEProcess, *extra: Any) -> Any:
            ctx = VecContext(world, pe)
            pe.context = ctx
            return fn(ctx, *extra)

        return world.engine.run(wrapper, args_per_pe)

    def close(self) -> None:
        self._closed = True  # nothing OS-level to release


class VecBackend(Backend):
    """The vectorized batch evaluator (``backend="vec"``)."""

    name = "vec"

    def session(self, config: MachineConfig | None = None, *,
                n_pes: int | None = None, **opts: Any) -> VecSession:
        return VecSession(resolve_config(config, n_pes), **opts)
