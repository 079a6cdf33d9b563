"""GUPs (RandomAccess) adapted from the ORNL OpenSHMEM benchmark suite.

Each PE owns a block of a global table of 64-bit words and applies a
stream of XOR updates at pseudo-random global indices (the HPCC
polynomial LCG).  Remote updates use the one-sided get-modify-put idiom
of the OSB SHMEM port; the run brackets with the broadcast (parameters)
and reduction (error count / statistics) collectives, which is why the
paper uses it to exercise the collective library.

Verification follows HPCC (the paper runs "with the verification
features enabled"): the same update stream is applied a second time —
XOR is an involution, so the table must return to its initial state;
any cell that does not is an error.  Because the get-modify-put idiom
is not atomic, concurrent updates of one cell can lose an update;
HPCC accepts a run when errors stay at or below 1 % of the updates,
and so does :attr:`GupsResult.passed`.

Each pass of the update stream is one resumable step loop
(:class:`_UpdateStream`, run by ``ctx.drive``).  It keeps its update
index, LCG state and phase — before the get (or amo), before the put —
across calls, and before each remote operation it makes the fault
checkpoint and stops once the PE's clock passes the earliest other
runnable PE's, exactly where a thread per PE would yield.  So on the
simulator's direct-handoff engine the stream runs as an engine
continuation, in whichever thread holds the machine, and an update
phase costs a constant number of thread switches instead of one per
remote access; on mp and under ``Machine(fast_paths=False)`` the same
loop runs straight through with its operations yielding in place.
Clocks, bytes, trace events and spans are the same either way.

The reported metric matches Figure 4: operations (updates) per second,
total and per PE.  The default table is 2^21 words (16 MiB) — larger
than one 8 MB L2, so the per-PE slice *fits* in L2 only once the table
is split 2+ ways; this cache-capacity effect plus the shared-bus
contention at 8 PEs reproduces the figure's shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import CollectiveArgumentError
from ..params import MachineConfig
from ..runtime.context import Machine, XBRTime
from ..sim.engine import PEState

__all__ = ["POLY", "hpcc_starts", "GupsParams", "GupsResult", "run_gups",
           "run_gups_backend"]

MASK64 = (1 << 64) - 1
#: The HPCC RandomAccess polynomial (x^63 + x^2 + x + 1).
POLY = 0x0000000000000007
PERIOD = 1317624576693539401

_U64 = np.dtype("uint64")
_RUNNING, _RUNNABLE = PEState.RUNNING, PEState.RUNNABLE


def _lcg_step(ran: int) -> int:
    """One step of the HPCC LCG over GF(2)[x]/(POLY)."""
    return ((ran << 1) & MASK64) ^ (POLY if ran >> 63 else 0)


def _mix64(x: int) -> int:
    """MurmurHash3 finalizer, decorrelating the LCG's low bits.

    HPCC masks the raw LCG value with ``TableSize - 1``; at full scale
    (2^30 words, 4N updates) the shift-register correlation in the low
    bits washes out, but at this reproduction's scaled sizes it would
    leave the index stream pathologically local (a few hundred distinct
    pages).  Mixing restores the uniform access pattern the benchmark
    is about while keeping the stream fully reproducible.
    """
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & MASK64
    x ^= x >> 33
    return x


def hpcc_starts(n: int) -> int:
    """HPCC ``starts``: the LCG state after ``n`` steps from 1.

    Used to give every PE an independent slice of the single global
    update stream, exactly as HPCC RandomAccess does.
    """
    n = n % PERIOD
    if n == 0:
        return 1
    # m2[i] = x^(2^i) in the field, by repeated squaring steps.
    m2 = []
    temp = 1
    for _ in range(64):
        m2.append(temp)
        temp = _lcg_step(_lcg_step(temp))
    i = 62
    while i >= 0 and not (n >> i) & 1:
        i -= 1
    ran = 2
    while i > 0:
        temp = 0
        for j in range(64):
            if (ran >> j) & 1:
                temp ^= m2[j]
        ran = temp
        i -= 1
        if (n >> i) & 1:
            ran = _lcg_step(ran)
    return ran


@dataclass(frozen=True)
class GupsParams:
    """Workload configuration.

    ``log2_table_size`` is the global table size in words;
    ``updates_per_pe`` scales simulation effort (HPCC's 4×TableSize is
    far beyond what a Python-process simulation needs for a stable
    rate; the rate converges within a few thousand updates).
    """

    log2_table_size: int = 21
    updates_per_pe: int = 2048
    verify: bool = True
    #: Offsets every PE's slice of the HPCC update stream by whole
    #: runs (seed ``s`` starts the machine at stream position
    #: ``(s·n_pes + rank)·updates``), so different seeds exercise
    #: different index sequences while ``seed=0`` reproduces the
    #: benchmark's canonical stream.  Same seed ⇒ same run, exactly.
    seed: int = 0
    #: Use the xBGAS remote atomic (``eamoxor.d``) instead of the OSB
    #: get-modify-put idiom: one network transaction per update and no
    #: lost updates under contention.
    use_amo: bool = False
    #: Per-update runtime-call + RNG + index-arithmetic cost (ns at
    #: 1 GHz — the xbrtime call path runs ~150 instructions per update).
    update_overhead_ns: float = 150.0

    @property
    def table_size(self) -> int:
        return 1 << self.log2_table_size


@dataclass(frozen=True)
class GupsResult:
    """One GUPs run (one row of Figure 4)."""

    n_pes: int
    table_size: int
    total_updates: int
    sim_seconds: float
    errors: int
    verified: bool
    seed: int = 0
    #: Host wall-clock time of the run (simulator cost, not a modeled
    #: quantity) — makes perf regressions visible in saved results.
    wall_seconds: float = 0.0
    #: Simulated nanoseconds produced per wall-clock second.
    sim_ns_per_wall_s: float = 0.0

    @property
    def mops_total(self) -> float:
        """Million updates per second, all PEs."""
        return self.total_updates / self.sim_seconds / 1e6

    @property
    def mops_per_pe(self) -> float:
        return self.mops_total / self.n_pes

    @property
    def gups(self) -> float:
        """Billion updates per second (the benchmark's native unit)."""
        return self.total_updates / self.sim_seconds / 1e9

    @property
    def passed(self) -> bool:
        """HPCC's acceptance criterion: errors within 1 % of updates."""
        if not self.verified:
            return True
        return self.errors <= 0.01 * self.total_updates


class _UpdateStream:
    """One pass over a PE's slice of the update stream, as a step loop
    (:meth:`~repro.runtime.collective_api.CollectiveAPI.drive`).

    Called, it applies updates from where it stopped.  Given a
    ``limit``, it stops before a get, put or amo — after that
    operation's fault checkpoint — once this PE's clock is past
    ``limit``, and returns ``RUNNABLE``: where a thread per PE would
    yield inside the operation, so clocks, bytes and traces are that
    thread's.  With no ``limit`` it runs to the end, each operation
    yielding in place.  ``own`` (whether this is the PE's own thread)
    changes nothing here: no operation of the stream can block.
    """

    __slots__ = ("ctx", "params", "table", "table_addr", "local_size",
                 "scratch", "sview", "ran", "left", "phase", "owner",
                 "off")

    def __init__(self, ctx, params: GupsParams, ran: int, updates: int,
                 table: np.ndarray, table_addr: int, scratch: int):
        self.ctx = ctx
        self.params = params
        self.table = table
        self.table_addr = table_addr
        self.local_size = len(table)
        self.scratch = scratch
        self.sview = ctx.view(scratch, _U64, 1)
        #: The LCG state of the update in hand (or the last one).
        self.ran = ran
        #: Updates not yet begun.
        self.left = updates
        #: Where the update in hand stands: 0 done (or none), 1 before
        #: its get or amo, 2 before its put.
        self.phase = 0
        #: The PE and table offset the update in hand goes to.
        self.owner = self.off = 0

    def __call__(self, limit: float | None = None,
                 own: bool = False) -> PEState:
        ctx = self.ctx
        params = self.params
        blocking = limit is None
        pe = None if blocking else ctx.pe
        # Under fault injection every operation goes through the
        # context's front door and its checkpoint; a clean run goes
        # straight to the data-movement seam (its arguments are valid by
        # construction).
        faulty = ctx._faults is not None
        mover = ctx if faulty else ctx._transfer
        me = ctx.rank
        mask = params.table_size - 1
        local_size = self.local_size
        table_addr = self.table_addr
        ran, left, phase = self.ran, self.left, self.phase
        owner, off = self.owner, self.off
        state = _RUNNING
        while True:
            if not phase:
                if not left:
                    break
                left -= 1
                ran = _lcg_step(ran)
                owner, off = divmod(_mix64(ran) & mask, local_size)
                ctx.compute(params.update_overhead_ns)
                if owner == me:
                    ctx.charge_access(table_addr + 8 * off, 8, write=False)
                    ctx.charge_access(table_addr + 8 * off, 8, write=True)
                    self.table[off] ^= np.uint64(ran)
                    continue
                phase = 1
            if not blocking:
                if faulty:
                    ctx._require_active()
                if pe.clock > limit:
                    state = _RUNNABLE
                    break
            addr = table_addr + 8 * off
            if params.use_amo:
                # xBGAS remote atomic: a single fetch-and-xor transaction.
                mover.amo(addr, ran, owner, "xor")
                phase = 0
            elif phase == 1:
                # OSB idiom: one-sided get, xor locally, one-sided put.
                mover.get(self.scratch, addr, 1, 1, owner, _U64)
                self.sview[0] ^= np.uint64(ran)
                phase = 2
            else:
                mover.put(addr, self.scratch, 1, 1, owner, _U64)
                phase = 0
        self.ran, self.left, self.phase = ran, left, phase
        self.owner, self.off = owner, off
        return state


def _gups_pe(ctx: XBRTime, params: GupsParams) -> dict:
    me, n = None, None
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    table_size = params.table_size
    if table_size % n:
        raise CollectiveArgumentError(
            f"table size {table_size} not divisible by {n} PEs"
        )
    local_size = table_size // n
    table_addr = ctx.malloc(8 * local_size)
    table = ctx.view(table_addr, "uint64", local_size)
    # table[i] = global index i (HPCC initialisation).
    base = me * local_size
    table[:] = np.arange(base, base + local_size, dtype=np.uint64)
    ctx.charge_stream(table_addr, 8 * local_size, write=True)

    # Broadcast run parameters from PE 0 (collective warm-up, and how
    # the OSB harness distributes configuration).
    pbuf = ctx.malloc(8 * 2)
    pv = ctx.view(pbuf, "uint64", 2)
    if me == 0:
        pv[0] = table_size
        pv[1] = params.updates_per_pe
    ctx.uint64_broadcast(pbuf, pbuf, 2, 1, 0)
    assert int(pv[0]) == table_size

    updates = int(pv[1])
    start_seed = hpcc_starts((params.seed * n + me) * updates)
    scratch = ctx.private_malloc(8)

    def stream() -> _UpdateStream:
        """This PE's slice of the global update stream, from the top."""
        return _UpdateStream(ctx, params, start_seed, updates, table,
                             table_addr, scratch)

    ctx.barrier()
    t0 = ctx.time_ns
    ctx.drive(stream())
    ctx.barrier()
    t1 = ctx.time_ns

    errors = 0
    if params.verify:
        # Apply the identical stream again: XOR twice = identity, so the
        # table must return to table[i] = i.
        ctx.drive(stream())
        ctx.barrier()
        expect = np.arange(base, base + local_size, dtype=np.uint64)
        errors = int(np.count_nonzero(table != expect))
        ctx.charge_stream(table_addr, 8 * local_size)

    # Reduce total errors to PE 0 (the benchmark's closing collective).
    ebuf = ctx.malloc(8)
    ctx.view(ebuf, "uint64", 1)[0] = errors
    eout = ctx.private_malloc(8)
    ctx.uint64_reduce_sum(eout, ebuf, 1, 1, 0)
    total_errors = int(ctx.view(eout, "uint64", 1)[0]) if me == 0 else -1
    ctx.close()
    return {
        "rank": me,
        "t_update_ns": t1 - t0,
        "updates": updates,
        "errors": total_errors,
    }


def run_gups(config: MachineConfig,
             params: GupsParams | None = None) -> GupsResult:
    """Run GUPs on a fresh machine built from ``config``."""
    params = params if params is not None else GupsParams()
    machine = Machine(config)
    wall0 = time.perf_counter()
    results = machine.run(_gups_pe, [(params,) for _ in range(config.n_pes)])
    wall = time.perf_counter() - wall0
    t_ns = max(r["t_update_ns"] for r in results)
    total_updates = sum(r["updates"] for r in results)
    errors = results[0]["errors"]
    return GupsResult(
        n_pes=config.n_pes,
        table_size=params.table_size,
        total_updates=total_updates,
        sim_seconds=t_ns / 1e9,
        errors=max(errors, 0),
        verified=params.verify,
        seed=params.seed,
        wall_seconds=wall,
        sim_ns_per_wall_s=(machine.elapsed_ns / wall) if wall > 0 else 0.0,
    )


def run_gups_backend(config: MachineConfig,
                     params: GupsParams | None = None, *,
                     backend: str = "sim", **session_opts) -> GupsResult:
    """Run GUPs on any execution backend (``"sim"`` or ``"mp"``).

    The *same* per-PE program (:func:`_gups_pe`) runs either way — it is
    written against the PE context protocol.  The reported seconds come
    from ``ctx.time_ns``, which means *modelled* time on the simulator
    and *wall-clock* time on the multiprocessing backend; on ``"mp"``
    :attr:`GupsResult.mops_total` is therefore a true host throughput
    and the basis of the cross-PE-count scaling numbers in
    ``BENCH_mp.json``.
    """
    from ..backends import get_backend

    params = params if params is not None else GupsParams()
    wall0 = time.perf_counter()
    results = get_backend(backend).run(
        _gups_pe, [(params,) for _ in range(config.n_pes)],
        config=config, **session_opts,
    )
    wall = time.perf_counter() - wall0
    t_ns = max(r["t_update_ns"] for r in results)
    total_updates = sum(r["updates"] for r in results)
    errors = results[0]["errors"]
    return GupsResult(
        n_pes=config.n_pes,
        table_size=params.table_size,
        total_updates=total_updates,
        sim_seconds=t_ns / 1e9,
        errors=max(errors, 0),
        verified=params.verify,
        seed=params.seed,
        wall_seconds=wall,
        sim_ns_per_wall_s=0.0,
    )
