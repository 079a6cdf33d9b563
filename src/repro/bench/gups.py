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

Each pass of the update stream is one generator
(:func:`_update_stream`) whose primed ``send`` is a step loop for
``ctx.drive``: the generator's frame keeps the update index, the LCG
state and where the update in hand stands — before the get (or amo),
before the put — across yields.  Before each remote operation it makes
the fault checkpoint and, once the PE's clock passes the earliest other
runnable PE's, yields ``RUNNABLE`` (``limit = yield RUNNABLE``) exactly
where a thread per PE would yield.  So on the simulator's
direct-handoff engine the stream runs as an engine continuation, in
whichever thread holds the machine, and an update phase costs a
constant number of thread switches instead of one per remote access;
on mp and under ``Machine(fast_paths=False)`` one ``send(None)`` runs
the same loop to its end with its operations yielding in place.  Every
mode — faults, tracing, ``fidelity="isa"``, amo, vec — runs that one
loop, and the xor works on the memory's 8-byte word view.  On a clean
direct-handoff machine each remote get and put is the transfer
engine's one-word path ("Remote-op path" in ``DESIGN.md``).  Clocks,
bytes, trace events and spans are the same either way.

The reported metric matches Figure 4: operations (updates) per second,
total and per PE.  The default table is 2^21 words (16 MiB) — larger
than one 8 MB L2, so the per-PE slice *fits* in L2 only once the table
is split 2+ ways; this cache-capacity effect plus the shared-bus
contention at 8 PEs reproduces the figure's shape.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import CollectiveArgumentError
from ..params import MachineConfig
from ..runtime.context import Machine, XBRTime
from ..runtime.symmetric_heap import check_footprint
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

    def __post_init__(self) -> None:
        if self.log2_table_size < 0:
            raise ValueError(f"log2_table_size must be >= 0, not "
                             f"{self.log2_table_size}")
        if self.updates_per_pe < 0:
            raise ValueError(f"updates_per_pe must be >= 0, not "
                             f"{self.updates_per_pe}")
        if not (math.isfinite(self.update_overhead_ns)
                and self.update_overhead_ns >= 0):
            raise ValueError("update_overhead_ns must be finite and >= 0, "
                             f"not {self.update_overhead_ns}")

    @property
    def table_size(self) -> int:
        return 1 << self.log2_table_size

    def check_pes(self, n_pes: int) -> None:
        """Refuse a PE count that does not split the table evenly."""
        if self.table_size % n_pes:
            raise CollectiveArgumentError(
                f"table size {self.table_size} not divisible by {n_pes} PEs"
            )

    def check_config(self, config: MachineConfig) -> None:
        """:meth:`check_pes`, and refuse a table slice that does not fit
        the symmetric heap beside the parameter and error buffers, or a
        private segment that cannot hold the update scratch word, the
        error count's output word and the closing reduce's work word."""
        self.check_pes(config.n_pes)
        check_footprint(
            config, f"GUPs with a 2^{self.log2_table_size}-word table",
            heap=(8 * (self.table_size // config.n_pes), 8 * 2, 8),
            private=(8, 8, 8))


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


def _update_stream(ctx, params: GupsParams, ran: int, updates: int,
                   table_addr: int, local_size: int, scratch: int):
    """One pass over a PE's slice of the update stream, as a generator.

    Primed (``next``), its ``send`` is a step for
    :meth:`~repro.runtime.collective_api.CollectiveAPI.drive`.  Sent a
    ``limit``, it applies updates and yields ``RUNNABLE`` before a get,
    put or amo — after that operation's fault checkpoint — once this
    PE's clock is past ``limit``, where a thread per PE would yield
    inside the operation; the next ``send`` brings the new limit.  Sent
    ``None``, it runs to the end, each operation yielding in place.  At
    its end it yields ``RUNNING``, to every ``send`` from then on.
    """
    limit = yield
    pe = None if limit is None else ctx.pe
    # Under fault injection every operation goes through the context's
    # front door and its checkpoint; a clean run goes straight to the
    # data-movement seam (its arguments are valid by construction).
    faulty = ctx._faults is not None
    mover = ctx if faulty else ctx._transfer
    compute, charge = ctx.compute, ctx.charge_access
    overhead = params.update_overhead_ns
    use_amo = params.use_amo
    # Where the PEs run in parallel (no engine: mp), an amo run applies
    # its own updates with the atomic too, or a plain xor would race a
    # peer's eamoxor.d on the same word; under the engine nothing runs
    # between the xor's load and its store.
    local_amo = use_amo and ctx.machine is None
    me = ctx.rank
    mask = params.table_size - 1
    # The table and the scratch word, as 8-byte words of this PE's memory.
    words = ctx._memory.words(8)
    t0, s0 = table_addr >> 3, scratch >> 3
    for _ in range(updates):
        # _lcg_step, then _mix64, written out: two calls an update.
        ran = ((ran << 1) & MASK64) ^ (POLY if ran >> 63 else 0)
        x = ran ^ (ran >> 33)
        x = (x * 0xFF51AFD7ED558CCD) & MASK64
        x ^= x >> 33
        x = (x * 0xC4CEB9FE1A85EC53) & MASK64
        owner, off = divmod((x ^ (x >> 33)) & mask, local_size)
        compute(overhead)
        addr = table_addr + 8 * off
        if owner == me:
            charge(addr, 8, False)
            charge(addr, 8, True)
            if local_amo:
                mover.amo(addr, ran, me, "xor")
            else:
                words[t0 + off] ^= ran
            continue
        if limit is not None:
            if faulty:
                ctx._require_active()
            if pe.clock > limit:
                limit = yield _RUNNABLE
        if use_amo:
            # xBGAS remote atomic: a single fetch-and-xor transaction.
            mover.amo(addr, ran, owner, "xor")
            continue
        # OSB idiom: one-sided get, xor locally, one-sided put.
        mover.get(scratch, addr, 1, 1, owner, _U64)
        words[s0] ^= ran
        if limit is not None:
            if faulty:
                ctx._require_active()
            if pe.clock > limit:
                limit = yield _RUNNABLE
        mover.put(addr, scratch, 1, 1, owner, _U64)
    while True:  # done: the PE's own thread runs on, whoever asks
        yield _RUNNING


def _gups_pe(ctx: XBRTime, params: GupsParams) -> dict:
    me, n = None, None
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    table_size = params.table_size
    params.check_pes(n)
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

    def apply_stream() -> None:
        """Apply this PE's slice of the global update stream once."""
        stream = _update_stream(ctx, params, start_seed, updates,
                                table_addr, local_size, scratch)
        next(stream)
        ctx.drive(stream.send)

    ctx.barrier()
    t0 = ctx.time_ns
    apply_stream()
    ctx.barrier()
    t1 = ctx.time_ns

    errors = 0
    if params.verify:
        # Apply the identical stream again: XOR twice = identity, so the
        # table must return to table[i] = i.
        apply_stream()
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
    params.check_config(config)
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
    params.check_config(config)
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
