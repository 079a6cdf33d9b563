"""Vectorized schedule evaluator: run a compiled :class:`~.ir.Schedule`
over *all* ranks at once with numpy batch operations.

The simulator (:mod:`repro.sim.engine`) interprets one rank per green
thread and costs every memory access through the stateful cache/TLB
models — exact, but linear in PEs *and* in per-rank work, which caps it
around a few hundred PEs.  This module evaluates the same IR as data
parallel batches over a dense per-rank memory matrix, producing both
the collective *outputs* and per-rank *makespans* for 1k-64k PEs in
milliseconds:

* **Data** is exact: the rows of the schedule's columnar lowering
  (:class:`~.ir.StepTable`, ``Schedule.table``) are sorted into lane
  groups — every Put/Get/Copy/Reduce/Fill/Send/Recv at one ``(phase,
  slot)`` with one shape — and each group is applied as one
  fancy-indexed gather/scatter over the rank axis.
  Mailbox-lowered schedules batch too: sends deposit their payloads
  into per-(src, dst) FIFOs (costed through the same LogGP network
  plus the postoffice routing charge), recvs pop and verify tags.
  Gathers materialise before scatters land, so the result is the
  sequentially-consistent value for every schedule the linter accepts
  (no intra-segment write hazards).  The conformance suite asserts the
  outputs byte-identical against the simulator and the multiprocessing
  backend.
* **Time** is modelled: per-lane costs use the transfer engine's own
  loop-overhead and OLB constants and the simulator's
  :class:`~repro.machine.network.Network` (injection links, fabric
  channels, node buses) but replace the stateful cache/TLB walk with a
  closed form (:class:`CostModel`) using page-granular warmth.
  Makespans therefore *track* the simulator's ``ns`` within a pinned
  tolerance rather than matching it exactly.  Messages are priced one
  by one, in order — the network is a recurrence over shared link state
  — so the order groups run in (see :func:`_collect_groups`) is part of
  the model.

Nothing here walks the dataclass tree: the evaluator reads only the
table's columns and barrier counts.

Entry points:

* :func:`evaluate_schedule` — standalone: lay out a compact arena,
  seed the inputs, evaluate, return a :class:`ScheduleEvaluation`.
  This is the 1k-64k PE path (no threads, no topology graph).
* :func:`evaluate_group` — the shared core, also driven by the ``vec``
  backend's rendezvous hook (:mod:`repro.backends.vec`) so schedules
  compose with the full runtime (teams, nested collectives, raw ops).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil, log2
from typing import Mapping, Sequence

import numpy as np

from ...errors import SimulationError
from ...isa.olb import OLB_LOOKUP_NS
from ...machine.network import Network
from ...params import MachineConfig
from ...runtime.barrier import round_cost_ns
from ...runtime.transfer import loop_overhead_ns
from ...sim.trace import SimStats
from ..ops import apply_op, identity_of
from .ir import (
    OP_COPY,
    OP_FILL,
    OP_GET,
    OP_NAMES,
    OP_PUT,
    OP_RECV,
    OP_REDUCE,
    OP_SEND,
    Schedule,
    StepTable,
    step_span_bytes,
)

__all__ = [
    "CostModel",
    "ScheduleEvaluation",
    "evaluate_group",
    "evaluate_schedule",
]


class CostModel:
    """Closed-form memory cost with page-granular warmth tracking.

    The simulator walks a stateful L1/L2/TLB per access; that walk is
    the single hottest loop and is inherently sequential.  Here each
    (rank, 4 KiB page) pair carries one "touched" bit: the first access
    whose span starts on an untouched page is costed cold (DRAM stream
    + TLB walks), later accesses are costed by where the span fits in
    the cache hierarchy.  All formulas vectorise over a lane's address
    array, so a 4096-lane stage costs one numpy expression.
    """

    def __init__(self, config: MachineConfig, n_rows: int, mem_bytes: int):
        self.cfg = config
        m = config.mem
        self._line_bytes = m.l1.line_bytes
        self._line_shift = m.l1.line_bytes.bit_length() - 1
        self._page_shift = m.tlb.page_bytes.bit_length() - 1
        self._l1_ns = m.l1.hit_ns
        self._l2_ns = m.l2.hit_ns
        self._dram_ns = m.dram_ns
        self._stream_ns = m.dram_stream_ns
        self._walk_ns = m.tlb.walk_ns
        self._l1_bytes = m.l1.size_bytes
        self._l2_bytes = m.l2.size_bytes
        n_pages = -(-mem_bytes // m.tlb.page_bytes)
        self._touched = np.zeros((n_rows, max(n_pages, 1)), dtype=bool)

    def _mark(self, rows: np.ndarray, first_page: np.ndarray,
              pages: np.ndarray) -> None:
        touched = self._touched
        touched[rows, first_page] = True  # a span covers its first page
        for k in range(1, int(pages.max())):
            m = pages > k
            touched[rows[m], first_page[m] + k] = True

    def range_ns(self, rows: np.ndarray, addrs: np.ndarray, span: int,
                 use_tlb: bool = True) -> np.ndarray:
        """Per-lane ns for a dense sweep of ``span`` bytes at ``addrs``."""
        if span <= 0:
            return np.zeros(len(rows))
        last = addrs + (span - 1)
        lines = (last >> self._line_shift) - (addrs >> self._line_shift) + 1
        first_page = addrs >> self._page_shift
        pages = (last >> self._page_shift) - first_page + 1
        warm = self._touched[rows, first_page]
        cold = lines * (self._l1_ns + self._l2_ns + self._stream_ns)
        if use_tlb:
            cold = cold + pages * self._walk_ns
        if span <= self._l1_bytes:
            warm_per_line = self._l1_ns
        elif span <= self._l2_bytes:
            warm_per_line = self._l1_ns + self._l2_ns
        else:
            warm_per_line = self._l1_ns + self._l2_ns + self._stream_ns
        ns = np.where(warm, lines * warm_per_line, cold)
        self._mark(rows, first_page, pages)
        return ns

    def strided_ns(self, rows: np.ndarray, addrs: np.ndarray, nelems: int,
                   elem_bytes: int, stride: int,
                   use_tlb: bool = True) -> np.ndarray:
        """Per-lane ns for a strided access (put/get side cost)."""
        if nelems <= 0:
            return np.zeros(len(rows))
        step = elem_bytes * max(stride, 1)
        span = (nelems - 1) * step + elem_bytes
        if step <= self._line_bytes:
            return self.range_ns(rows, addrs, span, use_tlb)
        # Sparse: one line (and, cold, one DRAM access) per element.
        last = addrs + (span - 1)
        first_page = addrs >> self._page_shift
        pages = (last >> self._page_shift) - first_page + 1
        warm = self._touched[rows, first_page]
        cold = nelems * (self._l1_ns + self._l2_ns + self._dram_ns)
        if use_tlb:
            cold = cold + pages * self._walk_ns
        ns = np.where(warm, nelems * self._l1_ns, cold)
        self._mark(rows, first_page, pages)
        return ns

    def hierarchy_of(self, row: int) -> "_RowCost":
        """Row ``row`` behind the scalar costing calls of
        :class:`~repro.machine.memsys.MemoryHierarchy`."""
        return _RowCost(self, row)


class _RowCost:
    """One :class:`CostModel` row as a memory-cost provider: the
    ``access``/``access_range``/``access_strided`` shape the transfer
    engine and the context core charge through."""

    __slots__ = ("_cost", "_row")

    def __init__(self, cost: CostModel, row: int):
        self._cost = cost
        self._row = np.array([row])

    def access_range(self, addr: int, nbytes: int, write: bool = False,
                     use_tlb: bool = True) -> float:
        return float(self._cost.range_ns(self._row, np.array([addr]),
                                         nbytes, use_tlb)[0])

    access = access_range

    def access_strided(self, addr: int, nelems: int, elem_bytes: int,
                       stride: int, write: bool = False,
                       use_tlb: bool = True) -> float:
        return float(self._cost.strided_ns(self._row, np.array([addr]),
                                           nelems, elem_bytes, stride,
                                           use_tlb)[0])


# -- batched data movement ----------------------------------------------------


def _gather(mem, mview, rows, addrs, nelems: int, stride: int,
            dtype: np.dtype) -> np.ndarray:
    """Materialise ``(len(rows), nelems)`` strided values (always a copy)."""
    b = dtype.itemsize
    if mview is not None and not np.any(addrs % b):
        idx = ((addrs // b)[:, None]
               + np.arange(nelems, dtype=np.int64)[None, :] * stride)
        return mview[rows[:, None], idx]
    step = b * stride
    bidx = (addrs[:, None, None]
            + np.arange(nelems, dtype=np.int64)[None, :, None] * step
            + np.arange(b, dtype=np.int64)[None, None, :])
    raw = mem[rows[:, None, None], bidx]
    return np.ascontiguousarray(raw).reshape(len(rows), nelems * b).view(dtype)


def _scatter(mem, mview, rows, addrs, nelems: int, stride: int,
             dtype: np.dtype, vals: np.ndarray) -> None:
    """Write ``(len(rows), nelems)`` values at strided addresses."""
    b = dtype.itemsize
    if mview is not None and not np.any(addrs % b):
        idx = ((addrs // b)[:, None]
               + np.arange(nelems, dtype=np.int64)[None, :] * stride)
        mview[rows[:, None], idx] = vals
        return
    step = b * stride
    bidx = (addrs[:, None, None]
            + np.arange(nelems, dtype=np.int64)[None, :, None] * step
            + np.arange(b, dtype=np.int64)[None, None, :])
    mem[rows[:, None, None], bidx] = (
        np.ascontiguousarray(vals).view(np.uint8).reshape(len(rows), nelems, b)
    )


# -- group compilation --------------------------------------------------------

#: Address of a buffer a rank's map does not bind (restricted buffers on
#: the ranks that do not hold them): far enough below zero that no
#: offset brings it back.
_UNBOUND = -(1 << 62)


def _bind(table: StepTable, addrs_per_rank: Sequence[Mapping[str, int]],
          sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """Absolute address of every row's ``a`` and ``b`` operand.

    One base vector when every rank brought the same map (the standalone
    arena), a ``(rank, buffer)`` matrix otherwise (the vec backend's
    per-rank bindings); each row ends in a 0 that the ``-1`` of an absent
    operand indexes.
    """
    names = table.names
    shared = all(addrs is addrs_per_rank[0] for addrs in addrs_per_rank)
    base = np.array(
        [[addrs.get(name, _UNBOUND) for name in names] + [0]
         for addrs in (addrs_per_rank[:1] if shared else addrs_per_rank)],
        dtype=np.int64)
    row = 0 if shared else table.rank
    a_addr = base[row, table.a_buf] + table.a_off
    b_addr = base[row, table.b_buf] + table.b_off
    for addr, buf in ((a_addr, table.a_buf), (b_addr, table.b_buf)):
        if len(addr) and addr.min() < _UNBOUND // 2:
            bad = int(np.argmin(addr))
            raise SimulationError(
                f"schedule {sched.collective}:{sched.algorithm} rank "
                f"{int(table.rank[bad])} uses buffer "
                f"{names[buf[bad]]!r}, which it has no address for")
    return a_addr, b_addr


def _collect_groups(table: StepTable) -> tuple[np.ndarray, np.ndarray, list]:
    """Sort the table's rows into lane groups.

    A *group* is the set of rows sharing ``(phase, slot, op, nelems,
    stride, aux)`` — one step position of one barrier phase, across the
    ranks that do the same thing there — and is applied as one batch.
    Returns the row permutation, the group start offsets into it (with
    the row count appended) and the group heads as Python tuples.

    The order is part of the model, because the groups of one phase
    reserve links and fabric channels in the order they run: phase, then
    slot, then kind name (the opcode numbering), then shape, then
    flags / charge / tag, lanes in rank order (the sort is stable and
    rows are stored by rank).
    """
    keys = (table.aux, table.stride, table.nelems, table.op, table.slot,
            table.phase)
    order = np.lexsort(keys)
    sorted_keys = np.stack(keys[::-1])[:, order]
    change = (sorted_keys[:, 1:] != sorted_keys[:, :-1]).any(axis=0)
    starts = np.flatnonzero(np.concatenate(([True], change, [True])))
    if not len(order):
        starts = starts[:1]
    return order, starts, sorted_keys[:, starts[:-1]].T.tolist()


# -- the core evaluator -------------------------------------------------------


def evaluate_group(
    mem: np.ndarray | None,
    rows: np.ndarray,
    world_pes: np.ndarray,
    addrs_per_rank: Sequence[Mapping[str, int]],
    sched: Schedule,
    dtype: np.dtype,
    start: np.ndarray,
    net: Network,
    cost: CostModel,
    stats: SimStats,
) -> np.ndarray:
    """Evaluate ``sched`` for one participant group in a single pass.

    ``mem`` is the dense ``(total_rows, width)`` uint8 matrix (``None``
    skips data movement — makespans only); ``rows[g]`` is group rank
    ``g``'s row, ``world_pes[g]`` its PE id for network/node purposes,
    ``addrs_per_rank[g]`` its buffer-name → absolute-address map and
    ``start[g]`` its entry clock.  Returns the per-group-rank exit
    clocks; ``net``/``cost``/``stats`` are shared, so successive calls
    compose (nested collectives, warm caches, quiescence).
    """
    K = len(rows)
    rows = np.asarray(rows, dtype=np.int64)
    world = np.asarray(world_pes, dtype=np.int64)
    t = np.asarray(start, dtype=np.float64).copy()
    b = dtype.itemsize
    mview = None
    if mem is not None and mem.shape[1] % b == 0:
        mview = mem.view(dtype)
    table = sched.table
    label = f"schedule {sched.collective}:{sched.algorithm}"
    if table.faults:
        raise SimulationError(
            f"{label} has a malformed pipeline block — lint the schedule")
    if len(table.barriers) != K:
        raise SimulationError(
            f"{label} has {len(table.barriers)} rank programs for a "
            f"group of {K}")
    # Every rank passes the same barriers: the property batch evaluation
    # rests on (the linter's deadlock pass guarantees it).
    n_barriers = int(table.barriers[0])
    uneven = np.flatnonzero(table.barriers != n_barriers)
    if len(uneven):
        g = int(uneven[0])
        raise SimulationError(
            f"{label} rank {g} has {int(table.barriers[g])} barriers, "
            f"rank 0 has {n_barriers} — cannot batch")
    if table.unknown:  # pragma: no cover - compiler bug guard
        raise AssertionError(f"unknown step kind {table.unknown[0][1]!r}")
    if np.any((table.peer == table.rank)
              & np.isin(table.op, (OP_PUT, OP_GET, OP_SEND))):
        raise AssertionError(  # pragma: no cover - compiler bug guard
            "put/get/send to self in schedule")
    order, starts, heads = _collect_groups(table)
    a_addr, b_addr = _bind(table, addrs_per_rank, sched)
    rank_s, peer_s = table.rank[order], table.peer[order]
    a_addr, b_addr = a_addr[order], b_addr[order]
    starts = starts.tolist()
    cfg = cost.cfg
    cycle_ns = cfg.cycle_ns
    rounds = ceil(log2(K)) if K > 1 else 0
    round_ns = round_cost_ns(cfg, world.tolist())
    mbx = cfg.mailbox
    # In-flight mailbox messages: (src, dst) group-rank pair -> FIFO of
    # (tag, nelems, payload, t_avail).  Persists across phases (hoisted
    # get-requests are matched one barrier later).
    pending: dict[tuple[int, int], deque] = {}

    def _run_group(gi: int) -> None:
        phase, _, op, e, s, aux = heads[gi]
        lanes = slice(starts[gi], starts[gi + 1])
        g = rank_s[lanes]
        L = len(g)
        g_rows = rows[g]
        if op == OP_PUT or op == OP_GET:
            dst, src, peer = a_addr[lanes], b_addr[lanes], peer_s[lanes]
            nbytes = e * b
            peer_rows = rows[peer]
            tg = t[g]
            src_pe, dst_pe = world[g].tolist(), world[peer].tolist()
            if op == OP_PUT:
                stats.puts += L
                if e == 0:
                    return
                stats.bytes_put += nbytes * L
                stats.remote_puts += L
                tg = tg + loop_overhead_ns(cfg, e)
                tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                tg += OLB_LOOKUP_NS
                wcost = cost.strided_ns(peer_rows, dst, e, b, s,
                                        use_tlb=False).tolist()
                issue = np.lexsort((g, tg)).tolist()
                tg = tg.tolist()
                for i in issue:
                    now = tg[i]
                    free, delivered, _ = net.send(now, src_pe[i], dst_pe[i],
                                                  nbytes)
                    if free > now:
                        tg[i] = free
                    net.note_delivery(delivered + wcost[i])
                t[g] = tg
                if mem is not None:
                    vals = _gather(mem, mview, g_rows, src, e, s, dtype)
                    _scatter(mem, mview, peer_rows, dst, e, s, dtype, vals)
            else:
                stats.gets += L
                if e == 0:
                    return
                stats.bytes_got += nbytes * L
                stats.remote_gets += L
                tg = tg + loop_overhead_ns(cfg, e)
                tg += OLB_LOOKUP_NS
                rcost = cost.strided_ns(peer_rows, src, e, b, s,
                                        use_tlb=False).tolist()
                issue = np.lexsort((g, tg)).tolist()
                tg = tg.tolist()
                for i in issue:
                    now = tg[i]
                    done = net.fetch(now, src_pe[i], dst_pe[i],
                                     nbytes)[0] + rcost[i]
                    if done > now:
                        tg[i] = done
                tg = np.array(tg)
                tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                t[g] = tg
                if mem is not None:
                    vals = _gather(mem, mview, peer_rows, src, e, s, dtype)
                    _scatter(mem, mview, g_rows, dst, e, s, dtype, vals)
        elif op == OP_COPY:
            charged, skip_noop = aux & 2, aux & 1
            dst, src = a_addr[lanes], b_addr[lanes]
            if charged and skip_noop:
                if e == 0:
                    return  # the executor's local_copy guard
                keep = dst != src
                if not keep.all():
                    g, dst, src = g[keep], dst[keep], src[keep]
                    g_rows = rows[g]
                    L = len(g)
            if L == 0:
                return
            if charged:
                # Costs like a put-to-self in the transfer engine.
                stats.puts += L
                if e == 0:
                    return
                stats.bytes_put += e * b * L
                tg = t[g] + loop_overhead_ns(cfg, e)
                tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                t[g] = tg
            if e and mem is not None:
                vals = _gather(mem, mview, g_rows, src, e, s, dtype)
                _scatter(mem, mview, g_rows, dst, e, s, dtype, vals)
        elif op == OP_REDUCE:
            t[g] += aux * 2.0 * cycle_ns
            if e and mem is not None:
                acc, opd = a_addr[lanes], b_addr[lanes]
                acc_vals = _gather(mem, mview, g_rows, acc, e, s, dtype)
                opd_vals = _gather(mem, mview, g_rows, opd, e, s, dtype)
                apply_op(sched.op, acc_vals, opd_vals)
                _scatter(mem, mview, g_rows, acc, e, s, dtype, acc_vals)
        elif op == OP_FILL:
            dst = a_addr[lanes]
            span = step_span_bytes(e, s, b)
            t[g] += cost.range_ns(g_rows, dst, span, use_tlb=True)
            if e and mem is not None:
                vals = np.broadcast_to(
                    np.asarray(identity_of(sched.op, dtype)),
                    (L, e)).astype(dtype, copy=True)
                _scatter(mem, mview, g_rows, dst, e, s, dtype, vals)
        elif op == OP_SEND:
            src, peer = b_addr[lanes], peer_s[lanes]
            nbytes = e * b
            stats.sends += L
            stats.bytes_sent += nbytes * L
            tg = t[g]
            vals = None
            if e:
                tg = tg + loop_overhead_ns(cfg, e)
                tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                if mem is not None:
                    vals = _gather(mem, mview, g_rows, src, e, s, dtype)
            wire = nbytes + mbx.header_bytes
            src_pe, dst_pe = world[g].tolist(), world[peer].tolist()
            pairs = list(zip(g.tolist(), peer.tolist()))
            issue = np.lexsort((g, tg)).tolist()
            tg = tg.tolist()
            for i in issue:
                now, sp, dp = tg[i], src_pe[i], dst_pe[i]
                free, delivered, _ = net.send(now, sp, dp, wire)
                if free > now:
                    tg[i] = free
                hops = net.route_hops(net.node_of(sp), net.node_of(dp))
                t_avail = delivered + mbx.route_ns_per_hop * hops
                net.note_delivery(t_avail)
                pending.setdefault(pairs[i], deque()).append(
                    (aux, e, None if vals is None else vals[i], t_avail))
            t[g] = tg
        else:  # OP_RECV
            dst = a_addr[lanes]
            stats.recvs += L
            avail = []
            val_rows = []
            for me, frm in zip(g.tolist(), peer_s[lanes].tolist()):
                q = pending.get((frm, me))
                if not q:
                    raise SimulationError(
                        f"{label} rank {me} segment {phase}: recv from "
                        f"rank {frm} has no matching send — lint the "
                        "schedule's message matching")
                mtag, melems, mvals, t_avail = q.popleft()
                if mtag != aux or melems != e:
                    raise SimulationError(
                        f"{label} rank {me} segment {phase}: recv(tag="
                        f"{aux}, nelems={e}) mismatches the pair-FIFO "
                        f"head (tag={mtag}, nelems={melems})")
                avail.append(t_avail)
                val_rows.append(mvals)
            tg = np.maximum(t[g], avail) + mbx.match_ns
            if e:
                tg = tg + loop_overhead_ns(cfg, e)
                tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                if mem is not None:
                    _scatter(mem, mview, g_rows, dst, e, s, dtype,
                             np.stack(val_rows))
            t[g] = tg

    # Each rank's next slot in the running phase.
    ptr = np.zeros(K, dtype=np.int64)
    cursor = 0
    for phase in range(n_barriers + 1):
        first = cursor
        while cursor < len(heads) and heads[cursor][0] == phase:
            cursor += 1
        # Execute the phase's groups in dataflow order: each rank's
        # groups run in its program (slot) order — cross-rank hazards
        # are forbidden by the linter, but same-rank write-then-read
        # within a phase (get-into-scratch feeding a reduce, recv
        # feeding a reduce) is real sequencing.  A recv group
        # additionally waits until every lane's (src, dst) FIFO holds
        # its message, which may be deposited by a send group at a
        # *higher* slot on another rank; the fixpoint scan below
        # resolves those forward dependencies exactly as the concurrent
        # per-PE machine does.
        ptr[:] = 0
        remaining = range(first, cursor)
        while remaining:
            deferred: list = []
            for gi in remaining:
                lanes = slice(starts[gi], starts[gi + 1])
                g = rank_s[lanes]
                ready = bool((ptr[g] == heads[gi][1]).all())
                if ready and heads[gi][2] == OP_RECV:
                    ready = all(pending.get(pair) for pair in
                                zip(peer_s[lanes].tolist(), g.tolist()))
                if not ready:
                    deferred.append(gi)
                    continue
                _run_group(gi)
                ptr[g] += 1
            if len(deferred) == len(remaining):
                stuck = [(p, slot, OP_NAMES[op], e, s)
                         for p, slot, op, e, s, _ in
                         (heads[gi] for gi in deferred)]
                raise SimulationError(
                    f"{label} segment {phase}: groups {stuck} cannot make "
                    "progress — a recv waits on a send that never "
                    "deposits (batch-evaluation deadlock)")
            remaining = deferred
        if phase < n_barriers:
            stats.barriers += 1
            if K == 1:
                t += round_ns
            else:
                release = max(float(t.max()), net.quiescence_time())
                t[:] = release + rounds * round_ns
    return t


# -- standalone entry ---------------------------------------------------------


def _align64(n: int) -> int:
    return (n + 63) & ~63


@dataclass
class ScheduleEvaluation:
    """Outputs, makespans and counters of one evaluated schedule."""

    schedule: Schedule
    config: MachineConfig
    dtype: np.dtype
    makespans: np.ndarray  # per-rank exit clock, raw model ns
    stats: SimStats
    _mem: np.ndarray | None
    _layout: dict

    @property
    def elapsed_ns(self) -> float:
        """Makespan of the whole collective (max over ranks)."""
        return float(self.makespans.max())

    def buffer(self, name: str, rank: int) -> np.ndarray:
        """The bytes of ``name`` on ``rank``, viewed as the evaluation
        dtype when the extent divides evenly (uint8 otherwise)."""
        if self._mem is None:
            raise SimulationError(
                "evaluate_schedule(collect_data=False) keeps no buffer data"
            )
        base = self._layout[name]
        nb = self.schedule.buffer(name).nbytes_on(rank)
        raw = self._mem[rank, base:base + nb]
        if nb % self.dtype.itemsize == 0:
            return raw.view(self.dtype)
        return raw


def _default_dtype(itemsize: int) -> np.dtype:
    try:
        return np.dtype(f"int{8 * itemsize}")
    except TypeError:
        return np.dtype(np.uint8)


def evaluate_schedule(
    sched: Schedule,
    config: MachineConfig | None = None,
    *,
    dtype: np.dtype | str | None = None,
    inputs: Mapping[str, Sequence] | None = None,
    collect_data: bool = True,
) -> ScheduleEvaluation:
    """Evaluate a compiled schedule for *all* its ranks at once.

    Lays out a compact arena — one 64-byte-aligned slot per schedule
    buffer, identical offsets on every rank (the symmetric-address
    property by construction) — seeds ``inputs`` (mapping buffer name to
    one array per rank, or a 2-D ``(n_pes, k)`` array), evaluates, and
    returns the per-rank outputs and makespans.  ``collect_data=False``
    skips all data movement (cost sweeps at large payloads keep no
    arena).  Rank clocks start at 0, so ``elapsed_ns`` is directly the
    modelled makespan of the collective including its entry barrier.
    """
    n = sched.n_pes
    if config is None:
        config = MachineConfig(n_pes=n)
    elif config.n_pes != n:
        config = config.with_(n_pes=n)
    dt = np.dtype(dtype) if dtype is not None else _default_dtype(sched.itemsize)
    layout: dict[str, int] = {}
    offset = 0
    for buf in sched.buffers:
        layout[buf.name] = offset
        width = max(buf.nbytes_on(r) for r in range(n))
        offset += _align64(max(width, 1))
    width = max(_align64(offset), 64)
    mem = np.zeros((n, width), dtype=np.uint8) if collect_data else None
    if inputs:
        if mem is None:
            raise SimulationError("inputs require collect_data=True")
        for name, per_rank in inputs.items():
            base = layout[name]
            if isinstance(per_rank, np.ndarray) and per_rank.ndim == 2:
                per_rank = list(per_rank)
            for r, row in enumerate(per_rank):
                rb = np.ascontiguousarray(row).reshape(-1).view(np.uint8)
                if base + rb.size > width:  # pragma: no cover - caller bug
                    raise SimulationError(
                        f"input {name!r} rank {r}: {rb.size} bytes exceed "
                        f"the buffer slot"
                    )
                mem[r, base:base + rb.size] = rb
    stats = SimStats()
    net = Network(config, stats)
    cost = CostModel(config, n, width)
    addrs = [layout] * n
    ranks = np.arange(n, dtype=np.int64)
    makespans = evaluate_group(
        mem, ranks, ranks, addrs, sched, dt, np.zeros(n), net, cost, stats,
    )
    return ScheduleEvaluation(
        schedule=sched, config=config, dtype=dt, makespans=makespans,
        stats=stats, _mem=mem, _layout=layout,
    )
