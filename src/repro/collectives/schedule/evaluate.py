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
  slot)`` with one shape — and each group moves its data a run at a
  time: a lane's ``nelems`` strided elements are one row of a window
  view over the arena (:func:`_window`, indexed by row and start byte),
  so one fancy index on ``(rows, starts)`` copies every lane's whole
  run, aligned or not.
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
  tolerance rather than matching it exactly.

An evaluation is three passes over the table:

1. **Order** (:func:`_run_order`): the order the groups run in.  It
   follows from the schedule's structure — slots, and for mailbox
   schedules which FIFOs hold a message — never from a clock.
2. **Cost once** (:func:`_access_costs`): every row's memory accesses,
   priced by one :meth:`CostModel.price` call.  Warmth, the cost
   model's only state, depends only on the order of the accesses, which
   pass 1 fixed.
3. **Clock in order**: one Python loop walks the groups in that order
   and carries the clocks.  What it must compute message by message is
   the network: every message read-modify-writes shared link, bus and
   fabric state, so messages are priced one by one, in order, and the
   order groups run in (see :func:`_collect_groups`) is part of the
   model.

Nothing here walks a schedule step by step: the evaluator reads only
the table's columns and barrier counts.

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
from functools import partial
from math import ceil, log2
from typing import Mapping, Sequence

import numpy as np

from ...errors import SimulationError
from ...isa.olb import OLB_LOOKUP_NS
from ...machine.network import Network
from ...memo import Memo
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
    the cache hierarchy.

    Warmth is the only state, and it depends on the *order* of the
    accesses, never on a clock.  So :meth:`price` costs any number of
    accesses in one vector pass, each given its place in that order: a
    whole schedule's memory traffic is one call.
    """

    def __init__(self, config: MachineConfig, n_rows: int, mem_bytes: int):
        self.cfg = config
        m = config.mem
        self._line_bytes = m.l1.line_bytes
        self._line_shift = m.l1.line_bytes.bit_length() - 1
        self._page_shift = m.tlb.page_bytes.bit_length() - 1
        self._l1_ns = m.l1.hit_ns
        self._l1_l2_ns = m.l1.hit_ns + m.l2.hit_ns
        self._stream_line_ns = m.l1.hit_ns + m.l2.hit_ns + m.dram_stream_ns
        self._dram_elem_ns = m.l1.hit_ns + m.l2.hit_ns + m.dram_ns
        self._walk_ns = m.tlb.walk_ns
        self._l1_bytes = m.l1.size_bytes
        self._l2_bytes = m.l2.size_bytes
        n_pages = -(-mem_bytes // m.tlb.page_bytes)
        self._touched = np.zeros((n_rows, max(n_pages, 1)), dtype=bool)

    def price(self, rows: np.ndarray, addrs: np.ndarray, nelems: np.ndarray,
              step: np.ndarray, elem_bytes, tlb: np.ndarray,
              when: np.ndarray) -> np.ndarray:
        """ns of a batch of accesses, one per entry.

        Access ``i`` touches ``nelems[i] >= 1`` elements of
        ``elem_bytes`` bytes, ``step[i]`` bytes apart, from ``addrs[i]``
        in memory row ``rows[i]``.  Up to a cache line apart that is a
        dense sweep, priced per line; further apart every element is its
        own line (and, cold, its own DRAM access).  ``tlb[i]`` adds the
        page walks to a cold access (False for the target side of a
        remote access: the OLB translates it).

        ``when[i]`` places the access in program order: it is warm when
        an earlier call, or an access with a smaller ``when``, touched
        its first page.  Accesses with equal ``when`` — the lanes of one
        step group — do not see each other.
        """
        if not len(rows):
            return np.zeros(0)
        span = (nelems - 1) * step + elem_bytes
        last = addrs + (span - 1)
        first_page = addrs >> self._page_shift
        pages = (last >> self._page_shift) - first_page + 1
        warm = self._warm(rows, first_page, pages, when)
        lines = (last >> self._line_shift) - (addrs >> self._line_shift) + 1
        sparse = step > self._line_bytes
        cold = np.where(sparse, nelems * self._dram_elem_ns,
                        lines * self._stream_line_ns)
        cold = np.where(tlb, cold + pages * self._walk_ns, cold)
        per_line = np.where(
            span <= self._l1_bytes, self._l1_ns,
            np.where(span <= self._l2_bytes, self._l1_l2_ns,
                     self._stream_line_ns))
        hot = np.where(sparse, nelems * self._l1_ns, lines * per_line)
        return np.where(warm, hot, cold)

    def _warm(self, rows: np.ndarray, first_page: np.ndarray,
              pages: np.ndarray, when: np.ndarray) -> np.ndarray:
        """Whether each access starts on a touched page; then touch every
        page of every access."""
        touched = self._touched
        warm = touched[rows, first_page]
        n = len(rows)
        if n > 1:
            # Only first pages are asked about.  Number them, find the
            # run of them each access's span covers (its own first page,
            # maybe more), and keep the smallest ``when`` per page.
            key = rows * touched.shape[1] + first_page
            keys, at = np.unique(key, return_inverse=True)
            covers = np.searchsorted(keys, key + pages) - at
            if int(covers.max()) > 1:
                each = np.repeat(np.arange(n), covers)
                page_of, when_of = at[each] + _ramp(covers), when[each]
            else:
                page_of, when_of = at, when
            earliest = np.full(len(keys), np.iinfo(np.int64).max)
            np.minimum.at(earliest, page_of, when_of)
            warm |= earliest[at] < when
        touched[rows, first_page] = True
        for k in range(1, int(pages.max())):
            more = pages > k
            touched[rows[more], first_page[more] + k] = True
        return warm

    def hierarchy_of(self, row: int) -> "_RowCost":
        """Row ``row`` behind the scalar costing calls of
        :class:`~repro.machine.memsys.MemoryHierarchy`."""
        return _RowCost(self, row)


def _ramp(counts: np.ndarray) -> np.ndarray:
    """``0 .. c-1`` for each ``c`` of ``counts``, concatenated."""
    return (np.arange(int(counts.sum()))
            - np.repeat(np.cumsum(counts) - counts, counts))


_FIRST = np.zeros(1, dtype=np.int64)


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
        return self.access_strided(addr, nbytes, 1, 1, write, use_tlb)

    access = access_range

    def access_strided(self, addr: int, nelems: int, elem_bytes: int,
                       stride: int, write: bool = False,
                       use_tlb: bool = True) -> float:
        if nelems <= 0:
            return 0.0
        return float(self._cost.price(
            self._row, np.array([addr]), np.array([nelems]),
            np.array([elem_bytes * max(stride, 1)]), elem_bytes,
            np.array([use_tlb]), _FIRST)[0])


# -- batched data movement ----------------------------------------------------


def _window(mem: np.ndarray, nelems: int, stride: int,
            dtype: np.dtype) -> np.ndarray:
    """Every strided run of ``nelems`` elements that fits in a row of
    ``mem``, as one view: ``[row, start]`` is the run of ``dtype``
    elements ``stride`` apart beginning at byte ``start`` of ``row``.

    The start axis counts bytes, so aligned and unaligned runs are the
    same view, and it stops where a run would reach past the row's last
    byte.  No data is copied.
    """
    width = mem.shape[1]
    step = stride * dtype.itemsize
    starts = width - ((nelems - 1) * step + dtype.itemsize) + 1
    return np.ndarray((mem.shape[0], max(starts, 0), nelems), dtype=dtype,
                      buffer=mem, strides=(mem.strides[0], 1, step))


def _check_starts(win: np.ndarray, starts: np.ndarray) -> None:
    # numpy would wrap a negative start round to the row's end.
    if starts.min() < 0:
        raise IndexError(f"run start {int(starts.min())} is below the row "
                         f"(window of {win.shape[1]} starts)")


def _gather(win: np.ndarray, rows: np.ndarray,
            starts: np.ndarray) -> np.ndarray:
    """The runs of ``win`` (see :func:`_window`) at ``(rows[i],
    starts[i])``: a fresh ``(len(rows), nelems)`` array."""
    _check_starts(win, starts)
    return win[rows, starts]


def _scatter(win: np.ndarray, rows: np.ndarray, starts: np.ndarray,
             vals) -> None:
    """Write ``vals`` (one run per lane, or a broadcastable value) over
    the runs of ``win`` at ``(rows[i], starts[i])``, lane by lane: where
    runs overlap the later lane wins."""
    _check_starts(win, starts)
    win[rows, starts] = vals


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


def _run_order(heads: list, bounds: list, rank_s: np.ndarray,
               peer_s: np.ndarray, n_barriers: int, n_ranks: int,
               label: str) -> list:
    """The groups of each phase, in the order they run.

    Each rank's groups run in its program (slot) order — cross-rank
    hazards are forbidden by the linter, but same-rank write-then-read
    within a phase (get-into-scratch feeding a reduce, recv feeding a
    reduce) is real sequencing.  A recv group additionally waits until
    every lane's (src, dst) FIFO holds its message, which may be
    deposited by a send group at a *higher* slot on another rank; the
    fixpoint scan below resolves those forward dependencies exactly as
    the concurrent per-PE machine does, and checks each message's tag
    and size as its recv takes it.  Without recvs every group is ready
    in sorted order.
    """
    edges = [0]
    for phase in range(n_barriers + 1):
        cursor = edges[-1]
        while cursor < len(heads) and heads[cursor][0] == phase:
            cursor += 1
        edges.append(cursor)
    phases = [range(lo, hi) for lo, hi in zip(edges, edges[1:])]
    if not any(head[2] == OP_RECV for head in heads):
        return phases
    rank_l, peer_l = rank_s.tolist(), peer_s.tolist()
    # In-flight messages: (src, dst) group-rank pair -> FIFO of (tag,
    # nelems).  Persists across phases (hoisted get-requests are matched
    # one barrier later).
    fifo: dict[tuple[int, int], deque] = {}
    ordered = []
    for phase, remaining in enumerate(phases):
        ptr = [0] * n_ranks  # each rank's next slot in this phase
        ran: list[int] = []
        while remaining:
            deferred: list[int] = []
            for gi in remaining:
                _, slot, op, e, _, tag = heads[gi]
                lo, hi = bounds[gi], bounds[gi + 1]
                g, peers = rank_l[lo:hi], peer_l[lo:hi]
                ready = all(ptr[r] == slot for r in g)
                if ready and op == OP_RECV:
                    ready = all(fifo.get(pair) for pair in zip(peers, g))
                if not ready:
                    deferred.append(gi)
                    continue
                if op == OP_SEND:
                    for pair in zip(g, peers):
                        fifo.setdefault(pair, deque()).append((tag, e))
                elif op == OP_RECV:
                    for me, frm in zip(g, peers):
                        mtag, melems = fifo[frm, me].popleft()
                        if mtag != tag or melems != e:
                            raise SimulationError(
                                f"{label} rank {me} segment {phase}: "
                                f"recv(tag={tag}, nelems={e}) mismatches "
                                f"the pair-FIFO head (tag={mtag}, "
                                f"nelems={melems})")
                for r in g:
                    ptr[r] += 1
                ran.append(gi)
            if len(deferred) == len(remaining):
                stuck = [(p, slot, OP_NAMES[op], e, s)
                         for p, slot, op, e, s, _ in
                         (heads[gi] for gi in deferred)]
                raise SimulationError(
                    f"{label} segment {phase}: groups {stuck} cannot make "
                    "progress — a recv waits on a send that never "
                    "deposits (batch-evaluation deadlock)")
            remaining = deferred
        ordered.append(ran)
    return ordered


def _access_costs(cost: CostModel, table: StepTable, order: np.ndarray,
                  starts: np.ndarray, phases: list, own: np.ndarray,
                  other: np.ndarray, a_addr: np.ndarray, b_addr: np.ndarray,
                  itemsize: int) -> tuple[np.ndarray, np.ndarray]:
    """Memory ns of every (sorted) row's first and second access — 0
    where it has none — priced by one :meth:`CostModel.price` call.

    A put reads its source (own memory, through the TLB), then writes
    the target (the peer's, OLB-translated); a get reads the target,
    then writes its destination; a charged copy reads, then writes its
    own memory; a send reads, a recv writes, a fill sweeps its whole
    span densely.  The group at run position ``p`` makes its first
    accesses at ``2p`` and its second at ``2p + 1``.
    """
    op, e = table.op[order], table.nelems[order]
    stride, aux = table.stride[order], table.aux[order]
    position = np.empty(len(starts) - 1, dtype=np.int64)
    ran = [gi for groups in phases for gi in groups]
    position[ran] = np.arange(len(ran))
    when = 2 * np.repeat(position, np.diff(starts))
    put, get, fill = op == OP_PUT, op == OP_GET, op == OP_FILL
    copy = op == OP_COPY
    charged = copy & ((aux & 2) > 0) & (((aux & 1) == 0) | (a_addr != b_addr))
    live = e > 0
    first = np.flatnonzero(live & (op != OP_REDUCE) & (~copy | charged))
    second = np.flatnonzero(live & (put | get | charged))
    nelems = np.where(fill, ((e - 1) * stride + 1) * itemsize, e)
    step = np.where(fill, 1, itemsize * np.maximum(stride, 1))
    size = np.where(fill, 1, itemsize)
    both = np.concatenate((first, second))
    ns = cost.price(
        np.concatenate((np.where(get, other, own)[first],
                        np.where(put, other, own)[second])),
        np.concatenate((np.where(fill | (op == OP_RECV), a_addr,
                                 b_addr)[first], a_addr[second])),
        nelems[both], step[both], size[both],
        np.concatenate((~get[first], ~put[second])),
        np.concatenate((when[first], when[second] + 1)))
    first_ns, second_ns = np.zeros(len(op)), np.zeros(len(op))
    first_ns[first] = ns[:len(first)]
    second_ns[second] = ns[len(first):]
    return first_ns, second_ns


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
    """Evaluate ``sched`` for one participant group: order, cost once,
    clock in order (the module docstring's three passes).

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
    b = dtype.itemsize
    table = sched.table
    label = f"schedule {sched.collective}:{sched.algorithm}"
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
    if np.any((table.peer == table.rank)
              & np.isin(table.op, (OP_PUT, OP_GET, OP_SEND))):
        raise AssertionError(  # pragma: no cover - compiler bug guard
            "put/get/send to self in schedule")
    order, starts, heads = _collect_groups(table)
    a_addr, b_addr = _bind(table, addrs_per_rank, sched)
    rank_s, peer_s = table.rank[order], table.peer[order]
    a_addr, b_addr = a_addr[order], b_addr[order]
    bounds = starts.tolist()
    phases = _run_order(heads, bounds, rank_s, peer_s, n_barriers, K, label)
    own, other = rows[rank_s], rows[peer_s]
    first_ns, second_ns = _access_costs(cost, table, order, starts, phases,
                                        own, other, a_addr, b_addr, b)
    # What the clock loop reads lane by lane, as Python values.
    t = np.asarray(start, dtype=np.float64).tolist()
    rank_l, peer_l = rank_s.tolist(), peer_s.tolist()
    src_pe, dst_pe = world[rank_s].tolist(), world[peer_s].tolist()
    c0, c1 = first_ns.tolist(), second_ns.tolist()
    cfg = cost.cfg
    cycle_ns = cfg.cycle_ns
    rounds = ceil(log2(K)) if K > 1 else 0
    round_ns = round_cost_ns(cfg, world.tolist())
    mbx = cfg.mailbox
    send, fetch, note = net.send, net.fetch, net.note_delivery
    loop_of = Memo(partial(loop_overhead_ns, cfg))
    # In-flight mailbox payloads: (src, dst) group-rank pair -> FIFO of
    # (payload, t_avail); ``_run_order`` has matched them already.
    pending: dict[tuple[int, int], deque] = {}
    # One window view of ``mem`` per run shape, for this call only.
    windows: dict[tuple[int, int], np.ndarray] = {}

    def window(e: int, s: int) -> np.ndarray:
        win = windows.get((e, s))
        if win is None:
            win = windows[e, s] = _window(mem, e, s, dtype)
        return win

    def _run_group(gi: int) -> None:
        _, _, op, e, s, aux = heads[gi]
        lo, hi = bounds[gi], bounds[gi + 1]
        lanes = slice(lo, hi)
        L = hi - lo
        g = rank_l[lo:hi]
        if op == OP_PUT or op == OP_GET:
            nbytes = e * b
            if op == OP_PUT:
                stats.puts += L
                if e == 0:
                    return
                stats.bytes_put += nbytes * L
                stats.remote_puts += L
                loop_ns = loop_of[e]
                tg = [((t[r] + loop_ns) + c) + OLB_LOOKUP_NS
                      for r, c in zip(g, c0[lo:hi])]
                sp, dp, late = src_pe[lo:hi], dst_pe[lo:hi], c1[lo:hi]
                for i in sorted(range(L), key=tg.__getitem__):
                    now = tg[i]
                    free, delivered, _ = send(now, sp[i], dp[i], nbytes)
                    if free > now:
                        tg[i] = free
                    note(delivered + late[i])
                for r, x in zip(g, tg):
                    t[r] = x
                if mem is not None:
                    win = window(e, s)
                    _scatter(win, other[lanes], a_addr[lanes],
                             _gather(win, own[lanes], b_addr[lanes]))
            else:
                stats.gets += L
                if e == 0:
                    return
                stats.bytes_got += nbytes * L
                stats.remote_gets += L
                loop_ns = loop_of[e]
                tg = [(t[r] + loop_ns) + OLB_LOOKUP_NS for r in g]
                sp, dp, read = src_pe[lo:hi], dst_pe[lo:hi], c0[lo:hi]
                for i in sorted(range(L), key=tg.__getitem__):
                    now = tg[i]
                    done = fetch(now, sp[i], dp[i], nbytes)[0] + read[i]
                    if done > now:
                        tg[i] = done
                for r, x, c in zip(g, tg, c1[lo:hi]):
                    t[r] = x + c
                if mem is not None:
                    win = window(e, s)
                    _scatter(win, own[lanes], a_addr[lanes],
                             _gather(win, other[lanes], b_addr[lanes]))
        elif op == OP_COPY:
            charged, skip_noop = aux & 2, aux & 1
            live = range(lo, hi)
            if charged and skip_noop:
                if e == 0:
                    return  # the executor's local_copy guard
                keep = a_addr[lanes] != b_addr[lanes]
                if not keep.all():
                    lanes = np.flatnonzero(keep) + lo
                    live = lanes.tolist()
            if not live:
                return
            if charged:
                # Costs like a put-to-self in the transfer engine.
                stats.puts += len(live)
                if e == 0:
                    return
                stats.bytes_put += e * b * len(live)
                loop_ns = loop_of[e]
                for j in live:
                    r = rank_l[j]
                    t[r] = ((t[r] + loop_ns) + c0[j]) + c1[j]
            if e and mem is not None:
                win, g_rows = window(e, s), own[lanes]
                _scatter(win, g_rows, a_addr[lanes],
                         _gather(win, g_rows, b_addr[lanes]))
        elif op == OP_REDUCE:
            charge = aux * 2.0 * cycle_ns
            for r in g:
                t[r] += charge
            if e and mem is not None:
                win, g_rows, acc = window(e, s), own[lanes], a_addr[lanes]
                acc_vals = _gather(win, g_rows, acc)
                apply_op(sched.op, acc_vals,
                         _gather(win, g_rows, b_addr[lanes]))
                _scatter(win, g_rows, acc, acc_vals)
        elif op == OP_FILL:
            if e:
                for r, c in zip(g, c0[lo:hi]):
                    t[r] += c
                if mem is not None:
                    _scatter(window(e, s), own[lanes], a_addr[lanes],
                             np.asarray(identity_of(sched.op, dtype))
                             .astype(dtype))
        elif op == OP_SEND:
            nbytes = e * b
            stats.sends += L
            stats.bytes_sent += nbytes * L
            vals = None
            if e:
                loop_ns = loop_of[e]
                tg = [(t[r] + loop_ns) + c for r, c in zip(g, c0[lo:hi])]
                if mem is not None:
                    vals = _gather(window(e, s), own[lanes], b_addr[lanes])
            else:
                tg = [t[r] for r in g]
            wire = nbytes + mbx.header_bytes
            for i in sorted(range(L), key=tg.__getitem__):
                now, j = tg[i], lo + i
                sp, dp = src_pe[j], dst_pe[j]
                free, delivered, _ = send(now, sp, dp, wire)
                if free > now:
                    tg[i] = free
                hops = net.route_hops(net.node_of(sp), net.node_of(dp))
                t_avail = delivered + mbx.route_ns_per_hop * hops
                note(t_avail)
                pending.setdefault((g[i], peer_l[j]), deque()).append(
                    (None if vals is None else vals[i], t_avail))
            for r, x in zip(g, tg):
                t[r] = x
        else:  # OP_RECV
            stats.recvs += L
            tg = []
            val_rows = []
            for me, frm in zip(g, peer_l[lo:hi]):
                mvals, t_avail = pending[frm, me].popleft()
                tg.append(max(t[me], t_avail) + mbx.match_ns)
                val_rows.append(mvals)
            if e:
                loop_ns = loop_of[e]
                tg = [(x + loop_ns) + c for x, c in zip(tg, c0[lo:hi])]
                if mem is not None:
                    _scatter(window(e, s), own[lanes], a_addr[lanes],
                             np.stack(val_rows))
            for r, x in zip(g, tg):
                t[r] = x

    # Each barrier's blocks: the whole group (a group of one pays a
    # round), or where the schedule is partitioned its parts
    # (``Section.block``), a part of one rank being no barrier.  A block
    # is released at the later of its latest arrival and network
    # quiescence, plus its rounds.  Quiescence is read once the phase has
    # run on every block, where the simulator reads it at the block's
    # own release, so a block can wait here on another's traffic that it
    # does not wait on there (``test_composed_clocks.py`` bounds this).
    whole = tuple(range(K))
    cost = {whole: rounds * round_ns if K > 1 else round_ns}
    for blk in {sec.block for sk in table.skeletons for sec in sk.sections}:
        if len(blk) > 1 and blk not in cost:
            cost[blk] = ceil(log2(len(blk))) * round_cost_ns(
                cfg, world[list(blk)].tolist())
    skels = [[sec.block or whole for sec in sk.sections
              for _ in range(sec.nbars)] for sk in table.skeletons]
    blocks = [[(blk, cost[blk]) for blk in dict.fromkeys(
        sk[b] for sk in skels) if blk in cost] for b in range(n_barriers)]
    for phase, groups in enumerate(phases):
        for gi in groups:
            _run_group(gi)
        if phase == n_barriers:
            break
        for block, ns in blocks[phase]:
            stats.barriers += 1
            every = len(block) == K
            release = max(t) if every else max([t[r] for r in block])
            if K > 1:
                release = max(release, net.quiescence_time())
            if every:
                t[:] = [release + ns] * K
            else:
                for r in block:
                    t[r] = release + ns
    return np.array(t, dtype=np.float64)


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
        width = max(buf.nbytes) if isinstance(buf.nbytes, tuple) \
            else buf.nbytes
        offset += _align64(max(width, 1))
    width = max(_align64(offset), 64)
    mem = np.zeros((n, width), dtype=np.uint8) if collect_data else None
    if inputs:
        if mem is None:
            raise SimulationError("inputs require collect_data=True")
        for name, per_rank in inputs.items():
            base, buf = layout[name], sched.buffer(name)
            if isinstance(per_rank, np.ndarray) and per_rank.ndim == 2:
                raw = np.ascontiguousarray(per_rank).view(np.uint8)
                sizes = [raw.shape[1]] * len(raw)
            else:
                raw = [np.ascontiguousarray(row).reshape(-1).view(np.uint8)
                       for row in per_rank]
                sizes = [rb.size for rb in raw]
            if len(sizes) > n:
                raise SimulationError(
                    f"input {name!r} has {len(sizes)} rows for {n} ranks")
            for r, size in enumerate(sizes):
                if size > buf.nbytes_on(r):
                    raise SimulationError(
                        f"input {name!r} rank {r}: {size} bytes exceed "
                        f"the buffer's {buf.nbytes_on(r)} bytes there")
            if isinstance(raw, np.ndarray):
                mem[:len(raw), base:base + raw.shape[1]] = raw
            else:
                for r, rb in enumerate(raw):
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
