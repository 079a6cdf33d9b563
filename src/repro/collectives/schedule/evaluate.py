"""Vectorized schedule evaluator: run a compiled :class:`~.ir.Schedule`
over *all* ranks at once with numpy batch operations.

The simulator (:mod:`repro.sim.engine`) interprets one rank per green
thread and costs every memory access through the stateful cache/TLB
models — exact, but linear in PEs *and* in per-rank work, which caps it
around a few hundred PEs.  This module evaluates the same IR as data
parallel batches over a dense per-rank memory matrix, producing both
the collective *outputs* and per-rank *makespans* for 1k-64k PEs in
milliseconds:

* **Data** is exact: every Put/Get/Copy/Reduce/Fill/Send/Recv of a
  barrier segment is grouped by ``(segment, step index, kind, shape)``
  and applied as one fancy-indexed gather/scatter over the rank axis.
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
from .ir import Schedule, step_span_bytes

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
        for k in range(int(pages.max())):
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


def _collect_groups(sched: Schedule, addrs_per_rank: Sequence[Mapping[str, int]],
                    n_ranks: int) -> tuple[dict, int]:
    """Flatten every rank's program into ``(segment, idx)``-keyed lane
    groups.  A *segment* is the run of steps between two barriers; the
    linter guarantees every rank agrees on the barrier count, which this
    re-checks (it is the property batch evaluation rests on)."""
    groups: dict[tuple, list] = {}
    n_barriers = -1
    for g in range(n_ranks):
        addrs = addrs_per_rank[g]
        seg = 0
        idx = 0
        for step in sched.program(g).all_steps():
            kind = step.kind
            if kind == "barrier":
                seg += 1
                idx = 0
                continue
            if kind == "put" or kind == "get":
                key = (seg, idx, kind, step.nelems, step.stride)
                lane = (g, addrs[step.dst] + step.dst_off,
                        addrs[step.src] + step.src_off, step.peer)
            elif kind == "copy":
                key = (seg, idx, kind, step.nelems, step.stride,
                       step.charged, step.skip_noop)
                lane = (g, addrs[step.dst] + step.dst_off,
                        addrs[step.src] + step.src_off)
            elif kind == "reduce":
                key = (seg, idx, kind, step.nelems, step.stride,
                       step.charge_elems)
                lane = (g, addrs[step.acc] + step.acc_off,
                        addrs[step.operand] + step.operand_off)
            elif kind == "fill":
                key = (seg, idx, kind, step.nelems, step.stride)
                lane = (g, addrs[step.dst] + step.dst_off)
            elif kind == "send":
                key = (seg, idx, kind, step.nelems, step.stride, step.tag)
                lane = (g, addrs[step.src] + step.src_off, step.peer)
            elif kind == "recv":
                key = (seg, idx, kind, step.nelems, step.stride, step.tag)
                lane = (g, addrs[step.dst] + step.dst_off, step.peer)
            else:  # pragma: no cover - compiler bug guard
                raise AssertionError(f"unknown step kind {kind!r}")
            groups.setdefault(key, []).append(lane)
            idx += 1
        if n_barriers < 0:
            n_barriers = seg
        elif seg != n_barriers:
            raise SimulationError(
                f"schedule {sched.collective}:{sched.algorithm} rank {g} has "
                f"{seg} barriers, rank 0 has {n_barriers} — cannot batch"
            )
    return groups, n_barriers


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
    groups, n_barriers = _collect_groups(sched, addrs_per_rank, K)
    order = sorted(groups)
    cursor = 0
    cfg = cost.cfg
    cycle_ns = cfg.cycle_ns
    rounds = ceil(log2(K)) if K > 1 else 0
    round_ns = round_cost_ns(cfg, world.tolist())
    mbx = cfg.mailbox
    # In-flight mailbox messages: (src, dst) group-rank pair -> FIFO of
    # (tag, nelems, payload, t_avail).  Persists across segments (hoisted
    # get-requests are matched one barrier later).
    pending: dict[tuple[int, int], deque] = {}
    for seg in range(n_barriers + 1):
        seg_keys = []
        while cursor < len(order) and order[cursor][0] == seg:
            seg_keys.append(order[cursor])
            cursor += 1
        # Execute the segment's groups in dataflow order: each rank's
        # groups run in its program (step-index) order — cross-rank
        # hazards are forbidden by the linter, but same-rank
        # write-then-read within a segment (get-into-scratch feeding a
        # reduce, recv feeding a reduce) is real sequencing.  A recv
        # group additionally waits until every lane's (src, dst) FIFO
        # holds its message, which may be deposited by a send group at a
        # *higher* step index on another rank; the fixpoint scan below
        # resolves those forward dependencies exactly as the concurrent
        # per-PE machine does.
        def _run_group(key: tuple) -> None:
            lanes = groups[key]
            kind, e, s = key[2], key[3], key[4]
            if kind == "put" or kind == "get":
                g = np.fromiter((l[0] for l in lanes), np.int64, len(lanes))
                dst = np.fromiter((l[1] for l in lanes), np.int64, len(lanes))
                src = np.fromiter((l[2] for l in lanes), np.int64, len(lanes))
                peer = np.fromiter((l[3] for l in lanes), np.int64, len(lanes))
                L = len(g)
                if np.any(peer == g):  # pragma: no cover - compiler bug guard
                    raise AssertionError("put/get to self in schedule")
                nbytes = e * b
                g_rows = rows[g]
                peer_rows = rows[peer]
                tg = t[g]
                if kind == "put":
                    stats.puts += L
                    if e == 0:
                        return
                    stats.bytes_put += nbytes * L
                    stats.remote_puts += L
                    tg = tg + loop_overhead_ns(cfg, e)
                    tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                    tg += OLB_LOOKUP_NS
                    wcost = cost.strided_ns(peer_rows, dst, e, b, s,
                                            use_tlb=False)
                    for i in np.lexsort((g, tg)):
                        free, delivered, _ = net.send(
                            tg[i], int(world[g[i]]), int(world[peer[i]]),
                            nbytes)
                        if free > tg[i]:
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
                                            use_tlb=False)
                    for i in np.lexsort((g, tg)):
                        done = net.fetch(tg[i], int(world[g[i]]),
                                         int(world[peer[i]]), nbytes)[0]
                        done += rcost[i]
                        if done > tg[i]:
                            tg[i] = done
                    tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                    t[g] = tg
                    if mem is not None:
                        vals = _gather(mem, mview, peer_rows, src, e, s, dtype)
                        _scatter(mem, mview, g_rows, dst, e, s, dtype, vals)
            elif kind == "copy":
                charged, skip_noop = key[5], key[6]
                g = np.fromiter((l[0] for l in lanes), np.int64, len(lanes))
                dst = np.fromiter((l[1] for l in lanes), np.int64, len(lanes))
                src = np.fromiter((l[2] for l in lanes), np.int64, len(lanes))
                if charged and skip_noop:
                    if e == 0:
                        return  # the executor's local_copy guard
                    keep = dst != src
                    g, dst, src = g[keep], dst[keep], src[keep]
                L = len(g)
                if L == 0:
                    return
                g_rows = rows[g]
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
            elif kind == "reduce":
                charge_elems = key[5]
                g = np.fromiter((l[0] for l in lanes), np.int64, len(lanes))
                acc = np.fromiter((l[1] for l in lanes), np.int64, len(lanes))
                opd = np.fromiter((l[2] for l in lanes), np.int64, len(lanes))
                t[g] += charge_elems * 2.0 * cycle_ns
                if e and mem is not None:
                    g_rows = rows[g]
                    acc_vals = _gather(mem, mview, g_rows, acc, e, s, dtype)
                    opd_vals = _gather(mem, mview, g_rows, opd, e, s, dtype)
                    apply_op(sched.op, acc_vals, opd_vals)
                    _scatter(mem, mview, g_rows, acc, e, s, dtype, acc_vals)
            elif kind == "fill":
                g = np.fromiter((l[0] for l in lanes), np.int64, len(lanes))
                dst = np.fromiter((l[1] for l in lanes), np.int64, len(lanes))
                g_rows = rows[g]
                span = step_span_bytes(e, s, b)
                t[g] += cost.range_ns(g_rows, dst, span, use_tlb=True)
                if e and mem is not None:
                    vals = np.broadcast_to(
                        np.asarray(identity_of(sched.op, dtype)),
                        (len(g), e)).astype(dtype, copy=True)
                    _scatter(mem, mview, g_rows, dst, e, s, dtype, vals)
            elif kind == "send":
                tag = key[5]
                g = np.fromiter((l[0] for l in lanes), np.int64, len(lanes))
                src = np.fromiter((l[1] for l in lanes), np.int64, len(lanes))
                peer = np.fromiter((l[2] for l in lanes), np.int64, len(lanes))
                L = len(g)
                if np.any(peer == g):  # pragma: no cover - compiler bug guard
                    raise AssertionError("send to self in schedule")
                nbytes = e * b
                stats.sends += L
                stats.bytes_sent += nbytes * L
                g_rows = rows[g]
                tg = t[g]
                vals = None
                if e:
                    tg = tg + loop_overhead_ns(cfg, e)
                    tg += cost.strided_ns(g_rows, src, e, b, s, use_tlb=True)
                    if mem is not None:
                        vals = _gather(mem, mview, g_rows, src, e, s, dtype)
                wire = nbytes + mbx.header_bytes
                for i in np.lexsort((g, tg)):
                    sp, dp = int(world[g[i]]), int(world[peer[i]])
                    free, delivered, _ = net.send(tg[i], sp, dp, wire)
                    if free > tg[i]:
                        tg[i] = free
                    hops = net.route_hops(net.node_of(sp), net.node_of(dp))
                    t_avail = delivered + mbx.route_ns_per_hop * hops
                    net.note_delivery(t_avail)
                    pending.setdefault(
                        (int(g[i]), int(peer[i])), deque()).append(
                        (tag, e, None if vals is None else vals[i], t_avail))
                t[g] = tg
            elif kind == "recv":
                tag = key[5]
                g = np.fromiter((l[0] for l in lanes), np.int64, len(lanes))
                dst = np.fromiter((l[1] for l in lanes), np.int64, len(lanes))
                peer = np.fromiter((l[2] for l in lanes), np.int64, len(lanes))
                L = len(g)
                stats.recvs += L
                g_rows = rows[g]
                avail = np.empty(L)
                val_rows = []
                for i in range(L):
                    q = pending.get((int(peer[i]), int(g[i])))
                    if not q:
                        raise SimulationError(
                            f"schedule {sched.collective}:{sched.algorithm} "
                            f"rank {int(g[i])} segment {seg}: recv from rank "
                            f"{int(peer[i])} has no matching send — lint "
                            "the schedule's message matching"
                        )
                    mtag, melems, mvals, t_avail = q.popleft()
                    if mtag != tag or melems != e:
                        raise SimulationError(
                            f"schedule {sched.collective}:{sched.algorithm} "
                            f"rank {int(g[i])} segment {seg}: recv(tag={tag},"
                            f" nelems={e}) mismatches the pair-FIFO head "
                            f"(tag={mtag}, nelems={melems})"
                        )
                    avail[i] = t_avail
                    val_rows.append(mvals)
                tg = np.maximum(t[g], avail) + mbx.match_ns
                if e:
                    tg = tg + loop_overhead_ns(cfg, e)
                    tg += cost.strided_ns(g_rows, dst, e, b, s, use_tlb=True)
                    if mem is not None:
                        _scatter(mem, mview, g_rows, dst, e, s, dtype,
                                 np.stack(val_rows))
                t[g] = tg
        by_rank: dict[int, list] = {}
        for key in seg_keys:
            for lane in groups[key]:
                by_rank.setdefault(lane[0], []).append(key)
        ptr = dict.fromkeys(by_rank, 0)
        remaining = seg_keys
        while remaining:
            deferred: list = []
            for key in remaining:
                lanes = groups[key]
                ready = all(by_rank[l[0]][ptr[l[0]]] == key for l in lanes)
                if ready and key[2] == "recv":
                    ready = all(pending.get((int(l[2]), int(l[0])))
                                for l in lanes)
                if not ready:
                    deferred.append(key)
                    continue
                _run_group(key)
                for l in groups[key]:
                    ptr[l[0]] += 1
            if len(deferred) == len(remaining):
                raise SimulationError(
                    f"schedule {sched.collective}:{sched.algorithm} "
                    f"segment {seg}: groups {deferred} cannot make "
                    "progress — a recv waits on a send that never "
                    "deposits (batch-evaluation deadlock)"
                )
            remaining = deferred
        if seg < n_barriers:
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
