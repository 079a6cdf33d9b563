"""Deferred-execution superstep mode (BSP-style request batching).

``with ctx.superstep():`` buffers the body's ``put``/``get`` calls and
collective calls into a per-step request queue instead of executing
them — the bsponmpi request-queue design, adapted to one-sided xBGAS
semantics.  Every collective call reaches the queue the same way: its
front end — a context method, a
:class:`~repro.collectives.teams.Team` or a
:class:`~repro.baselines.shmem.ShmemAPI` call — validates and compiles
it into a :class:`~repro.collectives.schedule.PreparedCollective`
(so a malformed call raises at the call site) and hands it to the
context's one dispatcher, which queues it as one request.  At the
step's sync point (the ``with`` exit, or an explicit ``ctx.barrier()``
inside the body) the queue **flushes**:

1. deferred one-sided transfers run first, coalesced — transfers with
   the same ``(kind, peer, dtype, stride)`` whose source *and*
   destination ranges are exactly contiguous merge into single larger
   transfers;
2. deferred collectives then run in call order, batched by the
   coalescing key ``(collective, root, group, dtype)``: same-key
   same-shape calls of a widenable algorithm merge into **one wider
   collective** with per-request sub-ranges
   (:func:`~repro.collectives.schedule.fuse.compile_widened`), and the
   remaining compiled schedules of a compatible batch interleave into
   one fused schedule under shared barriers
   (:func:`~repro.collectives.schedule.fuse.fuse_schedules`).

The flush executes through the ordinary schedule executor, so sim, mp
and vec backends run supersteps unmodified and byte-identical to eager
mode.  Ordering contract (the BSP step horizon): deferred operations
observe memory as of the flush, transfers commit before collectives,
and collectives commit in call order — a race-free eager program that
keeps its deferred operations' buffers disjoint within one step sees
identical bytes.

Which requests batch: one rule, whatever the collective.  A request
batches if and only if every address it binds is symmetric
(``ctx.is_symmetric``) and its schedule is not partitioned (the
hierarchical algorithms: fusion cannot share their per-node barriers);
any other call flushes alone, in call order, splitting the batch.
Every rank must reach the same verdict (it feeds one fused schedule),
which holds only if every rank passes the same addresses, root-only
buffers included: a broadcast's or scatter's ``src``, a reduce's or
gather's ``dest``.  Symmetric addresses are rank-uniform and byte ranges
come from the schedule's buffer table (a per-rank extent counts as its
largest), so the conflict and widening analysis is SPMD-deterministic.

Fusion failures (:class:`~repro.errors.FusionError`), and merged
schedules whose scratch would overflow the collective scratch region,
downgrade to sequential execution — batching is a performance layer,
never a semantic one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import FusionError, RuntimeStateError

__all__ = ["Superstep", "superstep_context"]

#: Methods the superstep shadows on the context instance.
_SHADOWED = ("put", "get", "barrier")


@dataclass
class _Transfer:
    """One deferred one-sided transfer."""

    kind: str  # "put" | "get"
    dest: int
    src: int
    nelems: int
    stride: int
    pe: int
    dtype: np.dtype


@dataclass
class _Request:
    """One deferred collective call: its prepared form, and whether it
    may join a fused batch (see module docstring)."""

    prepared: object  # PreparedCollective
    batchable: bool

    @property
    def op(self) -> str | None:
        return self.prepared.attrs.get("op")

    @property
    def nelems(self) -> int:
        return self.prepared.attrs["nelems"]

    @property
    def widen_key(self) -> tuple:
        attrs = self.prepared.attrs
        return (self.prepared.name, attrs["algorithm"], attrs.get("root"))

    def extent(self, name: str) -> tuple[int, int]:
        """The byte range the schedule may touch in user buffer ``name``
        on any rank: a per-rank extent counts as its largest, so every
        rank computes the same range."""
        lo = self.prepared.bindings[name]
        nbytes = self.prepared.schedule.buffer(name).nbytes
        return lo, lo + (max(nbytes) if isinstance(nbytes, tuple)
                         else nbytes)


class Superstep:
    """The request queue of one active superstep (see module docstring).

    Public attributes: ``pending`` (deferred operation count) and
    ``flushes`` (completed flush count), mainly for tests and examples.
    """

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._queue: list = []
        self.flushes = 0

    @property
    def pending(self) -> int:
        return len(self._queue)

    # -- deferral (called from the shadowed methods / the dispatcher) --

    def defer_transfer(self, kind: str, dest: int, src: int, nelems: int,
                       stride: int, pe: int, dtype: np.dtype) -> None:
        self._queue.append(_Transfer(kind, dest, src, nelems, stride, pe,
                                     dtype))

    def defer(self, prepared) -> None:
        """Queue one validated, compiled collective call."""
        batchable = not prepared.schedule.table.partitioned and all(
            map(self._ctx.is_symmetric, prepared.bindings.values()))
        self._queue.append(_Request(prepared, batchable))

    # -- flush --------------------------------------------------------

    def flush(self) -> None:
        """Execute and clear the queue (shadows must be disarmed)."""
        queue, self._queue = self._queue, []
        if not queue:
            return
        self.flushes += 1
        ctx = self._ctx
        self._run_transfers(ctx,
                            [it for it in queue
                             if isinstance(it, _Transfer)])
        batch: list = []
        for item in queue:
            if isinstance(item, _Transfer):
                continue
            if self._joins(batch, item):
                batch.append(item)
            else:
                self._run_batch(ctx, batch)
                batch = [item] if item.batchable else []
                if not item.batchable:
                    item.prepared.run(ctx)
        self._run_batch(ctx, batch)

    def discard(self) -> None:
        self._queue.clear()

    # -- transfers ----------------------------------------------------

    @staticmethod
    def _coalesce(xfers: list) -> Iterator[_Transfer]:
        """Merge exactly-contiguous same-lane transfers.

        Lanes are ``(kind, peer, dtype, stride)``; within a stride-1
        lane, transfers sorted by ``(dest, src)`` merge while both the
        destination *and* source ranges continue without a gap.
        """
        lanes: dict = {}
        for t in xfers:
            lanes.setdefault(
                (t.kind, t.pe, str(t.dtype), t.stride), []).append(t)
        for (kind, pe, _dt, stride), lane in sorted(
                lanes.items(), key=lambda kv: kv[0][:2] + (kv[0][2],)):
            if stride != 1:
                yield from lane
                continue
            lane.sort(key=lambda t: (t.dest, t.src))
            cur = lane[0]
            for t in lane[1:]:
                size = cur.nelems * cur.dtype.itemsize
                if t.dest == cur.dest + size and t.src == cur.src + size:
                    cur = _Transfer(kind, cur.dest, cur.src,
                                    cur.nelems + t.nelems, 1, pe,
                                    cur.dtype)
                else:
                    yield cur
                    cur = t
            yield cur

    def _run_transfers(self, ctx, xfers: list) -> None:
        for t in self._coalesce(xfers):
            method = ctx.put if t.kind == "put" else ctx.get
            method(t.dest, t.src, t.nelems, t.stride, t.pe, t.dtype)

    # -- collective batching ------------------------------------------

    @staticmethod
    def _joins(batch: list, req: _Request) -> bool:
        """May ``req`` join the accumulating batch?

        Same group, same dtype, at most one reduction operator, and no
        overlap between ``req``'s buffer ranges and the batch's (all
        addresses symmetric, hence rank-uniform — every rank reaches
        the same verdict).
        """
        if not req.batchable:
            return False
        if not batch:
            return True
        head = batch[0]
        if req.prepared.members != head.prepared.members:
            return False
        if req.prepared.dtype != head.prepared.dtype:
            return False
        ops = {r.op for r in batch if r.op is not None}
        if req.op is not None:
            ops.add(req.op)
        if len(ops) > 1:
            return False
        w, r = req.extent("dest"), req.extent("src")
        for other in batch:
            o_w = other.extent("dest")
            if _overlap(w, o_w) or _overlap(w, other.extent("src")) \
                    or _overlap(r, o_w):
                return False
        return True

    def _run_batch(self, ctx, batch: list) -> None:
        if len(batch) < 2:
            for req in batch:
                req.prepared.run(ctx)
            return
        from ..collectives.schedule.fuse import compile_widened, widens

        head = batch[0].prepared
        itemsize = head.dtype.itemsize
        # Widen same-key runs (the coalescing table): group requests by
        # (collective, algorithm, root); a group of >= 2 non-empty
        # stride-1 requests becomes one wider collective.
        groups: dict = {}
        for i, req in enumerate(batch):
            if widens(req.prepared.schedule, req.nelems):
                groups.setdefault(req.widen_key, []).append(i)
        widened: dict = {}  # first index -> (schedule, bindings, members)
        consumed: set = set()
        for key, idxs in groups.items():
            if len(idxs) < 2:
                continue
            collective, algorithm, root = key
            reqs = [batch[i] for i in idxs]
            sched = compile_widened(
                collective, algorithm, len(head.members),
                root if root is not None else 0,
                reqs[0].op, itemsize,
                tuple(r.nelems for r in reqs))
            bindings = {}
            for j, r in enumerate(reqs):
                bindings[f"src{j}"] = r.prepared.bindings["src"]
                bindings[f"dest{j}"] = r.prepared.bindings["dest"]
            widened[idxs[0]] = (sched, bindings, reqs)
            consumed.update(idxs)
        entries: list = []  # (schedule, bindings, reqs)
        for i, req in enumerate(batch):
            if i in widened:
                entries.append(widened[i])
            elif i not in consumed:
                entries.append((req.prepared.schedule,
                                dict(req.prepared.bindings), [req]))
        try:
            if len(entries) > 1:
                self._run_fused(ctx, entries, batch)
                return
        except FusionError:
            pass  # a structural surprise: run the entries one by one
        for sched, bindings, reqs in entries:
            if len(reqs) == 1 or not _fits(ctx, sched):
                for req in reqs:
                    req.prepared.run(ctx)
            else:
                self._run_merged(
                    ctx, reqs[0].prepared.name, sched, bindings, reqs,
                    dict(algorithm=sched.algorithm, requests=len(reqs)))

    def _run_fused(self, ctx, entries: list, batch: list) -> None:
        from ..collectives.schedule.fuse import fuse_schedules

        fused = fuse_schedules(tuple(s for s, _b, _r in entries))
        if not _fits(ctx, fused):
            raise FusionError("fused schedule's scratch does not fit")
        bindings = {f"r{i}:{name}": addr
                    for i, (_sched, entry, _reqs) in enumerate(entries)
                    for name, addr in entry.items()}
        self._run_merged(ctx, "superstep", fused, bindings, batch,
                         dict(requests=len(batch), entries=len(entries)))
        head = batch[0].prepared
        if head.me == head.members[0]:
            ctx.count_collective("superstep:flush")

    @staticmethod
    def _run_merged(ctx, name: str, sched, bindings: dict, reqs: list,
                    attrs: dict) -> None:
        """Run one schedule merged from ``reqs``, booking each request's
        eager stats key as its solo run would."""
        from ..collectives.schedule.executor import PreparedCollective

        for req in reqs:
            prepared = req.prepared
            if prepared.stats_key is not None \
                    and prepared.me == prepared.stats_rank:
                ctx.count_collective(prepared.stats_key)
        head = reqs[0].prepared
        PreparedCollective(
            name=name, members=head.members, me=head.me, dtype=head.dtype,
            attrs=attrs, schedule=sched, bindings=bindings,
        ).run(ctx)


def _overlap(a: tuple, b: tuple) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def _fits(ctx, sched) -> bool:
    """Does ``sched``'s scratch fit the free collective scratch?  A
    merged schedule holds every request's scratch at once, where the
    eager calls held one at a time.  The scratch stack is the same on
    every rank at a flush, so every rank reaches the same verdict."""
    need = sum(-(-buf.nbytes // 16) * 16 for buf in sched.buffers
               if buf.kind == "scratch")
    return need <= ctx._scratch.size - ctx._scratch.bytes_used


def _arm(ctx, step: Superstep) -> None:
    """Install the deferring shadows over the context instance."""
    ctx._superstep = step

    def put(dest, src, nelems, stride, pe, dtype="long"):
        from .collective_api import resolve_dtype

        step.defer_transfer("put", dest, src, nelems, stride, pe,
                            resolve_dtype(dtype))

    def get(dest, src, nelems, stride, pe, dtype="long"):
        from .collective_api import resolve_dtype

        step.defer_transfer("get", dest, src, nelems, stride, pe,
                            resolve_dtype(dtype))

    def barrier():
        # Mid-step sync: flush eagerly, pass the real barrier, re-arm.
        _disarm(ctx)
        try:
            step.flush()
            ctx.barrier()
        finally:
            _arm(ctx, step)

    ctx.__dict__["put"] = put
    ctx.__dict__["get"] = get
    ctx.__dict__["barrier"] = barrier


def _disarm(ctx) -> None:
    for name in _SHADOWED:
        ctx.__dict__.pop(name, None)
    ctx._superstep = None


@contextmanager
def superstep_context(ctx) -> Iterator[Superstep]:
    """Implementation of ``CollectiveAPI.superstep()``."""
    ctx._require_active()
    if getattr(ctx, "_superstep", None) is not None:
        raise RuntimeStateError(
            "superstep() does not nest — the step horizon is the "
            "outermost sync"
        )
    step = Superstep(ctx)
    _arm(ctx, step)
    try:
        yield step
    except BaseException:
        step.discard()
        raise
    finally:
        _disarm(ctx)
    step.flush()
