"""The per-PE program a serving job runs — one function, any backend.

``run_collective_job`` is the module-level (hence picklable) SPMD body
dispatched to every member of a job's team; it runs a batch of jobs
that share the team, and a lone job is a batch of one.  It is written
entirely against the PE-context protocol plus the ``default_group``
attribute, so the same bytes run

* **team-scoped** on the mp backend — the pool submits it on a rank
  subset whose contexts carry ``default_group``, and every collective
  called without an explicit group targets the team; and
* **world-scoped** on the sim/vec fallback engines — a fresh session of
  exactly ``n_pes`` PEs where ``default_group`` is ``None`` and the
  world *is* the team.

Payload contents depend only on ``(seed, group rank)``, never on world
ranks, so the same spec produces byte-identical buffers wherever the
scheduler places it — the property the cross-tenant isolation tests
(and the fault-free/faulted differential runs) rely on.

On a failure path nothing is freed or closed: ``close``/``free`` are
group-synchronising or replicated bookkeeping, and a faulted team's
survivors unwind from *inside* a collective — any cleanup barrier here
would deadlock against peers that never reach it.  The context is
per-run disposable (the backend rebuilds allocator state each run), so
abandoning it is the correct teardown.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from ..runtime.collective_api import resolve_dtype

__all__ = ["run_collective_job", "payload_values"]

#: Modulus for deterministic payload values: exact in every TYPENAME
#: (fits int8; small enough that float sums stay exactly representable).
_VALUE_MOD = 89


def payload_values(seed: int, member: int, nelems: int,
                   dtype: str) -> np.ndarray:
    """The deterministic payload one group member contributes."""
    dt = resolve_dtype(dtype)
    base = (seed * 31 + member * 7) % _VALUE_MOD
    vals = (base + np.arange(nelems, dtype=np.int64)) % _VALUE_MOD
    return vals.astype(dt)


def _inject_fault(spec: dict, me: int, backend: str) -> None:
    """Fire the spec's seeded fault on its (group-relative) victim.

    ``"exit"`` is a hard process death — only meaningful where a PE is
    a process (mp).  In-process backends degrade it to ``"raise"``:
    killing the interpreter would take the server (and every other
    tenant) with it, which is exactly what the serving layer exists to
    prevent.
    """
    mode = spec.get("fault")
    if mode is None or me != spec.get("fault_rank", 0):
        return
    if mode == "exit" and backend == "mp":
        os._exit(23)
    raise RuntimeError(
        f"injected tenant fault (seed={spec.get('seed', 0)})"
    )


class _JobBuffers:
    """One job's allocated payload buffers on this PE."""

    __slots__ = ("spec", "src", "dst", "sview", "dview")

    def __init__(self, ctx, spec: dict, n: int, me: int):
        name = spec["collective"]
        nelems = spec["nelems"]
        dtype = spec["dtype"]
        seed = spec.get("seed", 0)
        itemsize = resolve_dtype(dtype).itemsize
        fanned = name in ("allgather", "alltoall")
        src_elems = nelems * n if name == "alltoall" else nelems
        dst_elems = nelems * n if fanned else nelems
        self.spec = spec
        self.src = ctx.malloc(max(src_elems, 1) * itemsize)
        self.dst = ctx.malloc(max(dst_elems, 1) * itemsize)
        self.sview = ctx.view(self.src, dtype, src_elems)
        self.dview = ctx.view(self.dst, dtype, dst_elems)
        self.sview[:] = payload_values(seed, me, src_elems, dtype)
        self.dview[:] = 0

    def issue(self, ctx, n: int) -> None:
        """Call the job's collective (no surrounding barriers)."""
        spec, src, dst = self.spec, self.src, self.dst
        name = spec["collective"]
        nelems = spec["nelems"]
        dtype = spec["dtype"]
        root = spec.get("root", 0)
        if name == "broadcast":
            ctx.broadcast(dst, src, nelems, 1, root, dtype=dtype)
        elif name == "reduce":
            ctx.reduce(dst, src, nelems, 1, root, op="sum", dtype=dtype)
        elif name == "allreduce":
            ctx.allreduce(dst, src, nelems, 1, op="sum", dtype=dtype)
        elif name == "scan":
            ctx.scan(dst, src, nelems, 1, op="sum", dtype=dtype)
        elif name == "allgather":
            msgs = [nelems] * n
            disp = [i * nelems for i in range(n)]
            ctx.allgather(dst, src, msgs, disp, nelems * n, dtype=dtype)
        elif name == "alltoall":
            ctx.alltoall(dst, src, nelems, dtype=dtype)
        else:  # "barrier" — synchronisation-only job
            ctx.barrier()
            self.dview[:] = self.sview[:len(self.dview)]

    def digest(self) -> str:
        return hashlib.sha256(self.dview.tobytes()).hexdigest()

    def free(self, ctx) -> None:
        ctx.free(self.dst)
        ctx.free(self.src)


def run_collective_job(ctx, *wires: dict) -> dict:
    """Run a batch of one or more same-team jobs on this PE.

    Each of ``wires`` is :meth:`repro.serve.job.JobSpec.as_wire`; the
    pool batches only fault-free jobs whose specs share a batch key
    (:meth:`~repro.serve.job.JobSpec.batch_key`).  Every job's payload
    is set up first; two or more jobs then issue their collectives
    inside one ``ctx.superstep()``, so the flush fuses them, while a
    single job issues its call directly (a one-request superstep only
    adds its bookkeeping).  Returns ``{"member": me, "digests": [...]}``
    with one SHA-256 over the member's destination buffer bytes per
    job, in ``wires`` order — byte-identical to each job's solo run,
    because the jobs' buffers are disjoint and the superstep flush is
    byte-identical to eager execution.  The pool folds the members'
    digests (in group order) into each job's digest, so collectives
    whose outputs legitimately differ per rank (scan, alltoall) still
    compare byte-exactly across runs.
    """
    ctx.init()
    group = getattr(ctx, "default_group", None) or ctx.world_group
    n = len(group)
    me = group.index(ctx.rank)
    jobs = [_JobBuffers(ctx, spec, n, me) for spec in wires]
    ctx.barrier()

    backend = getattr(ctx, "backend_name", "sim")
    for spec in wires:
        _inject_fault(spec, me, backend)
    if len(jobs) == 1:
        jobs[0].issue(ctx, n)
    else:
        with ctx.superstep():
            for job in jobs:
                job.issue(ctx, n)
    ctx.barrier()

    digests = [job.digest() for job in jobs]
    for job in reversed(jobs):
        job.free(ctx)
    ctx.close()
    return {"member": me, "digests": digests}
