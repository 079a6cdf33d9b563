"""Broadcast (paper section 4.3, Algorithm 1), compiled to a schedule.

The binomial tree is expressed as a compiler: :func:`compile_broadcast`
turns ``(n_pes, root, nelems, stride)`` into a
:class:`~repro.collectives.schedule.Schedule` whose per-rank stages
carry exactly the puts the paper's mask loop produced — the pairings
come from :func:`~repro.collectives.binomial.tree_stages`, the oracle
for that mask arithmetic, so the ``vir_rank < vir_part`` guard lives in
one place.  The single schedule executor then replays it (entry
barrier, root's local copy, one put per stage edge, barrier per stage).

``dest`` must be a symmetric address (it is written remotely on every
PE); ``src`` need only exist on the root.  Non-root senders forward out
of their own ``dest``, which holds the values they received in an
earlier stage.

Alternative algorithms (``linear``, ``ring``) are provided for the
algorithm-selection ablation (section 4.1: "no universally optimal
solution"); ``auto`` asks :mod:`~repro.collectives.tuning`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from .binomial import n_stages, tree_stages
from .common import (
    call_attrs,
    resolve_group,
    span_bytes,
    validate_counts,
    validate_root,
)
from .schedule.executor import PreparedCollective
from .schedule.ir import (
    BARRIER,
    Buffer,
    Copy,
    Put,
    RankProgram,
    Schedule,
    closed_stage,
)
from .virtual_rank import logical_rank, ring_neighbor, virtual_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["broadcast", "prepare_broadcast", "compile_broadcast"]

#: Algorithms :func:`compile_broadcast` accepts.
ALGORITHMS = ("binomial", "linear", "ring")


def broadcast(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    root: int,
    dtype: np.dtype,
    *,
    algorithm: str = "binomial",
    group: Sequence[int] | None = None,
    copy_to_root_dest: bool = True,
) -> None:
    """``xbrtime_TYPE_broadcast(dest, src, nelems, stride, root)``.

    ``copy_to_root_dest=False`` gives OpenSHMEM ``shmem_broadcast``
    semantics, where the root's ``dest`` is *not* updated (section 4.7).
    """
    prepare_broadcast(
        ctx, dest, src, nelems, stride, root, dtype, algorithm=algorithm,
        group=group, copy_to_root_dest=copy_to_root_dest,
    ).run(ctx)


def prepare_broadcast(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    root: int,
    dtype: np.dtype,
    *,
    algorithm: str = "binomial",
    group: Sequence[int] | None = None,
    copy_to_root_dest: bool = True,
) -> PreparedCollective:
    """Validate, select and compile — everything but the execution.

    Non-blocking collectives call this at initiation and ``run()`` the
    result at ``wait()``; the blocking entry point does both at once.
    """
    validate_counts(nelems, stride)
    members, me = resolve_group(ctx, group)
    n_pes = len(members)
    validate_root(root, n_pes)
    if n_pes > 1 and not ctx.is_symmetric(dest):
        raise CollectiveArgumentError(
            f"broadcast dest {dest:#x} must be a symmetric (shared-segment) "
            "address"
        )
    if algorithm == "auto":
        from .tuning import select_algorithm

        algorithm = select_algorithm(
            "broadcast", nelems * dtype.itemsize, n_pes,
            ctx.config.topology,
        )
    attrs = call_attrs(ctx, dtype, algorithm=algorithm, root=root,
                       nelems=nelems)
    if algorithm == "hierarchical":
        from .hierarchy import broadcast_hierarchical

        return PreparedCollective(
            name="broadcast", members=members, me=me, dtype=dtype,
            attrs=attrs, stats_key="broadcast:hierarchical", stats_rank=root,
            body=lambda c: broadcast_hierarchical(
                c, dest, src, nelems, stride, root, dtype, group=group),
        )
    sched = compile_broadcast(n_pes, root, nelems, stride, dtype.itemsize,
                              algorithm=algorithm,
                              copy_to_root_dest=copy_to_root_dest)
    return PreparedCollective(
        name="broadcast", members=members, me=me, dtype=dtype, attrs=attrs,
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key=f"broadcast:{algorithm}", stats_rank=root,
    )


def run_binomial(ctx: "XBRTime", dest: int, src: int, nelems: int,
                 stride: int, root: int, dtype: np.dtype,
                 members: tuple[int, ...], me: int) -> None:
    """Execute the binomial tree as a bare sub-schedule (no outer span).

    The hierarchical two-level broadcast composes compiled trees inside
    its own ``broadcast.inter``/``broadcast.intra`` spans.
    """
    from .schedule.executor import execute_schedule

    sched = compile_broadcast(len(members), root, nelems, stride,
                              dtype.itemsize)
    execute_schedule(ctx, sched, tuple(members), me,
                     {"dest": dest, "src": src}, dtype)


def compile_broadcast(n_pes: int, root: int, nelems: int, stride: int,
                      itemsize: int, *, algorithm: str = "binomial",
                      copy_to_root_dest: bool = True) -> Schedule:
    """Compile one broadcast call shape into a schedule (pure, cached)."""
    if algorithm == "binomial":
        return _compile_binomial(n_pes, root, nelems, stride, itemsize,
                                 copy_to_root_dest)
    if algorithm == "linear":
        return _compile_linear(n_pes, root, nelems, stride, itemsize,
                               copy_to_root_dest)
    if algorithm == "ring":
        return _compile_ring(n_pes, root, nelems, stride, itemsize,
                             copy_to_root_dest)
    raise CollectiveArgumentError(f"unknown broadcast algorithm {algorithm!r}")


def _buffers(n_pes: int, root: int, nbytes: int) -> tuple[Buffer, ...]:
    return (
        Buffer("dest", "user", nbytes, symmetric=n_pes > 1),
        Buffer("src", "user", nbytes, ranks=(root,)),
    )


def _deliver(n_pes: int, root: int, nbytes: int,
             copy_to_root_dest: bool) -> tuple:
    if nbytes == 0:
        return ()
    return tuple(
        (r, "dest", 0, nbytes) for r in range(n_pes)
        if r != root or copy_to_root_dest
    )


@lru_cache(maxsize=512)
def _compile_binomial(n_pes: int, root: int, nelems: int, stride: int,
                      itemsize: int, copy_to_root_dest: bool) -> Schedule:
    nbytes = span_bytes(nelems, stride, itemsize)
    # Index each stage's pairs by sender so the per-rank loop below is
    # O(log N) per rank instead of rescanning all N-1 tree edges.
    stage_targets: list[dict[int, list[int]]] = []
    for pairs in tree_stages(n_pes, "halving"):
        by_sender: dict[int, list[int]] = {}
        for frm, to in pairs:
            by_sender.setdefault(frm, []).append(to)
        stage_targets.append(by_sender)
    programs = []
    for r in range(n_pes):
        vir = virtual_rank(r, root, n_pes)
        # Entry barrier: the paper's Algorithm 1 only barriers at stage
        # ends, but a put-based tree must order every participant's
        # *prior* writes to dest before the root's first put can land.
        prologue: list = [BARRIER]
        if r == root and copy_to_root_dest:
            prologue.append(Copy("dest", 0, "src", 0, nelems, stride))
        local_src = "src" if r == root else "dest"
        stages = []
        for ordinal, by_sender in enumerate(stage_targets):
            steps: list = []
            for to in by_sender.get(vir, ()):
                # The mask loop emitted the put even for nelems == 0
                # (counted in stats.puts); preserve that.
                steps.append(Put("dest", 0, local_src, 0, nelems,
                                 stride, logical_rank(to, root, n_pes)))
            # A barrier closes every tree stage (section 4.3).
            stages.append(closed_stage(ordinal, steps))
        programs.append(RankProgram(r, tuple(prologue), tuple(stages)))
    return Schedule(
        collective="broadcast", algorithm="binomial", n_pes=n_pes,
        itemsize=itemsize, root=root,
        buffers=_buffers(n_pes, root, nbytes), programs=tuple(programs),
        deliver=_deliver(n_pes, root, nbytes, copy_to_root_dest),
    )


@lru_cache(maxsize=512)
def _compile_linear(n_pes: int, root: int, nelems: int, stride: int,
                    itemsize: int, copy_to_root_dest: bool) -> Schedule:
    """Flat algorithm: the root puts to every PE in turn (no stages)."""
    nbytes = span_bytes(nelems, stride, itemsize)
    programs = []
    for r in range(n_pes):
        prologue: list = [BARRIER]
        if r == root:
            if copy_to_root_dest:
                prologue.append(Copy("dest", 0, "src", 0, nelems, stride))
            for other in range(n_pes):
                if other != root:
                    prologue.append(Put("dest", 0, "src", 0, nelems, stride,
                                        other))
        programs.append(RankProgram(r, tuple(prologue), (), (BARRIER,)))
    return Schedule(
        collective="broadcast", algorithm="linear", n_pes=n_pes,
        itemsize=itemsize, root=root,
        buffers=_buffers(n_pes, root, nbytes), programs=tuple(programs),
        deliver=_deliver(n_pes, root, nbytes, copy_to_root_dest),
    )


#: Payload chunks the pipelined ring splits a broadcast into.
_RING_CHUNKS = 8


@lru_cache(maxsize=512)
def _compile_ring(n_pes: int, root: int, nelems: int, stride: int,
                  itemsize: int, copy_to_root_dest: bool) -> Schedule:
    """Chunked pipelined ring — the large-message baseline.

    The payload is split into up to ``_RING_CHUNKS`` pieces; at step
    ``s`` the PE at ring position ``p`` forwards chunk ``s - p``, so all
    ring links carry different chunks concurrently.  Completion takes
    ``(N-1) + (chunks-1)`` steps instead of the unchunked ring's
    ``N-1`` full-payload steps.
    """
    nbytes = span_bytes(nelems, stride, itemsize)
    programs = []
    degenerate = n_pes == 1 or nelems == 0
    chunks = min(_RING_CHUNKS, nelems)
    bounds = [nelems * c // chunks for c in range(chunks + 1)] if chunks else []
    for r in range(n_pes):
        prologue: list = [BARRIER]
        if r == root and copy_to_root_dest:
            prologue.append(Copy("dest", 0, "src", 0, nelems, stride))
        if degenerate:
            programs.append(RankProgram(r, tuple(prologue), (), (BARRIER,)))
            continue
        pos = virtual_rank(r, root, n_pes)  # ring position behind the root
        nxt = ring_neighbor(r, n_pes, 1)
        local_src = "src" if r == root else "dest"
        stages = []
        for step in range(n_pes - 1 + chunks - 1):
            steps: list = []
            c = step - pos
            if 0 <= c < chunks and pos < n_pes - 1:
                lo, hi = bounds[c], bounds[c + 1]
                if hi > lo:
                    off = lo * stride * itemsize
                    steps.append(Put("dest", off, local_src, off, hi - lo,
                                     stride, nxt))
            stages.append(closed_stage(step, steps))
        programs.append(RankProgram(r, tuple(prologue), tuple(stages)))
    return Schedule(
        collective="broadcast", algorithm="ring", n_pes=n_pes,
        itemsize=itemsize, root=root,
        buffers=_buffers(n_pes, root, nbytes), programs=tuple(programs),
        deliver=_deliver(n_pes, root, nbytes, copy_to_root_dest),
    )
