"""IR nodes for compiled collective schedules.

A :class:`Schedule` is a pure, immutable description of one collective
call: which buffers it touches and, for every group rank, which
primitive steps it performs in which barrier-delimited stage.  All
nodes are frozen dataclasses built from hashable scalars and tuples, so
schedules can be cached (``lru_cache``), compared and linted without a
runtime context.

Addressing is symbolic: steps name buffers (see :class:`Buffer`) plus a
**byte** offset; the executor binds names to concrete addresses (user
arguments) or allocates them (scratch / private work buffers).  Ranks
are group-relative — the executor maps them through the member tuple,
exactly like the legacy tree walks mapped ``log_part`` through
``members``.

Step semantics (mirroring the legacy inline code they replaced):

* :class:`Put` / :class:`Get` — one-sided strided transfer to/from
  ``peer`` (never self; local movement is :class:`Copy`).
* :class:`Copy` — local strided copy.  ``charged=True`` costs like a
  put-to-self; ``skip_noop=True`` adds the ``local_copy`` guard (no-op
  when empty or src == dst).  ``charged=False`` is the raw
  ``view[:] = view`` used by double-buffered algorithms (simulator
  cost-free by design — the charge is folded into the Reduce that
  follows).
* :class:`Reduce` — fold ``operand`` into ``acc`` with the schedule's
  operator and charge ``charge_elems`` elements of ALU work.
* :class:`Fill` — write the operator identity (exclusive-scan rank 0).
* :class:`Barrier` — team barrier over the whole group.
* :class:`Send` / :class:`Recv` — two-sided mailbox message steps, the
  lowered form :mod:`.mailbox` produces from remote :class:`Put` /
  :class:`Get` steps.  ``Send`` reads ``nelems`` strided elements from
  the local ``src`` buffer and enqueues them for ``peer``; ``Recv``
  blocks until the matching message from ``peer`` arrives and scatters
  it into the local ``dst`` buffer.  Matching is FIFO per (sender,
  receiver) pair with the ``tag`` checked on arrival, so a lowering
  that reorders messages between the same pair is a protocol error the
  linter flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Union

__all__ = [
    "Buffer",
    "Put",
    "Get",
    "Copy",
    "Reduce",
    "Fill",
    "Send",
    "Recv",
    "Barrier",
    "BARRIER",
    "Step",
    "Stage",
    "Pipeline",
    "RankProgram",
    "Schedule",
    "step_span_bytes",
    "segment_bounds",
]


def segment_bounds(nelems: int, segments: int, k: int) -> tuple[int, int]:
    """Element bounds ``[lo, hi)`` of segment ``k`` of ``segments``.

    The same balanced integer split every compiler uses for payload
    segmentation (mirroring the ``nelems*i//n_pes`` ring/Rabenseifner
    bounds), so pipelined producers and consumers agree on byte ranges
    by construction.
    """
    return nelems * k // segments, nelems * (k + 1) // segments


def step_span_bytes(nelems: int, stride: int, itemsize: int) -> int:
    """Bytes spanned by a strided step access (0 when empty)."""
    if nelems == 0:
        return 0
    return ((nelems - 1) * stride + 1) * itemsize


@dataclass(frozen=True)
class Buffer:
    """One named buffer of a schedule.

    ``kind`` is ``"user"`` (bound to a caller-supplied address),
    ``"scratch"`` (symmetric scratch, allocated by every rank so the
    position-dependent addresses match) or ``"private"`` (local work
    memory).  ``nbytes`` is the extent the schedule may access — an int,
    or a per-rank tuple for user buffers whose contract varies by rank
    (e.g. scatter's ``dest`` holds only that rank's segment).  ``ranks``
    restricts which group ranks hold the buffer (``None`` = all); only
    ``private``/``user`` buffers may be restricted.
    """

    name: str
    kind: str  # "user" | "scratch" | "private"
    nbytes: Union[int, tuple]
    symmetric: bool = False
    ranks: tuple = None  # type: ignore[assignment]

    def nbytes_on(self, rank: int) -> int:
        return self.nbytes[rank] if isinstance(self.nbytes, tuple) else self.nbytes

    def held_by(self, rank: int) -> bool:
        return self.ranks is None or rank in self.ranks


@dataclass(frozen=True)
class Put:
    """One-sided strided put: write ``peer``'s ``dst`` from local ``src``."""

    kind = "put"
    dst: str
    dst_off: int
    src: str
    src_off: int
    nelems: int
    stride: int
    peer: int


@dataclass(frozen=True)
class Get:
    """One-sided strided get: read ``peer``'s ``src`` into local ``dst``."""

    kind = "get"
    dst: str
    dst_off: int
    src: str
    src_off: int
    nelems: int
    stride: int
    peer: int


@dataclass(frozen=True)
class Copy:
    """Local strided copy (see module docstring for the two flags)."""

    kind = "copy"
    dst: str
    dst_off: int
    src: str
    src_off: int
    nelems: int
    stride: int
    charged: bool = True
    skip_noop: bool = True


@dataclass(frozen=True)
class Reduce:
    """``acc = acc OP operand`` elementwise + ``charge_elems`` ALU charge."""

    kind = "reduce"
    acc: str
    acc_off: int
    operand: str
    operand_off: int
    nelems: int
    stride: int
    charge_elems: int


@dataclass(frozen=True)
class Fill:
    """Write the reduction operator's identity element into ``dst``."""

    kind = "fill"
    dst: str
    dst_off: int
    nelems: int
    stride: int


@dataclass(frozen=True)
class Send:
    """Two-sided send: enqueue local ``src`` elements for ``peer``.

    Completes once the message sits in the peer's receive queue (eager
    buffered semantics) — it blocks only on backpressure, never on the
    peer posting its :class:`Recv`.  ``nelems == 0`` sends a payload-free
    control message (the request half of a lowered :class:`Get`).
    """

    kind = "send"
    src: str
    src_off: int
    nelems: int
    stride: int
    peer: int
    tag: int = 0


@dataclass(frozen=True)
class Recv:
    """Two-sided receive: block for ``peer``'s message, scatter to ``dst``.

    Matching is strictly FIFO per (peer, self) pair; ``tag`` is verified
    on arrival.  ``nelems == 0`` consumes a payload-free control message
    without touching ``dst``.
    """

    kind = "recv"
    dst: str
    dst_off: int
    nelems: int
    stride: int
    peer: int
    tag: int = 0


@dataclass(frozen=True)
class Barrier:
    """Team barrier over the full group."""

    kind = "barrier"


#: Shared barrier instance (the node is stateless).
BARRIER = Barrier()

Step = Union[Put, Get, Copy, Reduce, Fill, Send, Recv, Barrier]


@dataclass(frozen=True)
class Stage:
    """One tree stage: its steps run inside a ``stage`` span.

    ``index`` and ``attrs`` feed the span tagging
    (:func:`repro.collectives.common.stage_span`), so metrics fold
    per-stage message counts exactly as they did for the inline walks.
    """

    index: int
    steps: tuple
    attrs: tuple = ()

    def span_attrs(self) -> dict:
        return dict(self.attrs)


@dataclass(frozen=True)
class Pipeline:
    """A software-pipelined stage block: ``segments`` × step groups.

    The payload is split into S = ``segments`` chunks and the work into
    G ordered step ``groups``; ``groups[g][k]`` is the step tuple group
    ``g`` performs on segment ``k``.  Segment ``k`` of group ``g`` may
    proceed as soon as segment ``k`` of group ``g-1`` has delivered, so
    the block lowers to ``G + S - 1`` barrier-separated rounds where
    round ``t`` runs segment ``t - g`` of every group ``g`` with
    ``0 <= t - g < S`` — the classic software-pipeline wavefront.  A
    group that is idle for a rank simply carries empty step tuples; the
    rank still joins every round barrier, which is what keeps the
    lowered schedule deadlock-free.

    Group step tuples must not contain :class:`Barrier` — the lowering
    appends exactly one team barrier per round.  Lowered stages are
    tagged ``("pipeline", index)``, ``("round", t)`` and
    ``("segments", S)`` on top of ``attrs`` so metrics and the span
    tree can fold per-round message counts like any other stage.
    """

    index: int
    segments: int
    groups: tuple  # G entries; groups[g][k] = step tuple for segment k
    attrs: tuple = ()

    @property
    def rounds(self) -> int:
        return len(self.groups) + self.segments - 1 if self.groups else 0

    def lower(self) -> tuple:
        """The equivalent barrier-separated :class:`Stage` tuple."""
        return _lower_pipeline(self)


@lru_cache(maxsize=4096)
def _lower_pipeline(pipe: Pipeline) -> tuple:
    n_groups = len(pipe.groups)
    stages = []
    for t in range(pipe.rounds):
        steps: list = []
        for g in range(max(0, t - pipe.segments + 1),
                       min(t, n_groups - 1) + 1):
            steps.extend(pipe.groups[g][t - g])
        steps.append(BARRIER)
        stages.append(Stage(
            pipe.index + t, tuple(steps),
            attrs=pipe.attrs + (("pipeline", pipe.index), ("round", t),
                                ("segments", pipe.segments))))
    return tuple(stages)


@dataclass(frozen=True)
class RankProgram:
    """Everything one group rank does: prologue, staged steps, epilogue.

    ``stages`` holds :class:`Stage` nodes and/or :class:`Pipeline`
    blocks; consumers that need the flat barrier-separated form
    (executor, evaluator, linter) iterate :meth:`lowered_stages`.

    Prologue/epilogue steps run outside any stage span (entry barriers,
    staging copies, final reorders — the metrics layer counts their
    barriers as ``entry_barriers`` and their remote ops as
    ``extra_messages``, matching the legacy shape).
    """

    rank: int
    prologue: tuple = ()
    stages: tuple = ()
    epilogue: tuple = ()

    def lowered_stages(self) -> Iterator[Stage]:
        """Stages with every :class:`Pipeline` block expanded to rounds."""
        for stage in self.stages:
            if isinstance(stage, Pipeline):
                yield from stage.lower()
            else:
                yield stage

    def all_steps(self) -> Iterator[Step]:
        yield from self.prologue
        for stage in self.lowered_stages():
            yield from stage.steps
        yield from self.epilogue


@dataclass(frozen=True)
class Schedule:
    """A compiled collective: buffers + one :class:`RankProgram` per rank.

    ``deliver`` declares the byte ranges the collective contracts to
    write — tuples ``(rank, buffer, lo, hi)`` — which the linter checks
    are covered by the union of local and incoming remote writes (the
    data-conservation pass).
    """

    collective: str
    algorithm: str
    n_pes: int
    itemsize: int
    root: int = None  # type: ignore[assignment]
    op: str = None  # type: ignore[assignment]
    buffers: tuple = ()
    programs: tuple = ()
    deliver: tuple = ()

    def program(self, rank: int) -> RankProgram:
        prog = self.programs[rank]
        assert prog.rank == rank
        return prog

    @cached_property
    def plans(self) -> list:
        """One slot per rank for its flat execution plan.

        The executor fills a slot the first time that rank executes
        (:func:`~.executor.plan_of`) — never at compile time — so a plan
        lives and dies with this schedule in its compile cache.  Not a
        field: equality and hashing ignore it.
        """
        return [None] * self.n_pes

    def buffer(self, name: str) -> Buffer:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise KeyError(name)

    def n_stage_spans(self, rank: int = 0) -> int:
        return sum(1 for _ in self.programs[rank].lowered_stages())

    def describe(self, rank: int = 0) -> str:
        """One-line human summary (used by the lint CLI).

        Pipeline blocks render as ``pipe(G×S→R)`` — ``G`` wavefront
        groups over ``S`` segments lowering to ``R`` rounds — instead
        of disappearing into the flat lowered-stage count.
        """
        parts = []
        for stage in self.programs[rank].stages:
            if isinstance(stage, Pipeline):
                parts.append(f"pipe({len(stage.groups)}x{stage.segments}"
                             f"->{stage.rounds})")
            else:
                parts.append("1")
        shape = "+".join(parts) if parts else "0"
        return (
            f"{self.collective}:{self.algorithm} n_pes={self.n_pes} "
            f"root={self.root} op={self.op} "
            f"stages={self.n_stage_spans(rank)} [{shape}]"
        )
