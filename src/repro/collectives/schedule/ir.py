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

The tree is what compilers emit, what :meth:`Schedule.describe` and the
span tracer render, and what the executor's ``FlatPlan`` and the
mailbox lowering still walk.  The plan-time consumers — the evaluator
and the linter — read :attr:`Schedule.table` instead: one lazily built
:class:`StepTable`, an ``int64`` row per non-barrier step (see "Schedule
lowering" in ``DESIGN.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Union

import numpy as np

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
    "StepTable",
    "barrier_stage",
    "closed_stage",
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


@lru_cache(maxsize=1 << 14)
def barrier_stage(index: int, attrs: tuple = ()) -> Stage:
    """The shared ``Stage(index, (BARRIER,), attrs)``.

    What a rank with nothing to do in a stage carries — most of a large
    tree (a 4096-PE binomial broadcast has 45 000 of them in 49 152
    stages), so compilers take the one frozen node per ``(index,
    attrs)`` from here instead of building an equal one per rank.
    """
    return Stage(index, (BARRIER,), attrs)


def closed_stage(index: int, steps, attrs: tuple = ()) -> Stage:
    """The stage that runs ``steps`` and then the stage-closing barrier
    — :func:`barrier_stage`'s shared node when there are none."""
    if not steps:
        return barrier_stage(index, attrs)
    return Stage(index, (*steps, BARRIER), attrs)


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
        stages.append(closed_stage(
            pipe.index + t, steps,
            pipe.attrs + (("pipeline", pipe.index), ("round", t),
                          ("segments", pipe.segments))))
    return tuple(stages)


# Step-table opcodes, numbered in kind-name order: the evaluator runs the
# groups of one step position in that order, so a numeric sort on the
# opcode column is the group-order rule.  0 marks a step of no known kind.
OP_COPY, OP_FILL, OP_GET, OP_PUT, OP_RECV, OP_REDUCE, OP_SEND = range(1, 8)
OP_NAMES = ("?", "copy", "fill", "get", "put", "recv", "reduce", "send")


class _BufferIndex(dict):
    """Buffer name -> table index.  Declared buffers take their
    position in ``Schedule.buffers`` (a repeated name its last, as every
    by-name lookup resolves it); a name no buffer declares numbers
    itself after them on first use, so a malformed schedule still lowers
    and the linter can report the name."""

    def __init__(self, buffers: tuple):
        super().__init__((buf.name, i) for i, buf in enumerate(buffers))
        self.names = [buf.name for buf in buffers]

    def __missing__(self, name) -> int:
        self[name] = index = len(self.names)
        self.names.append(name)
        return index


class StepTable:
    """A :class:`Schedule` lowered to columns: what the evaluator and
    the linter read instead of the dataclass tree.

    One ``int64`` row per non-barrier step, ranks in order and each
    rank's steps in program order (prologue, stages with every
    :class:`Pipeline` expanded to its rounds, epilogue).  The columns,
    each an attribute holding one contiguous vector:

    ``rank``
        the group rank executing the step;
    ``phase``
        how many barriers that rank has passed before it — steps of one
        phase run concurrently across ranks;
    ``slot``
        the step's position among its rank's steps of that phase;
    ``op``
        ``OP_COPY`` … ``OP_SEND`` (0: no known kind, see ``unknown``);
    ``a_buf``, ``a_off``
        the operand written — ``dst``, or ``acc`` of a reduce — as an
        index into ``names`` and a byte offset (``-1, 0`` for a send);
    ``b_buf``, ``b_off``
        the operand read — ``src``, or ``operand`` of a reduce
        (``-1, 0`` for a fill and a recv);
    ``nelems``, ``stride``
        the access shape, in elements;
    ``peer``
        the other rank of a put, get, send or recv; the rank itself for
        local steps;
    ``aux``
        ``tag`` of a send or recv, ``charge_elems`` of a reduce,
        ``2 * charged + skip_noop`` of a copy, else 0.

    A put writes ``a`` on ``peer`` and a get reads ``b`` on ``peer``;
    every other access is the rank's own.  ``names[i]`` is the buffer
    behind index ``i``: ``Schedule.buffers`` in order, then any name a
    step uses that no buffer declares (``i >= n_declared``).
    ``barriers[r]`` is rank ``r``'s barrier count and ``unknown`` lists
    ``(row, kind)`` for rows whose ``op`` is 0.
    """

    COLUMNS = ("rank", "phase", "slot", "op", "a_buf", "a_off", "b_buf",
               "b_off", "nelems", "stride", "peer", "aux")
    __slots__ = COLUMNS + ("names", "n_declared", "barriers", "unknown")

    def __init__(self, sched: "Schedule"):
        index = _BufferIndex(sched.buffers)
        width = len(self.COLUMNS)
        flat: list = []
        row = flat.extend
        barriers = []
        unknown = []
        for r, prog in enumerate(sched.programs):
            phase = slot = 0
            for step in prog.all_steps():
                kind = step.kind
                if kind == "barrier":
                    phase += 1
                    slot = 0
                    continue
                if kind == "put" or kind == "get":
                    row((r, phase, slot, OP_PUT if kind == "put" else OP_GET,
                         index[step.dst], step.dst_off,
                         index[step.src], step.src_off,
                         step.nelems, step.stride, step.peer, 0))
                elif kind == "copy":
                    row((r, phase, slot, OP_COPY,
                         index[step.dst], step.dst_off,
                         index[step.src], step.src_off,
                         step.nelems, step.stride, r,
                         2 * step.charged + step.skip_noop))
                elif kind == "reduce":
                    row((r, phase, slot, OP_REDUCE,
                         index[step.acc], step.acc_off,
                         index[step.operand], step.operand_off,
                         step.nelems, step.stride, r, step.charge_elems))
                elif kind == "fill":
                    row((r, phase, slot, OP_FILL,
                         index[step.dst], step.dst_off, -1, 0,
                         step.nelems, step.stride, r, 0))
                elif kind == "send":
                    row((r, phase, slot, OP_SEND, -1, 0,
                         index[step.src], step.src_off,
                         step.nelems, step.stride, step.peer, step.tag))
                elif kind == "recv":
                    row((r, phase, slot, OP_RECV,
                         index[step.dst], step.dst_off, -1, 0,
                         step.nelems, step.stride, step.peer, step.tag))
                else:
                    unknown.append((len(flat) // width, kind))
                    row((r, phase, slot, 0, -1, 0, -1, 0, 0, 1, r, 0))
                slot += 1
            barriers.append(phase)
        cols = np.array(flat, dtype=np.int64).reshape(-1, width).T
        for name, col in zip(self.COLUMNS, np.ascontiguousarray(cols)):
            setattr(self, name, col)
        self.names = tuple(index.names)
        self.n_declared = len(sched.buffers)
        self.barriers = np.array(barriers, dtype=np.int64)
        self.unknown = tuple(unknown)

    def __len__(self) -> int:
        return len(self.rank)

    def step(self, row: int) -> Step:
        """Row ``row`` as the step node it was lowered from (for
        messages; rows of no known kind have none)."""
        op = int(self.op[row])
        a = (self.names[self.a_buf[row]], int(self.a_off[row]))
        b = (self.names[self.b_buf[row]], int(self.b_off[row]))
        shape = (int(self.nelems[row]), int(self.stride[row]))
        peer, aux = int(self.peer[row]), int(self.aux[row])
        if op == OP_PUT or op == OP_GET:
            return (Put if op == OP_PUT else Get)(*a, *b, *shape, peer)
        if op == OP_COPY:
            return Copy(*a, *b, *shape, bool(aux & 2), bool(aux & 1))
        if op == OP_REDUCE:
            return Reduce(*a, *b, *shape, aux)
        if op == OP_FILL:
            return Fill(*a, *shape)
        if op == OP_SEND:
            return Send(*b, *shape, peer, aux)
        if op == OP_RECV:
            return Recv(*a, *shape, peer, aux)
        raise ValueError(f"row {row} has no known step kind")


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

    @cached_property
    def table(self) -> StepTable:
        """The columnar lowering (:class:`StepTable`), built by one walk
        of the tree the first time the evaluator or the linter asks and
        kept for the life of the schedule.  Like ``plans``, not a field.
        """
        return StepTable(self)

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
