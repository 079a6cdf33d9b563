"""IR of compiled collective schedules: a step table, readable as a tree.

A :class:`Schedule` is a pure, immutable description of one collective
call: which buffers it touches and, for every group rank, which
primitive steps it performs in which barrier-delimited stage.  It can
be cached (``lru_cache``), compared and linted without a runtime
context.

It is made one way, :meth:`Schedule.from_rows`, and holds one form,
:attr:`Schedule.table`, a :class:`StepTable`: one ``int64`` row per
non-barrier step plus a record of each rank's barrier structure (its
:class:`Skeleton` of prologue, stage and epilogue :class:`Section`\\ s).
Every compiler and every rewrite of a schedule (the mailbox lowering,
widening and fusion) emits it as numpy columns (:class:`Rows`), a step
of a :class:`Pipeline` block with its group, and ``from_rows`` refuses
a row that cannot mean anything.  The evaluator, the linter and the
executor's ``FlatPlan`` read nothing else.  The tree of frozen
dataclasses (:attr:`Schedule.programs`) is a read-only view rebuilt from
the rows the first time ``repr`` asks for it (see "Schedule lowering" in
``DESIGN.md``).

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
* :class:`Barrier` — team barrier over the group, or the rank's
  ``block`` of it (:class:`Section`).
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

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Union

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
    "Section",
    "Skeleton",
    "Rows",
    "skeleton",
    "barrier_stage",
    "pipeline_skeleton",
    "step_span_bytes",
]


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
    """Team barrier over the full group, or over ``block`` — the group
    ranks this rank meets there (see :class:`Section`)."""

    kind = "barrier"
    block: tuple = ()

    def __repr__(self) -> str:
        return f"Barrier(block={self.block!r})" if self.block else "Barrier()"


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


@lru_cache(maxsize=1 << 14)
def barrier_stage(index: int, attrs: tuple = (), block: tuple = ()) -> Stage:
    """The shared ``Stage(index, (Barrier(block),), attrs)``.

    What a rank with nothing to do in a stage carries — most of a large
    tree (a 4096-PE binomial broadcast has 45 000 of them in 49 152
    stages), so the tree view takes the one frozen node per ``(index,
    attrs)`` from here instead of building an equal one per rank.
    """
    return Stage(index, (Barrier(block),), attrs)


def _round_attrs(attrs: tuple, index: int, t: int, segments: int) -> tuple:
    """The span attrs of round ``t`` of the :class:`Pipeline` block at
    ``index``: the block's own, then its pipeline tags."""
    return attrs + (("pipeline", index), ("round", t), ("segments", segments))


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
    tree can fold per-round message counts like any other stage.  In
    the step table each round is one section and each of its rows
    records its group.
    """

    index: int
    segments: int
    groups: tuple  # G entries; groups[g][k] = step tuple for segment k
    attrs: tuple = ()

    @property
    def rounds(self) -> int:
        return len(self.groups) + self.segments - 1 if self.groups else 0

    def round_groups(self, t: int) -> list:
        """Round ``t``'s ``(group, steps)`` pairs, in group order."""
        return [(g, self.groups[g][t - g])
                for g in range(max(0, t - self.segments + 1),
                               min(t, len(self.groups) - 1) + 1)]

    def lower(self) -> tuple:
        """The equivalent barrier-separated :class:`Stage` tuple."""
        stages = []
        for t in range(self.rounds):
            steps = [s for _, run in self.round_groups(t) for s in run]
            attrs = _round_attrs(self.attrs, self.index, t, self.segments)
            stages.append(Stage(self.index + t, (*steps, BARRIER), attrs)
                          if steps else barrier_stage(self.index + t, attrs))
        return tuple(stages)


# Step-table opcodes, numbered in kind-name order: the evaluator runs the
# groups of one step position in that order, so a numeric sort on the
# opcode column is the group-order rule.  0 is no opcode.
OP_COPY, OP_FILL, OP_GET, OP_PUT, OP_RECV, OP_REDUCE, OP_SEND = range(1, 8)
OP_NAMES = ("?", "copy", "fill", "get", "put", "recv", "reduce", "send")

#: ``aux`` of a copy row, ``2 * charged + skip_noop``: a :class:`Copy`
#: with its defaults, one with ``charged=False`` and one with
#: ``skip_noop=False`` (how the vector collectives place their blocks).
AUX_COPY, AUX_MOVE, AUX_PLACE = 3, 1, 2


class Section(NamedTuple):
    """One contiguous part of a rank's program: its prologue, one stage
    (each round of a :class:`Pipeline` block is one) or its epilogue.
    Its barriers meet ``block``, the group ranks of a partition of the
    group the rank is in (``()``: the group; one rank: no barrier)."""

    kind: str        # "prologue" | "stage" | "epilogue"
    index: int       # the stage's span index; -1 outside stages
    attrs: tuple     # the stage's span attrs
    nbars: int       # barriers among its steps
    pipeline: int = -1  # index of the Pipeline block a round lowers
    round: int = -1     # which round of that block
    block: tuple = ()   # the ranks its barriers meet


class Skeleton(NamedTuple):
    """A rank's barrier structure: its sections in program order, and
    the per-slot stage signature the linter's deadlock pass compares
    across ranks — a stage's index, or ``("pipeline", index, segments,
    groups)`` for a :class:`Pipeline` block — with each such block's
    own span attrs (a block of no groups has no round to carry them)."""

    sections: tuple
    signature: tuple
    pipelines: tuple = ()

    @property
    def n_barriers(self) -> int:
        return sum(sec.nbars for sec in self.sections)


def skeleton(prologue: int, stages, epilogue: int) -> Skeleton:
    """The skeleton of a program whose stages each end in one barrier:
    ``prologue`` and ``epilogue`` barrier counts and one ``(index,
    attrs)`` per stage."""
    stages = [Section("stage", index, attrs, 1) for index, attrs in stages]
    return Skeleton(
        (Section("prologue", -1, (), prologue), *stages,
         Section("epilogue", -1, (), epilogue)),
        tuple(sec.index for sec in stages))


def pipeline_skeleton(prologue: int, segments: int, n_groups: int,
                      attrs: tuple, epilogue: int) -> Skeleton:
    """The skeleton of a program whose one stage is a :class:`Pipeline`
    block at index 0 of ``n_groups`` groups over ``segments`` segments:
    one single-barrier section per round, between ``prologue`` and
    ``epilogue`` barrier counts."""
    rounds = n_groups + segments - 1 if n_groups else 0
    return Skeleton(
        (Section("prologue", -1, (), prologue),
         *(Section("stage", t, _round_attrs(attrs, 0, t, segments), 1, 0, t)
           for t in range(rounds)),
         Section("epilogue", -1, (), epilogue)),
        (("pipeline", 0, segments, n_groups),), (attrs,))


class Rows:
    """Step-table rows as a compiler emits them, in blocks.

    Blocks are added in program order; within one block a rank's rows
    come in its program order.  Each value of :meth:`add` is a scalar or
    an array, broadcast together with the others (and with ``where``,
    which keeps the rows it marks) and raveled in C order, so a block
    laid out rank-major keeps each rank's rows in order; :meth:`columns`
    merges the blocks with one stable sort on the rank.
    """

    FIELDS = ("rank", "section", "phase", "op", "a_buf", "a_off", "b_buf",
              "b_off", "nelems", "stride", "peer", "aux", "group")

    def __init__(self):
        self._blocks: list = []

    def add(self, rank, section, phase, op, a=(-1, 0), b=(-1, 0),
            nelems=0, stride=1, peer=None, aux=0, where=None,
            group=-1) -> None:
        """Rows of ``op`` run by ``rank`` in section ``section`` (its
        position in the rank's :class:`Skeleton`) after ``phase``
        barriers; ``a`` and ``b`` are ``(buffer index, byte offset)``,
        ``peer`` defaults to the rank itself (a local step) and
        ``group`` is the :class:`Pipeline` group of a round's step."""
        values = (rank, section, phase, op, *a, *b, nelems, stride,
                  rank if peer is None else peer, aux, group)
        shapes = [np.shape(v) for v in values]
        if where is not None:
            shapes.append(np.shape(where))
        shape = np.broadcast_shapes(*shapes)
        block = np.empty((len(values), *shape), dtype=np.int64)
        for i, value in enumerate(values):
            block[i] = value
        block = block.reshape(len(values), -1)
        if where is not None:
            block = block[:, np.broadcast_to(where, shape).reshape(-1)]
        self._blocks.append(block)

    def columns(self) -> dict:
        """Every row, ranks in order and each rank's in program order."""
        rows = np.concatenate(self._blocks, axis=1) if self._blocks \
            else np.zeros((len(self.FIELDS), 0), dtype=np.int64)
        # ``take`` keeps each field one contiguous vector.
        rows = np.take(rows, np.argsort(rows[0], kind="stable"), axis=1)
        return dict(zip(self.FIELDS, rows))


def _slots(rank: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Each row's position among its rank's rows of the same phase."""
    n = len(rank)
    first = np.ones(n, dtype=bool)
    first[1:] = (rank[1:] != rank[:-1]) | (phase[1:] != phase[:-1])
    starts = np.flatnonzero(first)
    return np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))


def _pipeline(entry: tuple, attrs: tuple, block: list, steps: list,
              group: list) -> "Pipeline | None":
    """The :class:`Pipeline` node ``block`` — the ``(section, items)``
    of one block's rounds, as :meth:`StepTable._parts` gives them, each
    its rows and then its barrier — reads as; ``None`` when a row names
    no group (a fused round's rows run schedule by schedule)."""
    _, index, segments, n_groups = entry
    groups = [[()] * segments for _ in range(n_groups)]
    for t, (_, items) in enumerate(block):
        for k in items[:-1]:
            g = group[k]
            if g < 0:
                return None
            groups[g][t - g] += (steps[k],)
    return Pipeline(index, segments, tuple(map(tuple, groups)), attrs)


class StepTable:
    """A :class:`Schedule` as columns: what the evaluator, the linter
    and the executor read.

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
        ``OP_COPY`` … ``OP_SEND``;
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
        ``2 * charged + skip_noop`` of a copy, else 0;
    ``group``
        the step's group in its :class:`Pipeline` block (its segment is
        the round less the group); ``-1`` outside one.

    A put writes ``a`` on ``peer`` and a get reads ``b`` on ``peer``;
    every other access is the rank's own.  ``names[i]`` is the buffer
    behind index ``i``: ``Schedule.buffers`` in order, then any name a
    step uses that no buffer declares (``i >= n_declared``).

    The barrier record: rank ``r`` has the :class:`Skeleton`
    ``skeletons[skeleton_of[r]]`` (a compiled schedule has one or two
    for all its ranks), each row's ``section`` is its position in it,
    and ``barriers[r]`` is the rank's barrier count; a row's ``phase``
    places it among its section's barriers; ``partitioned``, whether
    some meet a block of the group (:class:`Section`).
    """

    COLUMNS = ("rank", "phase", "slot", "op", "a_buf", "a_off", "b_buf",
               "b_off", "nelems", "stride", "peer", "aux", "group")
    #: The columns a step is made of, in :meth:`_step`'s argument order.
    _STEP = ("op", "a_buf", "a_off", "b_buf", "b_off", "nelems", "stride",
             "peer", "aux")
    __slots__ = COLUMNS + ("names", "n_declared", "section", "skeletons",
                           "skeleton_of", "barriers", "partitioned")

    def __init__(self, columns: dict, names, n_declared: int,
                 section: np.ndarray, skeletons: tuple, skeleton_of):
        for name in self.COLUMNS:
            setattr(self, name, columns[name])
        self.names = tuple(names)
        self.n_declared = n_declared
        self.section = section
        self.skeletons = skeletons
        self.skeleton_of = np.asarray(skeleton_of, dtype=np.int64)
        self.barriers = np.array(
            [sk.n_barriers for sk in skeletons] or [0],
            dtype=np.int64)[self.skeleton_of]
        self.partitioned = any(sec.block and sec.nbars for sk in skeletons
                               for sec in sk.sections)

    def __len__(self) -> int:
        return len(self.rank)

    def span(self, rank: int) -> slice:
        """The rows of ``rank``."""
        lo, hi = np.searchsorted(self.rank, (rank, rank + 1)).tolist()
        return slice(lo, hi)

    def layout(self, rank: int) -> tuple[slice, list]:
        """``rank``'s program: its rows, and its sections in program
        order each with its steps — a row's offset in those rows, or
        ``None`` for a barrier."""
        rows = self.span(rank)
        return rows, self._parts(rank, self.phase[rows].tolist(),
                                 self.section[rows].tolist())

    def _parts(self, rank: int, phase: list, owner: list) -> list:
        parts = []
        k = bar = 0  # the next row; the barriers placed so far
        for j, sec in enumerate(self.skeletons[self.skeleton_of[rank]]
                                .sections):
            end = bar + sec.nbars
            items: list = []
            while k < len(owner) and owner[k] == j:
                items += [None] * (phase[k] - bar)
                bar = phase[k]
                items.append(k)
                k += 1
            items += [None] * (end - bar)
            bar = end
            parts.append((sec, items))
        return parts

    def rows_of(self, rows: slice) -> list:
        """The columns a step is made of, over ``rows``, as lists of
        ints in :meth:`_step`'s argument order."""
        return [getattr(self, name)[rows].tolist() for name in self._STEP]

    def _step(self, op, a_buf, a_off, b_buf, b_off, nelems, stride, peer,
              aux) -> Step:
        names = self.names
        if op == OP_PUT:
            return Put(names[a_buf], a_off, names[b_buf], b_off, nelems,
                       stride, peer)
        if op == OP_GET:
            return Get(names[a_buf], a_off, names[b_buf], b_off, nelems,
                       stride, peer)
        if op == OP_COPY:
            return Copy(names[a_buf], a_off, names[b_buf], b_off, nelems,
                        stride, bool(aux & 2), bool(aux & 1))
        if op == OP_REDUCE:
            return Reduce(names[a_buf], a_off, names[b_buf], b_off, nelems,
                          stride, aux)
        if op == OP_FILL:
            return Fill(names[a_buf], a_off, nelems, stride)
        if op == OP_SEND:
            return Send(names[b_buf], b_off, nelems, stride, peer, aux)
        return Recv(names[a_buf], a_off, nelems, stride, peer, aux)

    def step(self, row: int) -> Step:
        """Row ``row`` as its step node (for messages)."""
        return self._step(*(int(getattr(self, name)[row])
                            for name in self._STEP))

    def programs(self) -> tuple:
        """The tree these rows are read as: one :class:`RankProgram` per
        rank.  A :class:`Pipeline` block reads as its node, rebuilt from each
        row's group, unless a row of it names none; then it reads as
        the stages it lowers to."""
        n = len(self.skeleton_of)
        starts = np.searchsorted(self.rank, np.arange(n + 1)).tolist()
        steps = [self._step(*values)
                 for values in zip(*self.rows_of(slice(None)))]
        phase, owner = self.phase.tolist(), self.section.tolist()
        group = self.group.tolist()
        programs = []
        for r in range(n):
            lo, hi = starts[r], starts[r + 1]
            mine = steps[lo:hi]
            parts = self._parts(r, phase[lo:hi], owner[lo:hi])

            def body(sec, items):
                bar = Barrier(sec.block)
                return tuple(bar if k is None else mine[k] for k in items)

            def stage(sec, items):
                if items == [None]:
                    return barrier_stage(sec.index, sec.attrs, sec.block)
                return Stage(sec.index, body(sec, items), sec.attrs)

            stages = []
            at = 1  # parts[0] is the prologue
            shape = self.skeletons[self.skeleton_of[r]]
            attrs = iter(shape.pipelines)
            for entry in shape.signature:
                if not isinstance(entry, tuple):
                    stages.append(stage(*parts[at]))
                    at += 1
                    continue
                width = entry[3] + entry[2] - 1 if entry[3] else 0
                block = parts[at:at + width]
                pipe = _pipeline(entry, next(attrs), block, mine,
                                 group[lo:hi])
                if pipe is None:
                    stages.extend(stage(*part) for part in block)
                else:
                    stages.append(pipe)
                at += width
            programs.append(RankProgram(r, body(*parts[0]), tuple(stages),
                                        body(*parts[-1])))
        return tuple(programs)

    def same(self, other: "StepTable") -> bool:
        """Whether ``other`` holds the same rows and barrier record."""
        return (self.names == other.names
                and self.n_declared == other.n_declared
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name in self.COLUMNS + ("section",))
                and [self.skeletons[i] for i in self.skeleton_of.tolist()]
                == [other.skeletons[i] for i in other.skeleton_of.tolist()])


@dataclass(frozen=True)
class RankProgram:
    """Everything one group rank does: prologue, staged steps, epilogue.

    ``stages`` holds :class:`Stage` nodes and/or :class:`Pipeline`
    blocks; :meth:`lowered_stages` gives the flat barrier-separated form.

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


def _plain(sk: Skeleton) -> Skeleton:
    """``sk`` with every section index and block rank a plain ``int``.

    A numpy integer equals and hashes like the int it holds, so one
    left in a section would become the :func:`barrier_stage` cache key
    that every later schedule's idle stage of that index renders from.
    """
    if all(type(sec.index) is int and all(type(r) is int for r in sec.block)
           for sec in sk.sections):
        return sk
    return sk._replace(sections=tuple(
        sec._replace(index=operator.index(sec.index),
                     block=tuple(map(operator.index, sec.block)))
        for sec in sk.sections))


def _sections(sk: Skeleton) -> np.ndarray:
    """Per section of ``sk``: the barriers before it, how many phases
    from there its rows may take, and the first and count of the
    :class:`Pipeline` groups with a segment in it (none outside a
    round)."""
    secs = sk.sections
    nbars = np.array([sec.nbars for sec in secs], dtype=np.int64)
    turn = np.array([sec.round for sec in secs], dtype=np.int64)
    table = np.zeros((4, len(secs)), dtype=np.int64)
    table[0] = np.cumsum(nbars) - nbars
    table[1] = np.where(turn < 0, nbars + 1, 1)
    pipes = {entry[1]: entry[2:] for entry in sk.signature
             if isinstance(entry, tuple)}
    if any(segments < 1 for segments, _ in pipes.values()):
        raise ValueError(f"a pipeline of {sk.signature} has no segments")
    for j in np.flatnonzero(turn >= 0).tolist():
        t = int(turn[j])
        segments, groups = pipes.get(secs[j].pipeline, (1, 0))
        table[2, j] = lo = max(0, t - segments + 1)
        table[3, j] = max(0, min(t, groups - 1) - lo + 1)
    return table


def _refuse(cols: dict, n_pes: int, n_names: int, skeletons: tuple,
            skeleton_of) -> None:
    """ValueError for rows that cannot mean anything, naming the first.

    Peers, declared buffers and bounds mean something even when wrong;
    they are the linter's to report.  A value ``v`` is checked to lie in
    ``[lo, lo + n)`` as one unsigned compare of ``v - lo`` with ``n``."""
    u = np.uint64
    rank, section, phase, op, group, a, b = (cols[name] for name in (
        "rank", "section", "phase", "op", "group", "a_buf", "b_buf"))
    tables = [_sections(sk) for sk in skeletons]
    if skeleton_of is None:
        count, at = (tables[0].shape[1] if tables else 0), section
    else:
        if skeleton_of.shape != (n_pes,) or np.any(
                skeleton_of.view(u) >= len(skeletons)):
            raise ValueError(
                f"skeleton_of {skeleton_of.tolist()} is not {n_pes} "
                f"indices into {len(skeletons)} skeletons")
        sizes = [t.shape[1] for t in tables]
        skel = np.take(skeleton_of, rank, mode="clip")
        count = np.take(np.array(sizes, dtype=u), skel)
        at = np.take(np.cumsum([0] + sizes[:-1]), skel) + section
    start, phases, g_lo, g_n = (np.concatenate(tables, axis=1) if tables
                                else np.zeros((4, 1), dtype=np.int64)
                                ).view(u)
    back, ahead = np.zeros((2, len(rank)), dtype=bool)
    back[1:] = rank[1:] < rank[:-1]
    ahead[1:] = (rank[1:] == rank[:-1]) & ((section[1:] < section[:-1])
                                           | (phase[1:] < phase[:-1]))
    grouped = group != -1
    if g_n.any():
        grouped &= ((group.view(u) - np.take(g_lo, at, mode="clip"))
                    >= np.take(g_n, at, mode="clip"))
    checks = (
        (rank.view(u) >= n_pes, f"rank outside [0, {n_pes})"),
        (back, "ranks out of order"),
        ((op - OP_COPY).view(u) >= OP_SEND, "no step kind"),
        # A send writes no ``a``; a fill and a recv read no ``b``.
        (((a + 1).view(u) > n_names) | ((a >= 0) != (op != OP_SEND)),
         "a_buf wrong for op"),
        (((b + 1).view(u) > n_names)
         | ((b >= 0) != ((op != OP_FILL) & (op != OP_RECV))),
         "b_buf wrong for op"),
        (section.view(u) >= count, "section outside its rank's skeleton"),
        (ahead, "section or phase runs backwards"),
        ((phase.view(u) - np.take(start, at, mode="clip"))
         >= np.take(phases, at, mode="clip"),
         "phase outside its section's barrier window"),
        (grouped, "group outside its round"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        row = int(np.argmax(bad))
        what = next(what for mask, what in checks if mask[row])
        values = ", ".join(f"{name}={int(col[row])}"
                           for name, col in cols.items())
        raise ValueError(f"row {row} ({values}): {what}")


@dataclass(frozen=True, eq=False, repr=False)
class Schedule:
    """A compiled collective: buffers + one :class:`RankProgram` per rank.

    ``deliver`` declares the byte ranges the collective contracts to
    write — tuples ``(rank, buffer, lo, hi)`` — which the linter checks
    are covered by the union of local and incoming remote writes (the
    data-conservation pass).

    Made by :meth:`from_rows`; the header fields and :attr:`table` are
    all it holds.  ``programs`` is the tree view, built from the table
    the first time it is read; equality compares headers and tables and
    the hash covers the header, so neither builds a tree.
    """

    collective: str
    algorithm: str
    n_pes: int
    itemsize: int
    root: int = None  # type: ignore[assignment]
    op: str = None  # type: ignore[assignment]
    buffers: tuple = ()
    deliver: tuple = ()
    table: StepTable = field(kw_only=True)

    @classmethod
    def from_rows(cls, collective: str, algorithm: str, n_pes: int,
                  itemsize: int, rows, skeletons: tuple, *,
                  skeleton_of=None, root: int = None, op: str = None,
                  buffers: tuple = (), deliver: tuple = (),
                  names=None) -> "Schedule":
        """A schedule whose canonical form is ``rows`` — a :class:`Rows`,
        or its columns already in table order: every rank has
        ``skeletons[0]`` unless ``skeleton_of`` says otherwise.
        ``names`` (the buffer names by table index) defaults to
        ``buffers``' names; a rewrite passes those of its input, which
        may go on past them.  Raises ``ValueError`` naming the first row
        that cannot mean anything (see :func:`_refuse`)."""
        cols = rows.columns() if isinstance(rows, Rows) else dict(rows)
        names = [buf.name for buf in buffers] if names is None else names
        skeletons = tuple(map(_plain, skeletons))
        if skeleton_of is not None:
            skeleton_of = np.asarray(skeleton_of, dtype=np.int64)
        _refuse(cols, n_pes, len(names), skeletons, skeleton_of)
        section = cols.pop("section")
        cols["slot"] = _slots(cols["rank"], cols["phase"])
        return cls(collective, algorithm, n_pes, itemsize, root, op, buffers,
                   deliver, table=StepTable(
                       cols, names, len(buffers), section, skeletons,
                       np.zeros(n_pes, dtype=np.int64) if skeleton_of is None
                       else skeleton_of))

    def _header(self) -> tuple:
        return (self.collective, self.algorithm, self.n_pes, self.itemsize,
                self.root, self.op, self.buffers, self.deliver)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._header() == other._header() and \
            self.table.same(other.table)

    def __hash__(self) -> int:
        return hash(self._header())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(collective={self.collective!r}, "
                f"algorithm={self.algorithm!r}, n_pes={self.n_pes!r}, "
                f"itemsize={self.itemsize!r}, root={self.root!r}, "
                f"op={self.op!r}, buffers={self.buffers!r}, "
                f"programs={self.programs!r}, deliver={self.deliver!r})")

    @cached_property
    def programs(self) -> tuple:
        """The tree view (:meth:`StepTable.programs`), built once."""
        return self.table.programs()

    def _skeleton(self, rank: int) -> Skeleton:
        if not 0 <= rank < self.n_pes:
            raise IndexError(f"rank {rank} outside [0, {self.n_pes})")
        return self.table.skeletons[self.table.skeleton_of[rank]]

    def program(self, rank: int) -> RankProgram:
        self._skeleton(rank)
        return self.programs[rank]

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
    def mailbox(self) -> "Schedule":
        """This schedule lowered onto the two-sided transport, made the
        first time :func:`~.mailbox.lower_to_mailbox` asks and kept like
        ``plans``."""
        from .mailbox import lower

        return lower(self)

    def buffer(self, name: str) -> Buffer:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise KeyError(name)

    def n_stage_spans(self, rank: int = 0) -> int:
        return sum(sec.kind == "stage"
                   for sec in self._skeleton(rank).sections)

    def describe(self, rank: int = 0) -> str:
        """One-line human summary (used by the lint CLI).

        Read off the rank's skeleton signature: a stage renders as
        ``1`` and a Pipeline block as ``pipe(G×S→R)`` — ``G`` wavefront
        groups over ``S`` segments lowering to ``R`` rounds — instead
        of disappearing into the flat lowered-stage count.
        """
        parts = [
            f"pipe({entry[3]}x{entry[2]}->"
            f"{entry[3] + entry[2] - 1 if entry[3] else 0})"
            if isinstance(entry, tuple) else "1"
            for entry in self._skeleton(rank).signature]
        shape = "+".join(parts) if parts else "0"
        return (
            f"{self.collective}:{self.algorithm} n_pes={self.n_pes} "
            f"root={self.root} op={self.op} "
            f"stages={self.n_stage_spans(rank)} [{shape}]"
        )
