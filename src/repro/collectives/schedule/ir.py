"""IR of compiled collective schedules: one step table.

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
of a pipeline block with its group, and ``from_rows`` refuses a row
that cannot mean anything.  The evaluator, the linter and the
executor's ``FlatPlan`` read nothing else; ``repr`` renders its text
from the rows (:meth:`StepTable.text`, see "Schedule lowering" in
``DESIGN.md``).

Addressing is symbolic: steps name buffers (see :class:`Buffer`) plus a
**byte** offset; the executor binds names to concrete addresses (user
arguments) or allocates them (scratch / private work buffers).  Ranks
are group-relative — the executor maps them through the member tuple,
exactly like the legacy tree walks mapped ``log_part`` through
``members``.

Step semantics, by a row's opcode (mirroring the legacy inline code
they replaced):

* put / get — one-sided strided transfer to/from ``peer`` (never self;
  local movement is a copy).
* copy — local strided copy.  ``charged`` costs like a put-to-self;
  ``skip_noop`` adds the ``local_copy`` guard (no-op when empty or src
  == dst).  An uncharged copy is the raw ``view[:] = view`` used by
  double-buffered algorithms (simulator cost-free by design — the
  charge is folded into the reduce that follows).
* reduce — fold the operand into the accumulator with the schedule's
  operator and charge ``charge_elems`` elements of ALU work.
* fill — write the operator identity (exclusive-scan rank 0).
* send / recv — two-sided mailbox message steps, the lowered form
  :mod:`.mailbox` produces from remote puts and gets.  A send reads
  ``nelems`` strided elements from a local buffer and enqueues them for
  ``peer``; it completes once the message sits in the peer's receive
  queue, and blocks only on backpressure.  A recv blocks until the
  matching message from ``peer`` arrives and scatters it into a local
  buffer.  Matching is FIFO per (sender, receiver) pair with the
  ``tag`` checked on arrival, so a lowering that reorders messages
  between the same pair is a protocol error the linter flags.
  ``nelems == 0`` is a payload-free control message (the request half
  of a lowered get).

A barrier is no row: a rank's skeleton places it, over the group or the
rank's ``block`` of it (:class:`Section`).

A *pipeline block* is a software-pipelined stage: the payload is split
into S = ``segments`` chunks and the work into G ordered step groups,
and segment ``k`` of group ``g`` may proceed as soon as segment ``k`` of
group ``g - 1`` has delivered.  The block lowers to ``G + S - 1``
barrier-separated rounds, round ``t`` running segment ``t - g`` of every
group ``g`` with ``0 <= t - g < S`` — the classic software-pipeline
wavefront.  Each round is one section, tagged ``("pipeline", index)``,
``("round", t)`` and ``("segments", S)`` on top of the block's own span
attrs, and each of its rows records its group.  A rank with nothing to
do in a round still joins its barrier, which is what keeps the
schedule deadlock-free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Union

import numpy as np

__all__ = [
    "Buffer",
    "Schedule",
    "StepTable",
    "Section",
    "Skeleton",
    "Rows",
    "skeleton",
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


def _round_attrs(attrs: tuple, index: int, t: int, segments: int) -> tuple:
    """The span attrs of round ``t`` of the pipeline block at ``index``:
    the block's own, then its pipeline tags."""
    return attrs + (("pipeline", index), ("round", t), ("segments", segments))


# Step-table opcodes, numbered in kind-name order: the evaluator runs the
# groups of one step position in that order, so a numeric sort on the
# opcode column is the group-order rule.  0 is no opcode.
OP_COPY, OP_FILL, OP_GET, OP_PUT, OP_RECV, OP_REDUCE, OP_SEND = range(1, 8)
OP_NAMES = ("?", "copy", "fill", "get", "put", "recv", "reduce", "send")

#: ``aux`` of a copy row, ``2 * charged + skip_noop``: a copy with both
#: flags, an uncharged one and one that is not skipped when a no-op (how
#: the vector collectives place their blocks).
AUX_COPY, AUX_MOVE, AUX_PLACE = 3, 1, 2

#: A step's text by opcode, over the row's written buffer and offset,
#: read buffer and offset, ``nelems``, ``stride``, ``peer``, ``aux`` and
#: a copy's ``charged`` and ``skip_noop`` flags: the fields each kind of
#: step has, named and ordered as the schedule digests pin them.
_STEP_TEXT = (
    "?",
    "Copy(dst={0!r}, dst_off={1}, src={2!r}, src_off={3}, nelems={4}, "
    "stride={5}, charged={8}, skip_noop={9})",
    "Fill(dst={0!r}, dst_off={1}, nelems={4}, stride={5})",
    "Get(dst={0!r}, dst_off={1}, src={2!r}, src_off={3}, nelems={4}, "
    "stride={5}, peer={6})",
    "Put(dst={0!r}, dst_off={1}, src={2!r}, src_off={3}, nelems={4}, "
    "stride={5}, peer={6})",
    "Recv(dst={0!r}, dst_off={1}, nelems={4}, stride={5}, peer={6}, "
    "tag={7})",
    "Reduce(acc={0!r}, acc_off={1}, operand={2!r}, operand_off={3}, "
    "nelems={4}, stride={5}, charge_elems={7})",
    "Send(src={2!r}, src_off={3}, nelems={4}, stride={5}, peer={6}, "
    "tag={7})",
)


def _tuple_text(items: list) -> str:
    """``items``' texts as a tuple's ``repr`` shows them."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


def _section_text(sec: "Section", items: list, texts: list) -> list:
    """The texts of a section's items (:meth:`StepTable._parts`): a
    row's, or at each gap a barrier over the section's block."""
    bar = f"Barrier(block={sec.block!r})" if sec.block else "Barrier()"
    return [bar if k is None else texts[k] for k in items]


class Section(NamedTuple):
    """One contiguous part of a rank's program: its prologue, one stage
    (each round of a pipeline block is one) or its epilogue.
    Its barriers meet ``block``, the group ranks of a partition of the
    group the rank is in (``()``: the group; one rank: no barrier).
    Prologue and epilogue steps (entry barriers, staging copies, final
    reorders) run outside any stage span: the metrics layer counts their
    barriers as ``entry_barriers`` and their remote ops as
    ``extra_messages``."""

    kind: str        # "prologue" | "stage" | "epilogue"
    index: int       # the stage's span index; -1 outside stages
    attrs: tuple     # the stage's span attrs
    nbars: int       # barriers among its steps
    pipeline: int = -1  # index of the pipeline block a round lowers
    round: int = -1     # which round of that block
    block: tuple = ()   # the ranks its barriers meet


class Skeleton(NamedTuple):
    """A rank's barrier structure: its sections in program order, and
    the per-slot stage signature the linter's deadlock pass compares
    across ranks — a stage's index, or ``("pipeline", index, segments,
    groups)`` for a pipeline block — with each such block's
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
    """The skeleton of a program whose one stage is a pipeline block at
    index 0 of ``n_groups`` groups over ``segments`` segments:
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
        ``group`` is the pipeline group of a round's step."""
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


def _pipeline_text(entry: tuple, attrs: tuple, block: list, texts: list,
                   group: list) -> "str | None":
    """The text of the pipeline block ``block`` — the
    ``(section, items)`` of its rounds, as :meth:`StepTable._parts`
    gives them, each its rows and then its barrier — regrouped by each
    row's group; ``None`` when a row names no group."""
    _, index, segments, n_groups = entry
    cells = [[[] for _ in range(segments)] for _ in range(n_groups)]
    for t, (_, items) in enumerate(block):
        for k in items[:-1]:
            g = group[k]
            if g < 0:
                return None
            cells[g][t - g].append(texts[k])
    groups = _tuple_text([_tuple_text([_tuple_text(seg) for seg in row])
                          for row in cells])
    return (f"Pipeline(index={index!r}, segments={segments!r}, "
            f"groups={groups}, attrs={attrs!r})")


class StepTable:
    """A :class:`Schedule` as columns: what the evaluator, the linter
    and the executor read.

    One ``int64`` row per non-barrier step, ranks in order and each
    rank's steps in program order (prologue, stages with every
    pipeline block expanded to its rounds, epilogue).  The columns,
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
        the step's group in its pipeline block (its segment is
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
    #: The columns a step is made of.
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
        ints in :attr:`_STEP` order."""
        return [getattr(self, name)[rows].tolist() for name in self._STEP]

    def _texts(self, rows: slice) -> list:
        """The text of each step over ``rows``."""
        names = self.names
        return [_STEP_TEXT[op].format(names[a], a_off, names[b], b_off,
                                      nelems, stride, peer, aux,
                                      bool(aux & 2), bool(aux & 1))
                for op, a, a_off, b, b_off, nelems, stride, peer, aux
                in zip(*self.rows_of(rows))]

    def step_text(self, row: int) -> str:
        """Row ``row``'s text (for messages)."""
        return self._texts(slice(row, row + 1))[0]

    def text(self) -> str:
        """Every rank's program as ``repr`` shows it: its prologue, its
        stages and its epilogue, each step's text from its row and a
        barrier over its section's block at each gap.  A pipeline block
        shows as its groups of segments, regrouped by each row's group,
        unless a row of it names none (a fused round's rows run schedule
        by schedule); then it shows as its rounds."""
        n = len(self.skeleton_of)
        starts = np.searchsorted(self.rank, np.arange(n + 1)).tolist()
        texts = self._texts(slice(None))
        phase, owner = self.phase.tolist(), self.section.tolist()
        group = self.group.tolist()
        return _tuple_text([
            self._rank_text(r, texts[lo:hi],
                            self._parts(r, phase[lo:hi], owner[lo:hi]),
                            group[lo:hi])
            for r, lo, hi in zip(range(n), starts, starts[1:])])

    def _rank_text(self, rank: int, texts: list, parts: list,
                   group: list) -> str:
        def body(sec, items):
            return _tuple_text(_section_text(sec, items, texts))

        def stage(sec, items):
            return (f"Stage(index={sec.index!r}, steps={body(sec, items)}, "
                    f"attrs={sec.attrs!r})")

        stages = []
        at = 1  # parts[0] is the prologue
        shape = self.skeletons[self.skeleton_of[rank]]
        attrs = iter(shape.pipelines)
        for entry in shape.signature:
            if not isinstance(entry, tuple):
                stages.append(stage(*parts[at]))
                at += 1
                continue
            width = entry[3] + entry[2] - 1 if entry[3] else 0
            block = parts[at:at + width]
            at += width
            pipe = _pipeline_text(entry, next(attrs), block, texts, group)
            if pipe is None:
                stages.extend(stage(*part) for part in block)
            else:
                stages.append(pipe)
        return (f"RankProgram(rank={rank!r}, "
                f"prologue={body(*parts[0])}, "
                f"stages={_tuple_text(stages)}, "
                f"epilogue={body(*parts[-1])})")

    def same(self, other: "StepTable") -> bool:
        """Whether ``other`` holds the same rows and barrier record."""
        return (self.names == other.names
                and self.n_declared == other.n_declared
                and all(np.array_equal(getattr(self, name),
                                       getattr(other, name))
                        for name in self.COLUMNS + ("section",))
                and [self.skeletons[i] for i in self.skeleton_of.tolist()]
                == [other.skeletons[i] for i in other.skeleton_of.tolist()])


class _RankSteps(NamedTuple):
    table: StepTable
    rank: int

    def all_steps(self) -> Iterator[str]:
        """Each step's text and each barrier's, in program order."""
        rows, parts = self.table.layout(self.rank)
        texts = self.table._texts(rows)
        for sec, items in parts:
            yield from _section_text(sec, items, texts)


def _plain(sk: Skeleton) -> Skeleton:
    """``sk`` with every section index and block rank a plain ``int``.

    A numpy integer equals and hashes like the int it holds, but it
    does not print or serialise like one: a section's index becomes its
    stage span's ``index`` attribute, which the Chrome-trace JSON must
    encode, and both reach the text ``repr`` renders, which the digests
    pin.
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
    pipeline groups with a segment in it (none outside a
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
    """A compiled collective: buffers + one program per rank, as rows.

    ``deliver`` declares the byte ranges the collective contracts to
    write — tuples ``(rank, buffer, lo, hi)`` — which the linter checks
    are covered by the union of local and incoming remote writes (the
    data-conservation pass).

    Made by :meth:`from_rows`; the header fields and :attr:`table` are
    all it holds.  Equality compares headers and tables, the hash
    covers the header, and ``repr`` renders each rank's program from
    the rows (:meth:`StepTable.text`).
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
                f"programs={self.table.text()}, deliver={self.deliver!r})")

    def _skeleton(self, rank: int) -> Skeleton:
        if not 0 <= rank < self.n_pes:
            raise IndexError(f"rank {rank} outside [0, {self.n_pes})")
        return self.table.skeletons[self.table.skeleton_of[rank]]

    def program(self, rank: int) -> "_RankSteps":
        """``rank``'s steps, read in program order by ``all_steps()``."""
        self._skeleton(rank)
        return _RankSteps(self.table, rank)

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
        ``1`` and a pipeline block as ``pipe(G×S→R)`` — ``G`` wavefront
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
