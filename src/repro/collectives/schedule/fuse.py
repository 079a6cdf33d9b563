"""Composing compiled schedules into one schedule.

Three transforms go table to table: they renumber buffer indices, add
rows and lay out skeletons, and never read a step at a time.  Two turn
a superstep's deferred collectives into fewer, larger executions:

* :func:`compile_widened` merges K same-shape calls of **one**
  collective into a single call over the concatenated payload.  Only
  algorithms whose stage pairings and fold order are independent of
  ``nelems`` are eligible (:data:`WIDENABLE`): binomial broadcast,
  binomial reduce and recursive-doubling allreduce each move/fold the
  *entire* buffer every stage, so running them once at ``sum(counts)``
  elements performs byte-identical arithmetic to K separate runs.
  Segmented algorithms (ring, Rabenseifner, pipelined trees, scan)
  split by total element count and are *not* widenable.
* :func:`fuse_schedules` interleaves N compiled schedules — of
  different collectives, roots or shapes — into one schedule that runs
  them concurrently under **shared barriers**.  Buffers are renamed
  ``r{i}:{name}`` so the address spaces stay disjoint, and barrier
  phases are front-aligned (a schedule with fewer phases simply idles
  through the extras).  Stage slots follow one rule: where every
  contributor's slot has the same shape — a stage's barrier count, or a
  pipeline block's segments and groups — they merge
  barrier chunk by barrier chunk, one schedule after another; otherwise
  they run back to back.

The third, :func:`chain_schedules`, composes one collective from others
run one after another — the tree allgather, and the hierarchical trees,
whose node trees run side by side in blocks of a partitioned schedule
(``Section.block``).  It renames buffers with fusion's code.

Widening and fusion preserve the per-schedule phase mapping monotonically:
two steps that shared a barrier phase still share one, and no two
phases merge, so a fused schedule lints clean whenever its components
do — :func:`~.lint.lint_schedule` plus the fused-specific passes in
``lint_fused_schedule`` verify that mechanically for the registry's
fused family.

Fusion is intentionally strict: any structural surprise (rank-divergent
phase counts, stages not closed by a barrier, malformed pipeline blocks,
mixed reduction operators, a partitioned schedule) raises
:class:`~repro.errors.FusionError`, and the superstep flush falls back
to sequential execution — fusion may only ever be a performance
upgrade, never a semantic change.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from ...errors import FusionError
from .ir import AUX_COPY, OP_COPY, Buffer, Rows, Schedule, Section, Skeleton

__all__ = ["WIDENABLE", "chain_schedules", "fuse_schedules",
           "compile_widened", "widens"]

#: ``(collective, algorithm)`` pairs whose fold order does not depend on
#: the element count — the precondition for byte-identical widening.
WIDENABLE = frozenset({
    ("broadcast", "binomial"),
    ("reduce", "binomial"),
    ("allreduce", "doubling"),
})


def _structure(sched: Schedule) -> tuple:
    """The schedule's rank-uniform phase structure — prologue barriers,
    one ``(shape, section count)`` per stage slot, epilogue barriers — or
    FusionError: fusion interleaves the schedules under shared barriers,
    and a rank that disagreed would sit at a barrier nobody else
    reaches."""
    table = sched.table
    label = f"{sched.collective}:{sched.algorithm}"
    structs = {}
    for j in dict.fromkeys(table.skeleton_of.tolist()):
        sections = table.skeletons[j].sections
        slots, at = [], 1
        for entry in table.skeletons[j].signature:
            if isinstance(entry, tuple):
                _, _, segments, groups = entry
                width = groups + segments - 1 if groups else 0
                shape = ("pipe", segments, groups)
            else:
                width, shape = 1, ("stage", sections[at].nbars)
            slots.append((shape, width))
            at += width
        structs[j] = (sections[0].nbars, tuple(slots), sections[-1].nbars)
    ref = structs[int(table.skeleton_of[0])]
    for r, j in enumerate(table.skeleton_of.tolist()):
        if structs[j] != ref:
            raise FusionError(
                f"{label} rank {r} phase structure {structs[j]} differs "
                f"from rank 0's {ref}")
    # A stage row past its section's last barrier has no chunk to merge.
    sections = table.skeletons[int(table.skeleton_of[0])].sections
    ends = np.cumsum([sec.nbars for sec in sections])
    late = np.flatnonzero(
        (table.section > 0) & (table.section < len(sections) - 1)
        & (table.phase >= ends[table.section]))
    if len(late):
        raise FusionError(
            f"stage {sections[table.section[late[0]]].index} does not end "
            "with a barrier — cannot align its phases for fusion")
    return ref


@lru_cache(maxsize=256)
def fuse_schedules(scheds: tuple) -> Schedule:
    """Interleave compiled schedules into one fused superstep schedule.

    Raises :class:`~repro.errors.FusionError` when the batch cannot be
    fused (the caller then executes sequentially).  The result's
    buffers are renamed ``r{i}:{name}``; bind user buffers with the
    same prefixes.
    """
    if not scheds:
        raise FusionError("nothing to fuse")
    n_pes = scheds[0].n_pes
    itemsize = scheds[0].itemsize
    for s in scheds:
        if s.n_pes != n_pes:
            raise FusionError(
                f"group sizes differ: {s.n_pes} vs {n_pes}")
        if s.itemsize != itemsize:
            raise FusionError(
                f"element sizes differ: {s.itemsize} vs {itemsize}")
    ops = {s.op for s in scheds if s.op is not None}
    if len(ops) > 1:
        raise FusionError(
            f"mixed reduction operators {sorted(ops)} — the executor "
            "applies one operator per schedule")
    if any(s.table.partitioned for s in scheds):
        raise FusionError("a partitioned schedule's blocks cannot share "
                          "the group's barriers")
    structures = [_structure(s) for s in scheds]
    tables = [s.table for s in scheds]

    # The fused sections, rank-independent but for the attrs of a slot
    # run back to back: a ``source`` ``(i, j)`` prefixes a section's
    # attrs with those of input ``i``'s section ``j`` (less its pipeline
    # tags).  ``into[i][j]``: the fused section input i's section j is in.
    # ``pipes``: the source of each fused pipeline block's own attrs —
    # ``(i, b)``, input i's b-th block, for one run back to back.
    out = [(Section("prologue", -1, (), max(st[0] for st in structures)),
            None)]
    into = [[0] for _ in scheds]
    signature = []
    pipes = []
    idx = 0
    for slot in range(max(len(st[1]) for st in structures)):
        members = [i for i, st in enumerate(structures)
                   if slot < len(st[1])]
        merged = len({structures[i][1][slot] for i in members}) == 1
        for group in [members] if merged else [[i] for i in members]:
            (kind, *geometry), width = structures[group[0]][1][slot]
            at = len(into[group[0]])
            for t in range(width):
                out.append((Section("stage", idx, (), geometry[0])
                            if kind == "stage" else
                            Section("stage", idx + t, (
                                ("pipeline", idx), ("round", t),
                                ("segments", geometry[0])), 1, idx, t),
                            None if merged else (group[0], at + t)))
                for i in group:
                    into[i].append(len(out) - 1)
            signature.append(
                idx if kind == "stage" else ("pipeline", idx, *geometry))
            if kind == "pipe":
                pipes.append(None if merged else (group[0], sum(
                    shape[0] == "pipe"
                    for shape, _ in structures[group[0]][1][:slot])))
            idx += width
    out.append((Section("epilogue", -1, (), max(st[2] for st in structures)),
                None))
    for i in range(len(scheds)):
        into[i].append(len(out) - 1)
    out_bars = np.array([sec.nbars for sec, _ in out])
    out_base = np.cumsum(out_bars) - out_bars

    # Rows: each input's land in its fused sections, a chunk keeping its
    # place among the section's barriers (a prologue or epilogue tail
    # after the last shared one); within a fused phase, input by input —
    # so a merged pipeline round is not in group order, and its rows
    # name no group (``repr`` shows the round as its stage).
    names = [f"r{i}:{buf.name}" for i, s in enumerate(scheds)
             for buf in s.buffers]
    maps = _renamed(tables, [lambda name, i=i: f"r{i}:{name}"
                             for i in range(len(tables))], names)
    parts = []
    for i, table in enumerate(tables):
        sections = table.skeletons[int(table.skeleton_of[0])].sections
        bars = np.array([sec.nbars for sec in sections])
        chunk = table.phase - (np.cumsum(bars) - bars)[table.section]
        sec = np.array(into[i])[table.section]
        bufs = maps[i]
        parts.append((
            np.full(len(table), i), table.rank, sec, out_base[sec]
            + np.where(chunk < bars[table.section], chunk, out_bars[sec]),
            table.op, bufs[table.a_buf], table.a_off, bufs[table.b_buf],
            table.b_off, table.nelems, table.stride, table.peer, table.aux,
            np.full(len(table), -1)))
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.lexsort((cols[0], cols[3], cols[2], cols[1]))

    # One fused skeleton per combination of the inputs' skeletons.
    combos: dict = {}
    skeleton_of = [combos.setdefault(combo, len(combos)) for combo in zip(
        *(t.skeleton_of.tolist() for t in tables))]
    skeletons = []
    for combo in combos:
        sections = []
        for sec, source in out:
            if source is not None:
                own = tables[source[0]].skeletons[combo[source[0]]] \
                    .sections[source[1]].attrs
                sec = sec._replace(attrs=(
                    own[:-3] if sec.pipeline >= 0 else own) + sec.attrs)
            sections.append(sec)
        skeletons.append(Skeleton(tuple(sections), tuple(signature), tuple(
            () if src is None
            else tables[src[0]].skeletons[combo[src[0]]].pipelines[src[1]]
            for src in pipes)))
    return Schedule.from_rows(
        "superstep", "fused", n_pes, itemsize,
        {name: col[order] for name, col in zip(Rows.FIELDS, cols[1:])},
        tuple(skeletons), skeleton_of=skeleton_of,
        op=ops.pop() if ops else None,
        buffers=tuple(replace(buf, name=f"r{i}:{buf.name}")
                      for i, s in enumerate(scheds) for buf in s.buffers),
        deliver=tuple((rank, f"r{i}:{name}", lo, hi)
                      for i, s in enumerate(scheds)
                      for rank, name, lo, hi in s.deliver),
        names=names)


def _renamed(tables: list, renames: list, names: list) -> list:
    """Each table's buffer-index map into ``names`` — its buffer ``x``
    is ``renames[i](x)``; a name no buffer declares is appended — with a
    trailing ``-1`` for an absent operand."""
    index = {name: i for i, name in enumerate(names)}
    maps = []
    for table, rename in zip(tables, renames):
        for name in table.names[table.n_declared:]:
            if index.setdefault(rename(name), len(names)) == len(names):
                names.append(rename(name))
        maps.append(np.array([index[rename(x)] for x in table.names] + [-1]))
    return maps


def chain_schedules(collective: str, algorithm: str, n_pes: int, steps, *,
                    buffers: tuple = (), root: int = None) -> Schedule:
    """Run schedules one after another on one group of ``n_pes`` ranks.

    A step is parts ``(schedule, members, names)`` run side by side on
    disjoint ``members`` (the schedule's rank ``k`` is ``members[k]``).
    ``names`` maps a part's user buffers to the chain's; scratch and
    private buffers keep their names, so successive steps share storage
    as the LIFO scratch stack of separate calls did.  A name's buffers
    are one, held where any is and as large as the largest on each
    rank; ``buffers`` declares, first, those no part has.

    A step whose one part covers the group keeps its barriers; any other
    partitions them (``Section.block``): each part meets as one block,
    and a rank in no part, or past its part's stages, idles in a block
    of its own.  Parts have one skeleton and no pipeline; a step's agree
    on prologue, epilogue and shared stage barriers.  Sections are
    appended, stages numbered in chain order: an inner prologue or
    epilogue is a stage (none without a barrier), its rows past its
    last barrier moved to the next section.
    """
    n, parts = n_pes, [part for step in steps for part in step]
    ops = {sched.op for sched, _, _ in parts} - {None}
    renames = [lambda x, names=names: names.get(x, x)
               for _, _, names in parts]
    found: dict = {buf.name: None for buf in buffers}
    for (sched, members, _), rename in zip(parts, renames):
        for buf in sched.buffers:
            if found.get(rename(buf.name), ()) is not None:
                kind, sym, ext = found.setdefault(rename(buf.name),
                                                  (buf.kind, [False], {}))
                sym[0] |= buf.symmetric
                for k, q in enumerate(members):
                    if buf.held_by(k):
                        ext[q] = max(ext.get(q, 0), buf.nbytes_on(k))
    bufs = tuple(buffers) + tuple(
        Buffer(name, kind, max(ext.values()) if len(set(ext.values())) == 1
               else tuple(ext.get(q, 0) for q in range(n)), sym[0],
               None if kind == "scratch" or len(ext) == n
               else tuple(sorted(ext)))
        for name, (kind, sym, ext) in
        ((name, v) for name, v in found.items() if v is not None))
    names = [buf.name for buf in bufs]
    maps = iter(_renamed([s.table for s, _, _ in parts], renames, names))
    skels = [[] for _ in range(n)]       # each rank's chain sections
    rows = Rows()
    done = stages = 0                    # barriers and stages so far
    for i, step in enumerate(steps):
        shapes = [[sec.nbars for sec in sched.table.skeletons[0].sections]
                  for sched, _, _ in step]
        if len(ops) > 1 or any(
                len(t.skeletons) > 1 or t.partitioned or any(
                    isinstance(e, tuple) for e in t.skeletons[0].signature)
                for t in (sched.table for sched, _, _ in step)):
            raise ValueError("chained schedules have one operator, one "
                             "skeleton, one block and no pipeline")
        widest = max(shapes, key=len)
        last = len(widest) - 1
        inner = np.zeros(len(widest), dtype=bool)
        inner[[0, last]] = i > 0, i < len(steps) - 1
        kept = (np.array(widest) > 0) | ~inner
        at = len(skels[0]) + np.cumsum(kept) - 1
        layout = []
        for x in np.flatnonzero(kept).tolist():
            stage = bool(0 < x < last or inner[x])
            layout.append((x, "stage" if stage else "prologue" if x == 0
                           else "epilogue", stages if stage else -1))
            stages += stage
        owner = {q: j for j, (_, members, _) in enumerate(step)
                 for q in members}
        for r in range(n):
            j = owner.get(r)
            size = -1 if j is None else len(shapes[j]) - 1
            block = () if len(step) == 1 and len(owner) == n else (r,) \
                if j is None or len(step[j][1]) == 1 \
                else tuple(sorted(step[j][1]))
            skels[r] += [Section(kind, index, (), widest[x], block=block
                                 if x < size or x == last and j is not None
                                 else (r,)) for x, kind, index in layout]
        for sched, members, _ in step:
            t, mapped, bufmap = sched.table, np.array(members), next(maps)
            bars = np.array([sec.nbars for sec in t.skeletons[0].sections])
            # Source section x is step section x, its epilogue the
            # step's, past any stages it idles through.
            to = np.append(np.arange(len(bars) - 1), last)[t.section]
            local = t.phase - (np.cumsum(bars) - bars)[t.section]
            rows.add(mapped[t.rank], at[to] + (
                inner[to] & (local >= np.array(widest)[to])),
                done + (np.cumsum(widest) - widest)[to] + local, t.op,
                (bufmap[t.a_buf], t.a_off), (bufmap[t.b_buf], t.b_off),
                t.nelems, t.stride, mapped[t.peer], t.aux)
        done += sum(widest)
    kinds: dict = {}
    skeleton_of = [kinds.setdefault(Skeleton(tuple(s), tuple(
        sec.index for sec in s if sec.kind == "stage")), len(kinds))
        for s in skels]
    return Schedule.from_rows(
        collective, algorithm, n, parts[0][0].itemsize, rows, tuple(kinds),
        skeleton_of=skeleton_of, root=root, op=ops.pop() if ops else None,
        buffers=bufs, names=names, deliver=tuple(dict.fromkeys(
            (members[r], rename(name), lo, hi)
            for (sched, members, _), rename in zip(parts, renames)
            for r, name, lo, hi in sched.deliver)))


def _compile_inner(collective: str, algorithm: str, n_pes: int,
                   root: int, op: str, itemsize: int,
                   total: int) -> Schedule:
    if collective == "broadcast":
        from ..broadcast import compile_broadcast

        return compile_broadcast(n_pes, root, total, 1, itemsize,
                                 algorithm=algorithm)
    if collective == "reduce":
        from ..reduce import compile_reduce

        return compile_reduce(n_pes, root, total, 1, itemsize, op,
                              algorithm=algorithm)
    from ..allreduce import compile_allreduce

    return compile_allreduce(n_pes, total, 1, itemsize, op,
                             algorithm=algorithm)


def widens(sched: Schedule, nelems: int) -> bool:
    """Is ``sched`` a call :func:`compile_widened` may merge — a
    :data:`WIDENABLE` algorithm over ``nelems > 0`` elements at stride 1,
    compiled with every default?  A broadcast that leaves the root's
    ``dest`` alone (OpenSHMEM semantics) is not: the widened schedule
    copies out on every rank the plain call delivers to."""
    if (sched.collective, sched.algorithm) not in WIDENABLE or nelems <= 0:
        return False
    return sched == _compile_inner(sched.collective, sched.algorithm,
                                   sched.n_pes, sched.root or 0, sched.op,
                                   sched.itemsize, nelems)


@lru_cache(maxsize=512)
def compile_widened(collective: str, algorithm: str, n_pes: int,
                    root: int, op: str, itemsize: int,
                    counts: tuple) -> Schedule:
    """One schedule that runs K same-shape calls as a single wider call.

    ``counts[j]`` is request ``j``'s element count (stride 1).  The
    inner algorithm runs over the concatenated ``sum(counts)`` elements
    in a staged pair of work buffers: requests copy in at their offsets
    before the entry barrier and copy out after the last one, so the
    per-request ``src{j}``/``dest{j}`` user buffers never constrain the
    core algorithm's layout.  Byte-identity to K separate runs holds
    because every :data:`WIDENABLE` algorithm's pairings and per-element
    fold order are independent of the element count.
    """
    if (collective, algorithm) not in WIDENABLE:
        raise FusionError(
            f"{collective}:{algorithm} is not widenable (its stage "
            "layout depends on the element count)")
    total = sum(counts)
    if total <= 0 or any(c < 0 for c in counts):
        raise FusionError(f"bad widening counts {counts}")
    inner = _compile_inner(collective, algorithm, n_pes, root, op,
                           itemsize, total)
    table = inner.table
    src_buf = inner.buffer("src")
    dest_buf = inner.buffer("dest")
    receivers = np.array(sorted({rank for rank, name, _lo, _hi
                                 in inner.deliver if name == "dest"}),
                         dtype=np.int64)

    buffers = [Buffer(f"{name}{j}", "user", c * itemsize, ranks=buf.ranks)
               for j, c in enumerate(counts)
               for name, buf in (("src", src_buf), ("dest", dest_buf))]
    # ``w:src`` is only ever read locally by the inner algorithm
    # (every WIDENABLE compiler stages src through scratch or puts from
    # the local copy), so private memory suffices; ``w:dest`` is written
    # remotely by the broadcast tree, hence symmetric scratch.
    buffers.append(Buffer("w:src", "private", total * itemsize,
                          ranks=src_buf.ranks))
    buffers.append(Buffer("w:dest", "scratch", total * itemsize,
                          symmetric=True))
    buffers += [buf for buf in inner.buffers
                if buf.name not in ("src", "dest")]
    at = {buf.name: i for i, buf in enumerate(buffers)}
    bufs = np.array([at["w:" + name if name in ("src", "dest") else name]
                     for name in table.names] + [-1])

    # The inner rows on the work buffers, after the staging copies and
    # before the copy-outs, whose offsets are the requests' places.
    live = np.flatnonzero(counts)
    nelems = np.array(counts)[live]
    offsets = (np.cumsum(counts) - counts)[live] * itemsize
    holders = np.flatnonzero([src_buf.held_by(r) for r in range(n_pes)])
    last = np.array([len(sk.sections) - 1 for sk in table.skeletons])
    rows = Rows()
    rows.add(holders[:, None], 0, 0, OP_COPY, (at["w:src"], offsets),
             (2 * live, 0), nelems, aux=AUX_COPY)
    rows.add(table.rank, table.section, table.phase, table.op,
             (bufs[table.a_buf], table.a_off),
             (bufs[table.b_buf], table.b_off), table.nelems, table.stride,
             table.peer, table.aux)
    rows.add(receivers[:, None], last[table.skeleton_of[receivers]][:, None],
             table.barriers[receivers][:, None], OP_COPY, (2 * live + 1, 0),
             (at["w:dest"], offsets), nelems, aux=AUX_COPY)
    return Schedule.from_rows(
        collective, f"{algorithm}-widened", n_pes, itemsize, rows,
        table.skeletons, skeleton_of=table.skeleton_of, root=inner.root,
        op=inner.op, buffers=tuple(buffers),
        deliver=tuple((r, f"dest{j}", 0, c * itemsize)
                      for j, c in enumerate(counts) if c
                      for r in receivers.tolist()))
